// Unit tests for the simulated CUDA runtime: API semantics, stream ordering,
// default-stream barriers, context isolation, events, and error paths.
#include "cudart/cuda_runtime.hpp"

#include <gtest/gtest.h>

#include "gpu/device_props.hpp"
#include "simcore/simulation.hpp"

namespace strings::cuda {
namespace {

using sim::msec;
using sim::SimTime;
using E = cudaError_t;

constexpr std::size_t kMB = 1u << 20;

struct Fixture {
  explicit Fixture(int num_devices = 1) {
    auto props = gpu::tesla_c2050();
    props.copy_latency = 0;
    props.crowding_alpha = 0;
    props.pageable_factor = 1.0;
    for (int i = 0; i < num_devices; ++i) {
      devices.push_back(
          std::make_unique<gpu::GpuDevice>(sim, i, props));
    }
    std::vector<gpu::GpuDevice*> ptrs;
    for (auto& d : devices) ptrs.push_back(d.get());
    rt = std::make_unique<CudaRuntime>(sim, std::move(ptrs));
  }
  sim::Simulation sim;
  std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
  std::unique_ptr<CudaRuntime> rt;
};

KernelLaunch kernel(SimTime dur, double occ = 1.0, double bw = 0.0) {
  return KernelLaunch{"k", gpu::KernelDesc{dur, occ, bw}};
}

TEST(CudaRuntime, DeviceEnumeration) {
  Fixture f(3);
  auto pid = f.rt->create_process();
  int count = 0;
  EXPECT_EQ(f.rt->cudaGetDeviceCount(pid, &count), E::cudaSuccess);
  EXPECT_EQ(count, 3);
  gpu::DeviceProps props;
  EXPECT_EQ(f.rt->cudaGetDeviceProperties(pid, &props, 0), E::cudaSuccess);
  EXPECT_EQ(props.name, "Tesla C2050");
  EXPECT_EQ(f.rt->cudaGetDeviceProperties(pid, &props, 5),
            E::cudaErrorInvalidDevice);
}

TEST(CudaRuntime, SetGetDevice) {
  Fixture f(2);
  auto pid = f.rt->create_process();
  int dev = -1;
  EXPECT_EQ(f.rt->cudaGetDevice(pid, &dev), E::cudaSuccess);
  EXPECT_EQ(dev, 0);
  EXPECT_EQ(f.rt->cudaSetDevice(pid, 1), E::cudaSuccess);
  EXPECT_EQ(f.rt->cudaGetDevice(pid, &dev), E::cudaSuccess);
  EXPECT_EQ(dev, 1);
  EXPECT_EQ(f.rt->cudaSetDevice(pid, 9), E::cudaErrorInvalidDevice);
}

TEST(CudaRuntime, MallocFreeAccounting) {
  Fixture f;
  auto pid = f.rt->create_process();
  DevPtr a = 0, b = 0;
  EXPECT_EQ(f.rt->cudaMalloc(pid, &a, 10 * kMB), E::cudaSuccess);
  EXPECT_EQ(f.rt->cudaMalloc(pid, &b, 20 * kMB), E::cudaSuccess);
  EXPECT_NE(a, b);
  EXPECT_EQ(f.devices[0]->memory_used(), 30 * kMB);
  EXPECT_EQ(f.rt->cudaFree(pid, a), E::cudaSuccess);
  EXPECT_EQ(f.devices[0]->memory_used(), 20 * kMB);
  EXPECT_EQ(f.rt->cudaFree(pid, a), E::cudaErrorInvalidDevicePointer);
  EXPECT_EQ(f.rt->cudaFree(pid, b), E::cudaSuccess);
}

TEST(CudaRuntime, MallocOutOfMemory) {
  Fixture f;
  auto pid = f.rt->create_process();
  DevPtr p = 0;
  // Tesla C2050 has 3 GiB.
  EXPECT_EQ(f.rt->cudaMalloc(pid, &p, std::size_t{4} << 30),
            E::cudaErrorMemoryAllocation);
  EXPECT_EQ(f.rt->cudaGetLastError(pid), E::cudaErrorMemoryAllocation);
  EXPECT_EQ(f.rt->cudaGetLastError(pid), E::cudaSuccess);  // cleared
}

TEST(CudaRuntime, SynchronousMemcpyBlocksForTransferTime) {
  Fixture f;
  auto pid = f.rt->create_process();
  SimTime done_at = -1;
  f.sim.spawn("app", [&] {
    DevPtr p = 0;
    ASSERT_EQ(f.rt->cudaMalloc(pid, &p, 60 * kMB), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaMemcpy(pid, p, 60'000'000,
                               cudaMemcpyKind::cudaMemcpyHostToDevice),
              E::cudaSuccess);
    done_at = f.sim.now();
  });
  f.sim.run();
  EXPECT_EQ(done_at, msec(10));  // 60 MB at 6 GB/s
}

TEST(CudaRuntime, MemcpyRejectsUnknownPointer) {
  Fixture f;
  auto pid = f.rt->create_process();
  f.sim.spawn("app", [&] {
    EXPECT_EQ(f.rt->cudaMemcpy(pid, 0xDEAD, 16,
                               cudaMemcpyKind::cudaMemcpyHostToDevice),
              E::cudaErrorInvalidDevicePointer);
  });
  f.sim.run();
}

TEST(CudaRuntime, MemcpyAcceptsInteriorPointer) {
  Fixture f;
  auto pid = f.rt->create_process();
  f.sim.spawn("app", [&] {
    DevPtr p = 0;
    ASSERT_EQ(f.rt->cudaMalloc(pid, &p, 1024), E::cudaSuccess);
    EXPECT_EQ(f.rt->cudaMemcpy(pid, p + 512, 512,
                               cudaMemcpyKind::cudaMemcpyHostToDevice),
              E::cudaSuccess);
    EXPECT_EQ(f.rt->cudaMemcpy(pid, p + 512, 1024,
                               cudaMemcpyKind::cudaMemcpyHostToDevice),
              E::cudaErrorInvalidDevicePointer);  // overruns allocation
  });
  f.sim.run();
}

TEST(CudaRuntime, AsyncMemcpyReturnsImmediately) {
  Fixture f;
  auto pid = f.rt->create_process();
  SimTime after_call = -1, after_sync = -1;
  f.sim.spawn("app", [&] {
    DevPtr p = 0;
    ASSERT_EQ(f.rt->cudaMalloc(pid, &p, 60 * kMB), E::cudaSuccess);
    cudaStream_t s = 0;
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaMemcpyAsync(pid, p, 60'000'000,
                                    cudaMemcpyKind::cudaMemcpyHostToDevice, s),
              E::cudaSuccess);
    after_call = f.sim.now();
    ASSERT_EQ(f.rt->cudaStreamSynchronize(pid, s), E::cudaSuccess);
    after_sync = f.sim.now();
  });
  f.sim.run();
  EXPECT_EQ(after_call, 0);
  EXPECT_EQ(after_sync, msec(10));
}

TEST(CudaRuntime, StreamOpsAreFifo) {
  Fixture f;
  auto pid = f.rt->create_process();
  SimTime done = -1;
  f.sim.spawn("app", [&] {
    cudaStream_t s = 0;
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s), E::cudaSuccess);
    // Two kernels on one stream serialize even though the device could
    // co-schedule them.
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10), 0.2), s),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10), 0.2), s),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaStreamSynchronize(pid, s), E::cudaSuccess);
    done = f.sim.now();
  });
  f.sim.run();
  EXPECT_EQ(done, msec(20));
}

TEST(CudaRuntime, DifferentStreamsOverlap) {
  Fixture f;
  auto pid = f.rt->create_process();
  SimTime done = -1;
  f.sim.spawn("app", [&] {
    cudaStream_t s1 = 0, s2 = 0;
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s1), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s2), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10), 0.5), s1),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10), 0.5), s2),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaDeviceSynchronize(pid), E::cudaSuccess);
    done = f.sim.now();
  });
  f.sim.run();
  EXPECT_EQ(done, msec(10));
}

TEST(CudaRuntime, DefaultStreamBarriersOtherStreams) {
  Fixture f;
  auto pid = f.rt->create_process();
  SimTime done = -1;
  f.sim.spawn("app", [&] {
    cudaStream_t s = 0;
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s), E::cudaSuccess);
    // s-kernel, then default-stream kernel, then s-kernel: the default op
    // must wait for the first and block the third.
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10), 0.2), s),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10), 0.2),
                                     cudaStreamDefault),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10), 0.2), s),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaDeviceSynchronize(pid), E::cudaSuccess);
    done = f.sim.now();
  });
  f.sim.run();
  EXPECT_EQ(done, msec(30));
}

TEST(CudaRuntime, DefaultStreamReleasesPrivateStreamsInAscendingId) {
  Fixture f;
  auto pid = f.rt->create_process();
  struct Done {
    cudaStream_t stream;
    SimTime submitted, completed;
    std::uint64_t seq;
  };
  std::vector<Done> done;
  f.rt->set_op_observer(
      [&](ProcessId, cudaStream_t s, const gpu::GpuDevice::Op& op) {
        done.push_back(Done{s, op.submitted, op.completed, op.seq});
      });
  cudaStream_t s[3] = {};
  f.sim.spawn("app", [&] {
    for (auto& st : s) {
      ASSERT_EQ(f.rt->cudaStreamCreate(pid, &st), E::cudaSuccess);
    }
    // One op in flight on each private stream, then a second op pending
    // behind it, enqueued in descending stream id.
    for (auto st : s) {
      ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10), 0.2), st),
                E::cudaSuccess);
    }
    for (int i = 2; i >= 0; --i) {
      ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10), 0.2), s[i]),
                E::cudaSuccess);
    }
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(5), 0.2),
                                     cudaStreamDefault),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaDeviceSynchronize(pid), E::cudaSuccess);
  });
  f.sim.run();
  ASSERT_EQ(done.size(), 7u);
  // The default-stream op waits for the first three ops to drain...
  const Done& def = done[3];
  ASSERT_EQ(def.stream, cudaStreamDefault);
  EXPECT_EQ(def.submitted, msec(10));
  EXPECT_EQ(def.completed, msec(15));
  // ...and the pending private ops submit only once it has drained, in
  // ascending stream id rather than in the order they were enqueued.
  for (int i = 0; i < 3; ++i) {
    const Done& d = done[4 + static_cast<std::size_t>(i)];
    EXPECT_EQ(d.stream, s[i]);
    EXPECT_EQ(d.submitted, def.completed);
    if (i > 0) {
      EXPECT_LT(done[3 + static_cast<std::size_t>(i)].seq, d.seq);
    }
  }
}

TEST(CudaRuntime, ConfigureCallRoutesLaunchToStream) {
  Fixture f;
  auto pid = f.rt->create_process();
  SimTime done = -1;
  f.sim.spawn("app", [&] {
    cudaStream_t s1 = 0, s2 = 0;
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s1), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s2), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaConfigureCall(pid, s1), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunch(pid, kernel(msec(10), 0.5)), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaConfigureCall(pid, s2), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunch(pid, kernel(msec(10), 0.5)), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaDeviceSynchronize(pid), E::cudaSuccess);
    done = f.sim.now();
  });
  f.sim.run();
  EXPECT_EQ(done, msec(10));  // routed to different streams: overlap
}

TEST(CudaRuntime, SeparateProcessesGetSeparateContexts) {
  Fixture f;
  auto pid1 = f.rt->create_process();
  auto pid2 = f.rt->create_process();
  SimTime done = -1;
  f.sim.spawn("apps", [&] {
    // Kernels from different processes cannot space-share: the device
    // serializes the two contexts.
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid1, kernel(msec(10), 0.2),
                                     cudaStreamDefault),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid2, kernel(msec(10), 0.2),
                                     cudaStreamDefault),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaDeviceSynchronize(pid1), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaDeviceSynchronize(pid2), E::cudaSuccess);
    done = f.sim.now();
  });
  f.sim.run();
  // 10 + default ctx switch + 10.
  EXPECT_EQ(done, msec(20) + gpu::tesla_c2050().ctx_switch);
  EXPECT_EQ(f.devices[0]->counters().context_switches, 1);
}

TEST(CudaRuntime, ThreadExitReleasesMemoryAndContexts) {
  Fixture f;
  auto pid = f.rt->create_process();
  f.sim.spawn("app", [&] {
    DevPtr p = 0;
    ASSERT_EQ(f.rt->cudaMalloc(pid, &p, 100 * kMB), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(5)), cudaStreamDefault),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaThreadExit(pid), E::cudaSuccess);
    EXPECT_EQ(f.devices[0]->memory_used(), 0u);
    EXPECT_GE(f.sim.now(), msec(5));  // synchronized before teardown
  });
  f.sim.run();
}

TEST(CudaRuntime, EventsMeasureElapsedTime) {
  Fixture f;
  auto pid = f.rt->create_process();
  double ms = 0.0;
  f.sim.spawn("app", [&] {
    cudaStream_t s = 0;
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s), E::cudaSuccess);
    cudaEvent_t start = 0, stop = 0;
    ASSERT_EQ(f.rt->cudaEventCreate(pid, &start), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaEventCreate(pid, &stop), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaEventRecord(pid, start, s), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(25)), s), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaEventRecord(pid, stop, s), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaEventSynchronize(pid, stop), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaEventElapsedTime(pid, &ms, start, stop), E::cudaSuccess);
  });
  f.sim.run();
  EXPECT_DOUBLE_EQ(ms, 25.0);
}

TEST(CudaRuntime, StreamQueryReportsBusyThenReady) {
  Fixture f;
  auto pid = f.rt->create_process();
  f.sim.spawn("app", [&] {
    cudaStream_t s = 0;
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s), E::cudaSuccess);
    EXPECT_EQ(f.rt->cudaStreamQuery(pid, s), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10)), s), E::cudaSuccess);
    EXPECT_EQ(f.rt->cudaStreamQuery(pid, s), E::cudaErrorNotReady);
    ASSERT_EQ(f.rt->cudaStreamSynchronize(pid, s), E::cudaSuccess);
    EXPECT_EQ(f.rt->cudaStreamQuery(pid, s), E::cudaSuccess);
  });
  f.sim.run();
}

TEST(CudaRuntime, LaunchOnUnknownStreamFails) {
  Fixture f;
  auto pid = f.rt->create_process();
  EXPECT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(1)), 12345),
            E::cudaErrorInvalidResourceHandle);
}

TEST(CudaRuntime, ZeroDurationKernelRejected) {
  Fixture f;
  auto pid = f.rt->create_process();
  EXPECT_EQ(f.rt->cudaLaunchKernel(pid, kernel(0), cudaStreamDefault),
            E::cudaErrorLaunchFailure);
}

TEST(CudaRuntime, OutstandingOpsTracksQueueDepth) {
  Fixture f;
  auto pid = f.rt->create_process();
  f.sim.spawn("app", [&] {
    cudaStream_t s = 0;
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s), E::cudaSuccess);
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10)), s),
                E::cudaSuccess);
    }
    EXPECT_EQ(f.rt->outstanding_ops(pid, 0), 3);
    ASSERT_EQ(f.rt->cudaStreamSynchronize(pid, s), E::cudaSuccess);
    EXPECT_EQ(f.rt->outstanding_ops(pid, 0), 0);
  });
  f.sim.run();
}

TEST(CudaRuntime, CountStreamOpsFollowsOpsInAndOut) {
  Fixture f;
  auto pid = f.rt->create_process();
  int count = 0;
  // Watched before the context or its default stream exist: the stream
  // created by the first op picks the counter up.
  f.rt->count_stream_ops(pid, 0, cudaStreamDefault, &count);
  EXPECT_EQ(count, 0);
  f.sim.spawn("app", [&] {
    cudaEvent_t ev = 0;
    ASSERT_EQ(f.rt->cudaEventCreate(pid, &ev), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10)), cudaStreamDefault),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaEventRecord(pid, ev, cudaStreamDefault),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10)), cudaStreamDefault),
              E::cudaSuccess);
    EXPECT_EQ(count, 3);  // one in flight, a record and a kernel queued
    f.sim.wait_for(msec(15));
    // The first kernel completed and the record fired with no device op.
    EXPECT_EQ(count, 1);
    ASSERT_EQ(f.rt->cudaEventSynchronize(pid, ev), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaDeviceSynchronize(pid), E::cudaSuccess);
    EXPECT_EQ(count, 0);

    // A stream with work already queued adds it when first watched, and
    // gives every op back when destroyed with work outstanding.
    cudaStream_t s = 0;
    ASSERT_EQ(f.rt->cudaStreamCreate(pid, &s), E::cudaSuccess);
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10)), s),
                E::cudaSuccess);
    }
    int on_s = 0;
    f.rt->count_stream_ops(pid, 0, s, &on_s);
    EXPECT_EQ(on_s, 2);
    ASSERT_EQ(f.rt->cudaStreamDestroy(pid, s), E::cudaSuccess);
    EXPECT_EQ(on_s, 0);
    EXPECT_EQ(count, 0);
  });
  f.sim.run();
  EXPECT_EQ(count, 0);
}

TEST(CudaRuntime, MultiDeviceContextsIndependent) {
  Fixture f(2);
  auto pid = f.rt->create_process();
  SimTime done = -1;
  f.sim.spawn("app", [&] {
    ASSERT_EQ(f.rt->cudaSetDevice(pid, 0), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10)), cudaStreamDefault),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaSetDevice(pid, 1), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaLaunchKernel(pid, kernel(msec(10)), cudaStreamDefault),
              E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaDeviceSynchronize(pid), E::cudaSuccess);  // dev 1
    ASSERT_EQ(f.rt->cudaSetDevice(pid, 0), E::cudaSuccess);
    ASSERT_EQ(f.rt->cudaDeviceSynchronize(pid), E::cudaSuccess);  // dev 0
    done = f.sim.now();
  });
  f.sim.run();
  EXPECT_EQ(done, msec(10));  // devices run in parallel
}

TEST(CudaRuntime, DestroyProcessIsIdempotent) {
  Fixture f;
  auto pid = f.rt->create_process();
  f.sim.spawn("app", [&] {
    f.rt->destroy_process(pid);
    f.rt->destroy_process(pid);
    EXPECT_EQ(f.rt->cudaSetDevice(pid, 0), E::cudaErrorInvalidValue);
  });
  f.sim.run();
}

}  // namespace
}  // namespace strings::cuda
