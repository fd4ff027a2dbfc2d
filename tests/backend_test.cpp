// Tests for the Context Packer and the backend daemon's three designs,
// driven through raw RPC channels (no interposer).
#include "backend/backend_daemon.hpp"
#include "backend/context_packer.hpp"

#include <gtest/gtest.h>

#include "gpu/device_props.hpp"
#include "simcore/simulation.hpp"

namespace strings::backend {
namespace {

using cuda::cudaError_t;
using cuda::cudaMemcpyKind;
using rpc::CallId;
using sim::msec;
using sim::SimTime;

constexpr std::size_t kMB = 1u << 20;

struct PackerFixture {
  PackerFixture() {
    auto props = gpu::tesla_c2050();
    props.copy_latency = 0;
    props.crowding_alpha = 0;
    props.pageable_factor = 1.0;
    dev = std::make_unique<gpu::GpuDevice>(sim, 0, props);
    rt = std::make_unique<cuda::CudaRuntime>(
        sim, std::vector<gpu::GpuDevice*>{dev.get()});
    pid = rt->create_process();
    packer = std::make_unique<ContextPacker>(sim, *rt, pid, 0,
                                             ContextPacker::Config{});
  }
  sim::Simulation sim;
  std::unique_ptr<gpu::GpuDevice> dev;
  std::unique_ptr<cuda::CudaRuntime> rt;
  cuda::ProcessId pid = 0;
  std::unique_ptr<ContextPacker> packer;
};

TEST(ContextPacker, StreamCreatorMakesOneStreamPerApp) {
  PackerFixture f;
  f.sim.spawn("t", [&] {
    const auto s1 = f.packer->stream_for(1);
    const auto s2 = f.packer->stream_for(2);
    EXPECT_NE(s1, s2);
    EXPECT_EQ(f.packer->stream_for(1), s1);  // idempotent
    EXPECT_EQ(f.packer->packed_apps(), 2);
  });
  f.sim.run();
}

TEST(ContextPacker, MotConvertsH2DToAsyncAndTracksPmt) {
  PackerFixture f;
  SimTime returned_at = -1;
  f.sim.spawn("t", [&] {
    cuda::DevPtr p = 0;
    f.rt->cudaMalloc(f.pid, &p, 60 * kMB);
    // 60 MB at 6 GB/s = 10ms on the wire; staging at 20 GB/s costs 3ms of
    // host time but the call must NOT wait for the device copy too.
    EXPECT_EQ(f.packer->memcpy_sync(1, p, 60'000'000,
                                    cudaMemcpyKind::cudaMemcpyHostToDevice),
              cudaError_t::cudaSuccess);
    returned_at = f.sim.now();
    EXPECT_EQ(f.packer->pmt().size(), 1u);
    EXPECT_EQ(f.packer->pinned_bytes(), 60'000'000u);
    EXPECT_EQ(f.packer->pmt()[0].app_id, 1u);
    // Sync point releases the pinned staging buffer.
    EXPECT_EQ(f.packer->device_synchronize(1), cudaError_t::cudaSuccess);
    EXPECT_TRUE(f.packer->pmt().empty());
    EXPECT_EQ(f.packer->pinned_bytes(), 0u);
  });
  f.sim.run();
  // Return after staging (3ms) but before the async device copy would
  // have been waited on (3ms staging + 10ms copy = 13ms).
  EXPECT_EQ(returned_at, msec(3));
}

TEST(ContextPacker, D2HBlocksAndReleasesPmt) {
  PackerFixture f;
  SimTime returned_at = -1;
  f.sim.spawn("t", [&] {
    cuda::DevPtr p = 0;
    f.rt->cudaMalloc(f.pid, &p, 60 * kMB);
    f.packer->memcpy_sync(1, p, 60'000'000,
                          cudaMemcpyKind::cudaMemcpyHostToDevice);
    EXPECT_EQ(f.packer->memcpy_sync(1, p, 60'000'000,
                                    cudaMemcpyKind::cudaMemcpyDeviceToHost),
              cudaError_t::cudaSuccess);
    returned_at = f.sim.now();
    EXPECT_TRUE(f.packer->pmt().empty());  // D2H releases staged entries
  });
  f.sim.run();
  // Staging 3ms, then H2D 10ms and D2H 10ms serialize on the app stream.
  EXPECT_EQ(returned_at, msec(23));
}

TEST(ContextPacker, SyncConversionDisabledBlocksOnH2D) {
  PackerFixture f;
  ContextPacker::Config cfg;
  cfg.convert_sync_to_async = false;
  cfg.staging_gbps = 0;  // no staging either
  auto packer = std::make_unique<ContextPacker>(f.sim, *f.rt, f.pid, 0, cfg);
  SimTime returned_at = -1;
  f.sim.spawn("t", [&] {
    cuda::DevPtr p = 0;
    f.rt->cudaMalloc(f.pid, &p, 60 * kMB);
    packer->memcpy_sync(1, p, 60'000'000,
                        cudaMemcpyKind::cudaMemcpyHostToDevice);
    returned_at = f.sim.now();
    EXPECT_TRUE(packer->pmt().empty());
  });
  f.sim.run();
  EXPECT_EQ(returned_at, msec(10));  // blocked for the full transfer
}

TEST(ContextPacker, ThreadExitCleansUpStreamAndPmt) {
  PackerFixture f;
  f.sim.spawn("t", [&] {
    cuda::DevPtr p = 0;
    f.rt->cudaMalloc(f.pid, &p, 60 * kMB);
    f.packer->memcpy_sync(7, p, 30'000'000,
                          cudaMemcpyKind::cudaMemcpyHostToDevice);
    EXPECT_EQ(f.packer->packed_apps(), 1);
    EXPECT_EQ(f.packer->thread_exit(7), cudaError_t::cudaSuccess);
    EXPECT_EQ(f.packer->packed_apps(), 0);
    EXPECT_TRUE(f.packer->pmt().empty());
  });
  f.sim.run();
}

// ------------------------------------------------------------- daemon ----

struct DaemonFixture {
  explicit DaemonFixture(Design design,
                         const std::string& device_policy = "AllAwake") {
    auto props = gpu::tesla_c2050();
    props.copy_latency = 0;
    props.crowding_alpha = 0;
    props.pageable_factor = 1.0;
    props.ctx_switch = msec(1);
    for (int i = 0; i < 2; ++i) {
      devices.push_back(std::make_unique<gpu::GpuDevice>(sim, i, props));
    }
    std::vector<gpu::GpuDevice*> ptrs{devices[0].get(), devices[1].get()};
    rt = std::make_unique<cuda::CudaRuntime>(sim, ptrs);
    BackendConfig cfg;
    cfg.design = design;
    cfg.device_policy = device_policy;
    daemon = std::make_unique<BackendDaemon>(sim, 0, *rt,
                                             std::vector<core::Gid>{0, 1}, cfg);
  }

  /// Drives one full app lifecycle over a raw RPC client; returns the
  /// decoded feedback record.
  core::FeedbackRecord run_app_via_rpc(std::uint64_t app_id,
                                       const std::string& type, int dev,
                                       SimTime kernel_ms, int kernels) {
    AppDescriptor app;
    app.app_id = app_id;
    app.app_type = type;
    app.tenant = "T";
    rpc::DuplexChannel& ch =
        daemon->connect(app, dev, rpc::LinkModel::shared_memory());
    rpc::RpcClient client(ch);

    rpc::Unmarshal m(client.call(CallId::kMalloc, encode_malloc(10 * kMB)));
    EXPECT_EQ(m.get_enum<cudaError_t>(), cudaError_t::cudaSuccess);
    const cuda::DevPtr ptr = m.get_u64();

    rpc::Unmarshal c(client.call(
        CallId::kMemcpy,
        encode_memcpy(ptr, 6'000'000,
                      cudaMemcpyKind::cudaMemcpyHostToDevice)));
    EXPECT_EQ(c.get_enum<cudaError_t>(), cudaError_t::cudaSuccess);

    cuda::KernelLaunch kl;
    kl.name = type;
    kl.desc = gpu::KernelDesc{msec(kernel_ms), 0.5, 10.0};
    for (int i = 0; i < kernels; ++i) {
      rpc::Unmarshal l(client.call(CallId::kLaunch, encode_launch(kl)));
      EXPECT_EQ(l.get_enum<cudaError_t>(), cudaError_t::cudaSuccess);
    }
    rpc::Unmarshal s(client.call(CallId::kDeviceSynchronize, rpc::Marshal{}));
    EXPECT_EQ(s.get_enum<cudaError_t>(), cudaError_t::cudaSuccess);

    rpc::Unmarshal e(client.call(CallId::kThreadExit, rpc::Marshal{}));
    EXPECT_EQ(e.get_enum<cudaError_t>(), cudaError_t::cudaSuccess);
    EXPECT_TRUE(e.get_bool());
    return decode_feedback(e);
  }

  sim::Simulation sim;
  std::vector<std::unique_ptr<gpu::GpuDevice>> devices;
  std::unique_ptr<cuda::CudaRuntime> rt;
  std::unique_ptr<BackendDaemon> daemon;
};

class DaemonDesignTest : public ::testing::TestWithParam<Design> {};

TEST_P(DaemonDesignTest, FullAppLifecycleProducesFeedback) {
  DaemonFixture f(GetParam());
  core::FeedbackRecord rec;
  f.sim.spawn("app", [&] { rec = f.run_app_via_rpc(1, "MC", 0, 20, 2); });
  f.sim.run();
  EXPECT_EQ(rec.app_type, "MC");
  EXPECT_EQ(rec.gid, 0);
  EXPECT_NEAR(rec.gpu_time_s, 0.040, 1e-3);  // 2 kernels x 20ms
  EXPECT_GT(rec.gpu_util, 0.0);
  EXPECT_GT(rec.mem_bw_gbps, 0.0);
  EXPECT_EQ(f.daemon->connections_accepted(), 1);
  // All device memory released after exit.
  EXPECT_EQ(f.devices[0]->memory_used(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DaemonDesignTest,
                         ::testing::Values(Design::kProcessPerApp,
                                           Design::kSingleMaster,
                                           Design::kThreadPerApp));

TEST(BackendDaemon, RainPaysContextSwitchesStringsDoesNot) {
  for (const Design design :
       {Design::kProcessPerApp, Design::kThreadPerApp}) {
    DaemonFixture f(design);
    int done = 0;
    for (int a = 0; a < 2; ++a) {
      f.sim.spawn("app" + std::to_string(a), [&f, &done, a] {
        f.run_app_via_rpc(static_cast<std::uint64_t>(a + 1), "MC", 0, 30, 3);
        ++done;
      });
    }
    f.sim.run();
    EXPECT_EQ(done, 2);
    if (design == Design::kProcessPerApp) {
      EXPECT_GT(f.devices[0]->counters().context_switches, 0)
          << "Rain apps have separate contexts";
    } else {
      EXPECT_EQ(f.devices[0]->counters().context_switches, 0)
          << "Strings packs apps into one context";
    }
  }
}

TEST(BackendDaemon, StringsOverlapsAppsAcrossStreams) {
  // Two apps, each 3 x 30ms kernels at occupancy 0.5: Strings space-shares
  // (one context) so the pair finishes near 90ms; Rain serializes contexts.
  auto run = [](Design design) {
    DaemonFixture f(design);
    SimTime finished = 0;
    auto* fp = &f;
    for (int a = 0; a < 2; ++a) {
      f.sim.spawn("app" + std::to_string(a), [fp, &finished, a] {
        fp->run_app_via_rpc(static_cast<std::uint64_t>(a + 1), "MC", 0, 30, 3);
        finished = std::max(finished, fp->sim.now());
      });
    }
    f.sim.run();
    return finished;
  };
  const SimTime strings_time = run(Design::kThreadPerApp);
  const SimTime rain_time = run(Design::kProcessPerApp);
  EXPECT_LT(strings_time, rain_time);
  EXPECT_LT(strings_time, msec(140));
  EXPECT_GT(rain_time, msec(170));
}

TEST(BackendDaemon, RequestsRouteToCorrectDevice) {
  DaemonFixture f(Design::kThreadPerApp);
  f.sim.spawn("a0", [&] { f.run_app_via_rpc(1, "A", 0, 10, 1); });
  f.sim.spawn("a1", [&] { f.run_app_via_rpc(2, "B", 1, 10, 1); });
  f.sim.run();
  EXPECT_EQ(f.devices[0]->counters().kernels_completed, 1);
  EXPECT_EQ(f.devices[1]->counters().kernels_completed, 1);
}

TEST(BackendDaemon, TfsGatesBackendThreads) {
  DaemonFixture f(Design::kThreadPerApp, "TFS");
  int done = 0;
  for (int a = 0; a < 2; ++a) {
    f.sim.spawn("app" + std::to_string(a), [&f, &done, a] {
      f.run_app_via_rpc(static_cast<std::uint64_t>(a + 1), "MC", 0, 20, 4);
      ++done;
    });
  }
  f.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_GT(f.daemon->scheduler(0).epochs_run(), 0);
}

TEST(BackendDaemon, WorkersReportPhasesToTheScheduler) {
  // The RCB phase must track what the backend thread is doing: H2D during
  // uploads, KL after a launch, DFL after a device sync (feeds PS).
  DaemonFixture f(Design::kThreadPerApp);
  f.sim.spawn("app", [&] {
    AppDescriptor app;
    app.app_id = 1;
    app.app_type = "PH";
    rpc::DuplexChannel& ch =
        f.daemon->connect(app, 0, rpc::LinkModel::shared_memory());
    rpc::RpcClient client(ch);
    rpc::Unmarshal m(client.call(CallId::kMalloc, encode_malloc(64 * kMB)));
    const cuda::DevPtr ptr = m.get_u64();

    auto phase_now = [&]() -> policies::Phase {
      const auto snaps = f.daemon->scheduler(0).snapshot();
      EXPECT_EQ(snaps.size(), 1u);
      return snaps.empty() ? policies::Phase::kDefault : snaps[0].phase;
    };

    client.call(CallId::kMemcpy,
                encode_memcpy(ptr, 60'000'000,
                              cudaMemcpyKind::cudaMemcpyHostToDevice));
    EXPECT_EQ(phase_now(), policies::Phase::kH2D);
    cuda::KernelLaunch kl{"k", gpu::KernelDesc{msec(10), 0.5, 0.0}};
    client.call(CallId::kLaunch, encode_launch(kl));
    EXPECT_EQ(phase_now(), policies::Phase::kKernelLaunch);
    client.call(CallId::kDeviceSynchronize, rpc::Marshal{});
    EXPECT_EQ(phase_now(), policies::Phase::kDefault);
    client.call(CallId::kMemcpy,
                encode_memcpy(ptr, 6'000'000,
                              cudaMemcpyKind::cudaMemcpyDeviceToHost));
    EXPECT_EQ(phase_now(), policies::Phase::kD2H);
    client.call(CallId::kThreadExit, rpc::Marshal{});
  });
  f.sim.run();
}

TEST(BackendDaemon, WireTotalsEqualChannelSumsAcrossRelease) {
  // The wire gauges read daemon-level totals the channels add into as they
  // send: they equal the per-channel sums, and a released binding stays
  // counted after its channels are gone.
  DaemonFixture f(Design::kThreadPerApp);
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  f.sim.spawn("apps", [&] {
    for (std::uint64_t id = 1; id <= 3; ++id) {
      AppDescriptor app;
      app.app_id = id;
      app.app_type = "X";
      rpc::DuplexChannel& ch =
          f.daemon->connect(app, 0, rpc::LinkModel::shared_memory());
      {
        rpc::RpcClient client(ch);
        client.call(CallId::kMalloc, encode_malloc(kMB));
        client.call(CallId::kThreadExit, rpc::Marshal{});
      }
      bytes += ch.request.bytes_sent() + ch.response.bytes_sent();
      packets += ch.request.packets_sent() + ch.response.packets_sent();
      EXPECT_EQ(f.daemon->wire_bytes(), bytes);
      EXPECT_EQ(f.daemon->wire_packets(), packets);
      if (id != 2) f.daemon->release_binding(ch);  // app 2 stays bound
      EXPECT_EQ(f.daemon->wire_bytes(), bytes);
      EXPECT_EQ(f.daemon->wire_packets(), packets);
    }
  });
  f.sim.run();
  EXPECT_EQ(f.daemon->live_connections(), 1u);
  EXPECT_EQ(packets, 12u);  // 2 calls and 2 responses per app
  EXPECT_EQ(f.daemon->wire_bytes(), bytes);
  EXPECT_EQ(f.daemon->wire_packets(), packets);
}

TEST(BackendDaemon, UnknownCallRepliesError) {
  DaemonFixture f(Design::kThreadPerApp);
  f.sim.spawn("app", [&] {
    AppDescriptor app;
    app.app_id = 9;
    app.app_type = "X";
    rpc::DuplexChannel& ch =
        f.daemon->connect(app, 0, rpc::LinkModel::shared_memory());
    rpc::RpcClient client(ch);
    rpc::Unmarshal u(client.call(CallId::kSelectDevice, rpc::Marshal{}));
    EXPECT_EQ(u.get_enum<cudaError_t>(), cudaError_t::cudaErrorUnknown);
    rpc::Unmarshal e(client.call(CallId::kThreadExit, rpc::Marshal{}));
    EXPECT_EQ(e.get_enum<cudaError_t>(), cudaError_t::cudaSuccess);
  });
  f.sim.run();
}

}  // namespace
}  // namespace strings::backend
