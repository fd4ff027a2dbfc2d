// Unit tests for the simulated GPU device: engine timing, the fluid compute
// contention model, context multiplexing, memory accounting, and tracing.
#include "gpu/gpu_device.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gpu/device_props.hpp"
#include "simcore/simulation.hpp"

namespace strings::gpu {
namespace {

using sim::msec;
using sim::sec;
using sim::SimTime;
using sim::usec;

DeviceProps test_props() {
  DeviceProps p = tesla_c2050();
  p.copy_latency = 0;     // exact arithmetic in tests
  p.crowding_alpha = 0;   // disable co-residency interference for exactness
  p.pageable_factor = 1.0;
  return p;
}

KernelDesc make_kernel(SimTime dur, double occ = 1.0, double bw = 0.0) {
  return KernelDesc{dur, occ, bw};
}

TEST(GpuDevice, KernelDurationScalesWithComputeScore) {
  sim::Simulation sim;
  GpuDevice ref(sim, 0, tesla_c2050());
  GpuDevice slow(sim, 1, quadro2000());
  const auto k = make_kernel(msec(47));
  EXPECT_EQ(ref.kernel_duration(k), msec(47));
  EXPECT_EQ(slow.kernel_duration(k),
            static_cast<SimTime>(msec(47) / 0.47));
}

TEST(GpuDevice, CopyDurationMatchesBandwidth) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  // 6 GB/s => 6 bytes per ns.
  EXPECT_EQ(dev.copy_duration(6'000'000), 1'000'000);
}

TEST(GpuDevice, PageableCopiesPayThePinnedPenalty) {
  sim::Simulation sim;
  auto props = tesla_c2050();
  props.copy_latency = 0;
  props.pageable_factor = 0.5;
  GpuDevice dev(sim, 0, props);
  // 6 GB/s pinned vs 3 GB/s pageable.
  EXPECT_EQ(dev.copy_duration(6'000'000, /*pinned=*/true), 1'000'000);
  EXPECT_EQ(dev.copy_duration(6'000'000, /*pinned=*/false), 2'000'000);
  SimTime pageable_done = -1, pinned_done = -1;
  sim.spawn("app", [&] {
    auto a = dev.submit_copy(1, GpuDevice::OpKind::kH2D, 6'000'000, false);
    dev.wait(a);
    pageable_done = sim.now();
    auto b = dev.submit_copy(1, GpuDevice::OpKind::kH2D, 6'000'000, true);
    dev.wait(b);
    pinned_done = sim.now();
  });
  sim.run();
  EXPECT_EQ(pageable_done, 2'000'000);
  EXPECT_EQ(pinned_done, 3'000'000);
}

TEST(GpuDevice, SingleKernelRunsAtFullSpeed) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  SimTime done_at = -1;
  sim.spawn("app", [&] {
    auto op = dev.submit_kernel(1, make_kernel(msec(10)));
    dev.wait(op);
    done_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(done_at, msec(10));
  EXPECT_EQ(dev.counters().kernels_completed, 1);
}

TEST(GpuDevice, CopyAndKernelOverlapWithinOneContext) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  SimTime done_at = -1;
  sim.spawn("app", [&] {
    auto c = dev.submit_copy(1, GpuDevice::OpKind::kH2D, 60'000'000);  // 10ms
    auto k = dev.submit_kernel(1, make_kernel(msec(10)));
    dev.wait(c);
    dev.wait(k);
    done_at = sim.now();
  });
  sim.run();
  // Separate engines: both finish at 10ms, not 20ms.
  EXPECT_EQ(done_at, msec(10));
}

TEST(GpuDevice, H2DAndD2HEnginesAreIndependent) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  SimTime done_at = -1;
  sim.spawn("app", [&] {
    auto a = dev.submit_copy(1, GpuDevice::OpKind::kH2D, 60'000'000);
    auto b = dev.submit_copy(1, GpuDevice::OpKind::kD2H, 60'000'000);
    dev.wait(a);
    dev.wait(b);
    done_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(done_at, msec(10));
}

TEST(GpuDevice, SameEngineCopiesSerialize) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  SimTime done_at = -1;
  sim.spawn("app", [&] {
    auto a = dev.submit_copy(1, GpuDevice::OpKind::kH2D, 60'000'000);
    auto b = dev.submit_copy(1, GpuDevice::OpKind::kH2D, 60'000'000);
    dev.wait(a);
    dev.wait(b);
    done_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(done_at, msec(20));
}

TEST(GpuDevice, LowOccupancyKernelsShareSms) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  SimTime done_at = -1;
  sim.spawn("app", [&] {
    auto a = dev.submit_kernel(1, make_kernel(msec(10), 0.5));
    auto b = dev.submit_kernel(1, make_kernel(msec(10), 0.5));
    dev.wait(a);
    dev.wait(b);
    done_at = sim.now();
  });
  sim.run();
  // Sum occupancy == 1.0: both run at full speed concurrently.
  EXPECT_EQ(done_at, msec(10));
}

TEST(GpuDevice, OversubscribedSmsSlowKernelsDown) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  SimTime done_at = -1;
  sim.spawn("app", [&] {
    auto a = dev.submit_kernel(1, make_kernel(msec(10), 1.0));
    auto b = dev.submit_kernel(1, make_kernel(msec(10), 1.0));
    dev.wait(a);
    dev.wait(b);
    done_at = sim.now();
  });
  sim.run();
  // Two full-occupancy kernels run at half speed each: 20ms total.
  EXPECT_EQ(done_at, msec(20));
}

TEST(GpuDevice, BandwidthContentionSlowsMemoryBoundKernels) {
  sim::Simulation sim;
  auto props = test_props();  // 144 GB/s
  GpuDevice dev(sim, 0, props);
  SimTime done_at = -1;
  sim.spawn("app", [&] {
    // Each demands 144 GB/s at occupancy 0.4: SMs are fine, bandwidth is 2x
    // oversubscribed -> both at half speed.
    auto a = dev.submit_kernel(1, make_kernel(msec(10), 0.4, 144.0));
    auto b = dev.submit_kernel(1, make_kernel(msec(10), 0.4, 144.0));
    dev.wait(a);
    dev.wait(b);
    done_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(done_at, msec(20));
}

TEST(GpuDevice, ComputeBoundHidesNextToMemoryBound) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  SimTime a_done = -1, b_done = -1;
  sim.spawn("app", [&] {
    // Memory-bound (low occupancy, saturating bandwidth) + compute-bound
    // (high occupancy, negligible bandwidth): no shared bottleneck.
    auto a = dev.submit_kernel(1, make_kernel(msec(10), 0.3, 144.0));
    auto b = dev.submit_kernel(1, make_kernel(msec(10), 0.7, 1.0));
    dev.wait(a);
    a_done = sim.now();
    dev.wait(b);
    b_done = sim.now();
  });
  sim.run();
  // Combined bandwidth demand is 145/144 GB/s: both see only a ~0.7%
  // dilation rather than the 2x a shared bottleneck would cost.
  EXPECT_GE(a_done, msec(10));
  EXPECT_LE(a_done, msec(10) * 101 / 100);
  EXPECT_GE(b_done, msec(10));
  EXPECT_LE(b_done, msec(10) * 101 / 100);
}

TEST(GpuDevice, KernelJoiningMidwayGetsCorrectRemaining) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  SimTime a_done = -1, b_done = -1;
  sim.spawn("a", [&] {
    auto a = dev.submit_kernel(1, make_kernel(msec(10), 1.0));
    dev.wait(a);
    a_done = sim.now();
  });
  sim.spawn("b", [&] {
    sim.wait_for(msec(5));
    auto b = dev.submit_kernel(1, make_kernel(msec(10), 1.0));
    dev.wait(b);
    b_done = sim.now();
  });
  sim.run();
  // a runs alone 0-5ms (5ms of work done), then shares at half speed.
  // a needs 5 more ms of work -> 10ms wall -> done at 15ms.
  // b then runs alone with 7.5ms left -> done at 15 + 7.5 = 22.5ms? No:
  // b progressed 5ms..15ms at half speed = 5ms done, 5ms left, alone after
  // 15ms -> done at 20ms.
  EXPECT_EQ(a_done, msec(15));
  EXPECT_EQ(b_done, msec(20));
}

TEST(GpuDevice, DifferentContextsSerializeWithSwitchCost) {
  sim::Simulation sim;
  auto props = test_props();
  props.ctx_switch = msec(1);
  GpuDevice dev(sim, 0, props);
  SimTime a_done = -1, b_done = -1;
  sim.spawn("a", [&] {
    auto op = dev.submit_kernel(1, make_kernel(msec(10)));
    dev.wait(op);
    a_done = sim.now();
  });
  sim.spawn("b", [&] {
    auto op = dev.submit_kernel(2, make_kernel(msec(10)));
    dev.wait(op);
    b_done = sim.now();
  });
  sim.run();
  EXPECT_EQ(a_done, msec(10));
  EXPECT_EQ(b_done, msec(21));  // 10 run + 1 switch + 10 run
  EXPECT_EQ(dev.counters().context_switches, 1);
  EXPECT_EQ(dev.counters().context_switch_time, msec(1));
}

TEST(GpuDevice, SameContextNeverPaysSwitch) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  sim.spawn("a", [&] {
    for (int i = 0; i < 5; ++i) {
      auto op = dev.submit_kernel(7, make_kernel(msec(1)));
      dev.wait(op);
    }
  });
  sim.run();
  EXPECT_EQ(dev.counters().context_switches, 0);
}

TEST(GpuDevice, QuantumPreventsContextStarvation) {
  sim::Simulation sim;
  auto props = test_props();
  props.ctx_quantum = msec(5);
  props.ctx_switch = usec(100);
  GpuDevice dev(sim, 0, props);
  SimTime b_done = -1;
  // Context 1 submits a steady stream of short kernels; context 2 must still
  // get the device within roughly one quantum.
  sim.spawn("a", [&] {
    for (int i = 0; i < 100; ++i) {
      auto op = dev.submit_kernel(1, make_kernel(msec(1)));
      dev.wait(op);
    }
  });
  sim.spawn("b", [&] {
    auto op = dev.submit_kernel(2, make_kernel(msec(1)));
    dev.wait(op);
    b_done = sim.now();
  });
  sim.run();
  ASSERT_GT(b_done, 0);
  EXPECT_LT(b_done, msec(10));
}

TEST(GpuDevice, MemoryAccounting) {
  sim::Simulation sim;
  auto props = test_props();
  props.memory_bytes = 1000;
  GpuDevice dev(sim, 0, props);
  EXPECT_TRUE(dev.try_alloc(1, 600));
  EXPECT_TRUE(dev.try_alloc(2, 400));
  EXPECT_FALSE(dev.try_alloc(1, 1));  // full
  EXPECT_EQ(dev.memory_used(), 1000u);
  dev.release(1, 600);
  EXPECT_EQ(dev.memory_used(), 400u);
  EXPECT_TRUE(dev.try_alloc(1, 100));
  dev.release_all(1);
  EXPECT_EQ(dev.memory_used(), 400u);
  EXPECT_EQ(dev.memory_used(2), 400u);
  dev.release_all(2);
  EXPECT_EQ(dev.memory_used(), 0u);
}

TEST(GpuDevice, OpTimestampsRecorded) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  GpuDevice::OpRef op;
  sim.spawn("a", [&] {
    sim.wait_for(msec(3));
    op = dev.submit_kernel(1, make_kernel(msec(10)));
    dev.wait(op);
  });
  sim.run();
  ASSERT_TRUE(op != nullptr);
  EXPECT_EQ(op->submitted, msec(3));
  EXPECT_EQ(op->started, msec(3));
  EXPECT_EQ(op->completed, msec(13));
  EXPECT_TRUE(op->done);
}

TEST(GpuDevice, WaitWorksBeforeAndAfterCompletionWithLazyEvent) {
  // An op gets its done Event from the first wait() that finds it running.
  // Two processes wait on a running copy (the second reuses the first's
  // Event); a third waits only after the copy completed and must return at
  // once, without making an Event. An op nobody waited on never gets one,
  // and its completion callback still runs exactly once.
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  const SimTime dur = dev.copy_duration(1'000'000);
  GpuDevice::OpRef waited;
  GpuDevice::OpRef unwaited;
  int callbacks = 0;
  std::vector<SimTime> woke;
  sim.spawn("submit", [&] {
    waited = dev.submit_copy(1, GpuDevice::OpKind::kH2D, 1'000'000);
    unwaited = dev.submit_kernel(1, make_kernel(msec(1)));
    unwaited->on_done = [&callbacks] { ++callbacks; };
    EXPECT_EQ(waited->done_event, nullptr);
    dev.wait(waited);
    woke.push_back(sim.now());
  });
  sim.spawn("second", [&] {
    dev.wait(waited);
    woke.push_back(sim.now());
  });
  sim.spawn("late", [&] {
    sim.wait_for(dur + msec(5));
    ASSERT_TRUE(waited->done);
    const SimTime before = sim.now();
    dev.wait(waited);
    dev.wait(unwaited);
    EXPECT_EQ(sim.now(), before);
    woke.push_back(sim.now());
  });
  sim.run();
  ASSERT_TRUE(waited != nullptr);
  EXPECT_EQ(woke, (std::vector<SimTime>{dur, dur, dur + msec(5)}));
  EXPECT_NE(waited->done_event, nullptr);
  EXPECT_EQ(waited->done_event->waiter_count(), 0);
  EXPECT_TRUE(unwaited->done);
  EXPECT_EQ(unwaited->done_event, nullptr);
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(unwaited->on_done);
}

TEST(GpuDevice, ConcurrentKernelLimitRespected) {
  sim::Simulation sim;
  auto props = test_props();
  props.concurrent_kernels = 2;
  GpuDevice dev(sim, 0, props);
  SimTime done_at = -1;
  sim.spawn("a", [&] {
    std::vector<GpuDevice::OpRef> ops;
    for (int i = 0; i < 4; ++i) {
      ops.push_back(dev.submit_kernel(1, make_kernel(msec(10), 0.1)));
    }
    for (auto& op : ops) dev.wait(op);
    done_at = sim.now();
  });
  sim.run();
  // Only 2 at a time despite tiny occupancy: 2 batches of 10ms.
  EXPECT_EQ(done_at, msec(20));
}

TEST(GpuDevice, SwitchingFractionTracksContextChurn) {
  sim::Simulation sim;
  auto props = test_props();
  props.ctx_switch = msec(5);
  GpuDevice dev(sim, 0, props, /*trace=*/true);
  sim.spawn("a", [&] {
    auto op = dev.submit_kernel(1, make_kernel(msec(10)));
    dev.wait(op);
  });
  sim.spawn("b", [&] {
    auto op = dev.submit_kernel(2, make_kernel(msec(10)));
    dev.wait(op);
  });
  sim.run();
  // Timeline: 10ms ctx1, 5ms switch, 10ms ctx2 => switching 5/25.
  EXPECT_NEAR(dev.utilization().summary(msec(25)).switching_frac, 0.2, 1e-9);
  EXPECT_EQ(sim.now(), msec(25));
}

TEST(GpuDevice, CopyEngineRespectsContextOwnership) {
  // A copy from context B must wait for context A's kernel to drain even
  // though the copy engine itself is idle (driver context semantics).
  sim::Simulation sim;
  auto props = test_props();
  props.ctx_switch = msec(1);
  GpuDevice dev(sim, 0, props);
  SimTime copy_done = -1;
  sim.spawn("a", [&] {
    auto op = dev.submit_kernel(1, make_kernel(msec(20)));
    dev.wait(op);
  });
  sim.spawn("b", [&] {
    auto op = dev.submit_copy(2, GpuDevice::OpKind::kH2D, 6'000'000);  // 1ms
    dev.wait(op);
    copy_done = sim.now();
  });
  sim.run();
  EXPECT_EQ(copy_done, msec(22));  // 20 kernel + 1 switch + 1 copy
}

TEST(GpuDevice, SameContextCopyOverlapsForeignWait) {
  // Control for the previous test: same context -> immediate overlap.
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  SimTime copy_done = -1;
  sim.spawn("a", [&] {
    auto k = dev.submit_kernel(1, make_kernel(msec(20)));
    auto c = dev.submit_copy(1, GpuDevice::OpKind::kH2D, 6'000'000);
    dev.wait(c);
    copy_done = sim.now();
    dev.wait(k);
  });
  sim.run();
  EXPECT_EQ(copy_done, msec(1));
}

TEST(GpuDevice, TracerRecordsBusyAndIdle) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props(), /*trace=*/true);
  DeviceUtilSummary at10, at20;
  sim.spawn("a", [&] {
    sim.wait_for(msec(10));
    at10 = dev.utilization().summary(sim.now());
    auto op = dev.submit_kernel(1, make_kernel(msec(10)));
    dev.wait(op);
    at20 = dev.utilization().summary(sim.now());
    sim.wait_for(msec(10));
  });
  sim.run();
  const DeviceUtilSummary u = dev.utilization().summary(msec(30));
  EXPECT_NEAR(u.mean_compute_util, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(u.idle_frac, 2.0 / 3.0, 1e-9);
  // Busy for all of [10, 20) ms: the compute integral grows by 10 ms there.
  EXPECT_NEAR(at10.mean_compute_util, 0.0, 1e-9);
  EXPECT_NEAR(at20.mean_compute_util * 20.0 - at10.mean_compute_util * 10.0,
              10.0, 1e-9);
}

TEST(GpuDevice, BusyCountersAccumulate) {
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  sim.spawn("a", [&] {
    auto k = dev.submit_kernel(1, make_kernel(msec(10)));
    dev.wait(k);
    auto c = dev.submit_copy(1, GpuDevice::OpKind::kH2D, 60'000'000);
    dev.wait(c);
  });
  sim.run();
  EXPECT_EQ(dev.counters().compute_busy_time, msec(10));
  EXPECT_EQ(dev.counters().h2d_busy_time, msec(10));
  EXPECT_EQ(dev.counters().d2h_busy_time, 0);
}

// Property-style sweep: for any mix of occupancies, total compute throughput
// never exceeds the device and work is conserved.
class FluidModelSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FluidModelSweep, WorkConservation) {
  const auto [occ_a, occ_b] = GetParam();
  sim::Simulation sim;
  GpuDevice dev(sim, 0, test_props());
  SimTime a_done = -1, b_done = -1;
  sim.spawn("app", [&] {
    auto a = dev.submit_kernel(1, make_kernel(msec(10), occ_a));
    auto b = dev.submit_kernel(1, make_kernel(msec(10), occ_b));
    dev.wait(a);
    dev.wait(b);
    a_done = a->completed;
    b_done = b->completed;
  });
  sim.run();
  const double total_occ = occ_a + occ_b;
  const SimTime expected =
      total_occ <= 1.0 ? msec(10)
                       : static_cast<SimTime>(msec(10) * total_occ);
  EXPECT_NEAR(static_cast<double>(std::max(a_done, b_done)),
              static_cast<double>(expected), 1e3);  // within 1us
  // Neither kernel finishes before its standalone time.
  EXPECT_GE(a_done, msec(10));
  EXPECT_GE(b_done, msec(10));
}

INSTANTIATE_TEST_SUITE_P(
    OccupancyMixes, FluidModelSweep,
    ::testing::Values(std::make_tuple(0.2, 0.3), std::make_tuple(0.5, 0.5),
                      std::make_tuple(0.8, 0.8), std::make_tuple(1.0, 1.0),
                      std::make_tuple(0.3, 0.9), std::make_tuple(1.0, 0.1)));

}  // namespace
}  // namespace strings::gpu
