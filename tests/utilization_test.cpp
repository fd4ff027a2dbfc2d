// Tests for gpu::UtilizationAccumulator, the running Fig. 1/2 statistics
// of a GpuDevice. The randomized case pins all six statistics bit for bit
// against the sample-series tracer it replaced (tests/utilization_oracle.hpp).
// The Tracer.* and Timeline.* cases keep their suite names so their test
// ids stay stable.
#include "gpu/utilization.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "gpu/gpu_device.hpp"
#include "simcore/simulation.hpp"
#include "utilization_oracle.hpp"

namespace strings::gpu {
namespace {

using sim::msec;
using sim::SimTime;

UtilizationState state(double compute, bool idle, bool switching = false,
                       double bw = 0.0) {
  UtilizationState s;
  s.compute_util = compute;
  s.bw_util = bw;
  s.idle = idle;
  s.switching = switching;
  return s;
}

// Feeds one record to both the accumulator and the oracle.
struct Pair {
  UtilizationAccumulator acc{true};
  testing_oracle::UtilizationTracer oracle{true};

  void record(SimTime t, const UtilizationState& s) {
    acc.record(t, s);
    testing_oracle::UtilizationSample o;
    o.time = t;
    o.compute_util = s.compute_util;
    o.bw_util = s.bw_util;
    o.switching = s.switching;
    o.resident_kernels = s.idle ? 0 : 1;
    oracle.record(o);
  }

  void expect_equal(SimTime end, int trial) const {
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " end " << end);
    const DeviceUtilSummary u = acc.summary(end);
    // Bit equality: the sums must add the same operands in the same order.
    EXPECT_EQ(u.mean_compute_util, oracle.mean_compute_util(0, end));
    EXPECT_EQ(u.mean_bw_util, oracle.mean_bw_util(0, end));
    EXPECT_EQ(u.idle_frac, oracle.compute_idle_fraction(0, end));
    EXPECT_EQ(u.switching_frac, oracle.switching_fraction(0, end));
    EXPECT_EQ(u.util_cov,
              oracle.compute_util_cov(0, end, UtilizationAccumulator::kCovGrid));
    EXPECT_EQ(u.idle_gaps,
              oracle.idle_gap_count(0, end, UtilizationAccumulator::kMinIdleGap));
  }
};

TEST(UtilizationAccumulator, MatchesSampleSeriesOracleBitForBit) {
  std::mt19937_64 rng(20141117);
  auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto below = [&](std::int64_t n) {
    return std::uniform_int_distribution<std::int64_t>(0, n - 1)(rng);
  };
  for (int trial = 0; trial < 200; ++trial) {
    // Mostly short series, a few up to 5,000 records. Long series take only
    // short steps: the oracle's CoV costs cells x records.
    const bool long_series = trial % 40 == 0;
    const std::int64_t n = long_series ? 4000 + below(1001) : below(300);
    Pair p;
    SimTime t = below(3) == 0 ? below(msec(250)) : 0;
    UtilizationState s = state(0.0, true);
    for (std::int64_t i = 0; i < n; ++i) {
      if (i > 0) {
        switch (below(long_series ? 4 : 6)) {
          case 0: break;  // repeated timestamp
          case 1: t += 1 + below(1000); break;
          case 2: t += 1 + below(msec(4)); break;
          case 3: t += 1 + below(msec(20)); break;
          case 4: t += 1 + below(msec(120)); break;
          default: t += 1 + below(msec(900)); break;  // spans many cells
        }
      }
      if (below(3) != 0) {  // otherwise a run of equal states
        const bool idle = below(3) == 0;
        const double levels[] = {0.0, 0.25, 0.5, 1.0, uniform(0.0, 1.0)};
        s = state(idle ? 0.0 : levels[below(5)], idle, below(8) == 0,
                  below(2) == 0 ? 0.0 : uniform(0.0, 1.0));
      }
      p.record(t, s);
    }
    // End at the last record, inside the grid or on a grid line.
    p.expect_equal(t + 1 + below(msec(350)), trial);
    if (n > 0) {
      p.expect_equal(t, trial);
      p.expect_equal((t / UtilizationAccumulator::kCovGrid + 1) *
                         UtilizationAccumulator::kCovGrid,
                     trial);
    }
  }
}

TEST(UtilizationAccumulator, EndBeforeLastChangeThrows) {
  UtilizationAccumulator acc(true);
  acc.record(0, state(1.0, false));
  acc.record(msec(20), state(0.0, true));
  EXPECT_THROW(acc.summary(msec(19)), std::logic_error);
  EXPECT_NO_THROW(acc.summary(msec(20)));
}

TEST(Tracer, IdleGapCountFindsGaps) {
  UtilizationAccumulator acc(true);
  acc.record(0, state(1.0, false));
  acc.record(msec(10), state(0.0, true));  // gap 10..30 (20ms)
  acc.record(msec(30), state(1.0, false));
  acc.record(msec(40), state(0.0, true));  // gap 40..42 (2ms: below min)
  acc.record(msec(42), state(1.0, false));
  acc.record(msec(50), state(0.0, true));  // tail gap 50..60 (10ms)
  EXPECT_EQ(acc.summary(msec(60)).idle_gaps, 2);
}

// The CoV grid is fixed at 100ms, so these cases run 10x longer than on a
// 10ms grid to keep ten cells.
TEST(Tracer, CovZeroForConstantUtilization) {
  UtilizationAccumulator acc(true);
  acc.record(0, state(0.5, false));
  EXPECT_NEAR(acc.summary(msec(1000)).util_cov, 0.0, 1e-12);
}

TEST(Tracer, CovPositiveForBurstyUtilization) {
  UtilizationAccumulator acc(true);
  acc.record(0, state(1.0, false));
  acc.record(msec(500), state(0.0, true));
  // Half busy, half idle on the grid: CoV = 1.
  EXPECT_NEAR(acc.summary(msec(1000)).util_cov, 1.0, 1e-9);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  UtilizationAccumulator acc(false);
  acc.record(0, state(1.0, false));
  const DeviceUtilSummary u = acc.summary(msec(10));
  EXPECT_DOUBLE_EQ(u.mean_compute_util, 0.0);
  EXPECT_DOUBLE_EQ(u.idle_frac, 0.0);
  EXPECT_EQ(u.idle_gaps, 0);
}

TEST(Timeline, EndToEndWithRealDevice) {
  sim::Simulation sim;
  auto props = tesla_c2050();
  props.copy_latency = 0;
  GpuDevice dev(sim, 0, props, /*trace=*/true);
  sim.spawn("app", [&] {
    auto op = dev.submit_kernel(1, KernelDesc{msec(10), 0.9, 0});
    dev.wait(op);
    sim.wait_for(msec(10));
  });
  sim.run();
  // Busy at 0.9 occupancy for the first half, one idle gap after it.
  const DeviceUtilSummary u = dev.utilization().summary(msec(20));
  EXPECT_NEAR(u.mean_compute_util, 0.45, 1e-12);
  EXPECT_NEAR(u.idle_frac, 0.5, 1e-12);
  EXPECT_EQ(u.switching_frac, 0.0);
  EXPECT_EQ(u.idle_gaps, 1);
}

}  // namespace
}  // namespace strings::gpu
