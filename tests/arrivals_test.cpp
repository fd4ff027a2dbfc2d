// Open-loop arrival engine: determinism pins, stream independence,
// statistical sanity of the generators, trace-file parsing, and the
// tenant-churn contract (attach/detach leaves no orphaned per-tenant state
// in the scheduler RCBs or the backend connection table).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "workloads/arrivals.hpp"
#include "workloads/scenario_config.hpp"
#include "workloads/testbed.hpp"

namespace strings {
namespace {

using workloads::ArrivalKind;
using workloads::OpenLoopTenant;
using workloads::arrival_schedule;
using workloads::tenant_stream_seed;

// ---- Determinism pins --------------------------------------------------
// The exact values are part of the reproducibility contract: splitmix64 +
// FNV-1a are bit-stable across platforms, so a changed pin means a changed
// experiment, not a changed machine.

TEST(ArrivalsDeterminism, StreamSeedIsBitStable) {
  EXPECT_EQ(tenant_stream_seed(42, "pricing-svc"), 14431085673789168331ull);
  EXPECT_EQ(tenant_stream_seed(42, "pricing-svc"),
            tenant_stream_seed(42, "pricing-svc"));
}

TEST(ArrivalsDeterminism, PoissonScheduleIsBitStable) {
  OpenLoopTenant t;
  t.name = "pin";
  t.seed = 7;
  t.rate_rps = 100.0;
  t.requests = 5;
  const std::vector<sim::SimTime> expect = {3566682, 62895439, 63799630,
                                            68615423, 72350107};
  EXPECT_EQ(arrival_schedule(t), expect);
}

TEST(ArrivalsDeterminism, SameConfigYieldsIdenticalSchedules) {
  OpenLoopTenant t;
  t.name = "svc";
  t.seed = 9;
  t.arrival = ArrivalKind::kBursty;
  t.requests = 200;
  EXPECT_EQ(arrival_schedule(t), arrival_schedule(t));
}

// ---- Stream independence ----------------------------------------------

TEST(ArrivalsIndependence, DifferentTenantNamesDecorrelate) {
  OpenLoopTenant a;
  a.seed = 5;
  a.requests = 50;
  OpenLoopTenant b = a;
  a.name = "tenantA";
  b.name = "tenantB";
  EXPECT_NE(arrival_schedule(a), arrival_schedule(b));
  EXPECT_NE(tenant_stream_seed(5, "tenantA"), tenant_stream_seed(5, "tenantB"));
}

TEST(ArrivalsIndependence, DifferentSeedsDecorrelate) {
  OpenLoopTenant a;
  a.name = "svc";
  a.requests = 50;
  OpenLoopTenant b = a;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(arrival_schedule(a), arrival_schedule(b));
}

// ---- Statistical sanity ------------------------------------------------

TEST(ArrivalsStats, PoissonEmpiricalRateMatchesConfigured) {
  OpenLoopTenant t;
  t.name = "stat";
  t.seed = 11;
  t.rate_rps = 200.0;  // mean gap 5 ms
  t.requests = 20000;
  const auto s = arrival_schedule(t);
  ASSERT_EQ(s.size(), 20000u);
  const double mean_gap_ms =
      static_cast<double>(s.back()) / 1e6 / static_cast<double>(s.size());
  // Mean of 20k exponential gaps: sigma = 5ms/sqrt(20000) ~ 0.035ms, so a
  // +-5% band is ~7 sigma — fails only if the generator is actually wrong.
  EXPECT_GT(mean_gap_ms, 4.75);
  EXPECT_LT(mean_gap_ms, 5.25);
}

TEST(ArrivalsStats, SchedulesAreStrictlyIncreasing) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty}) {
    OpenLoopTenant t;
    t.name = "mono";
    t.seed = 13;
    t.arrival = kind;
    t.requests = 500;
    const auto s = arrival_schedule(t);
    for (std::size_t i = 1; i < s.size(); ++i) {
      ASSERT_GT(s[i], s[i - 1]) << "at index " << i;
    }
  }
}

TEST(ArrivalsStats, BurstyRunsHotterThanItsBaseRate) {
  // The MMPP's ON state multiplies the base rate, so over the same request
  // count the bursty schedule must finish earlier than a pure-Poisson one
  // with the same base rate (statistically certain at this sample size).
  OpenLoopTenant p;
  p.name = "hot";
  p.seed = 17;
  p.rate_rps = 50.0;
  p.requests = 2000;
  OpenLoopTenant b = p;
  b.arrival = ArrivalKind::kBursty;
  b.burst_factor = 8.0;
  EXPECT_LT(arrival_schedule(b).back(), arrival_schedule(p).back());
}

// ---- Churn windows -----------------------------------------------------

TEST(ArrivalsChurn, AttachDetachWindowBoundsEverySchedule) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty}) {
    OpenLoopTenant t;
    t.name = "windowed";
    t.seed = 19;
    t.arrival = kind;
    t.rate_rps = 300.0;
    t.requests = 100000;  // cap on requests, not on the window
    t.attach_at = sim::msec(250);
    t.detach_at = sim::msec(750);
    const auto s = arrival_schedule(t);
    ASSERT_FALSE(s.empty());
    EXPECT_GT(s.front(), t.attach_at);
    EXPECT_LT(s.back(), t.detach_at);
  }
}

TEST(ArrivalsChurn, InvalidWindowsThrow) {
  OpenLoopTenant t;
  t.name = "bad";
  t.attach_at = sim::msec(100);
  t.detach_at = sim::msec(100);
  EXPECT_THROW(arrival_schedule(t), std::invalid_argument);
  t.detach_at = -1;
  t.requests = 0;
  EXPECT_THROW(arrival_schedule(t), std::invalid_argument);
  t.requests = 10;
  t.rate_rps = 0.0;
  EXPECT_THROW(arrival_schedule(t), std::invalid_argument);
  // Arrivals stamped before t = 0 could only start at 0, inflating every
  // response time by the gap.
  t.rate_rps = 50.0;
  t.attach_at = -sim::msec(5);
  EXPECT_THROW(arrival_schedule(t), std::invalid_argument);
}

// ---- Trace files -------------------------------------------------------

TEST(ArrivalsTrace, ParsesOffsetsSkipsCommentsAppliesWindow) {
  const std::string path = ::testing::TempDir() + "arrivals_trace.txt";
  {
    std::ofstream out(path);
    out << "# replayed from production logs\n"
        << "0.5\n"
        << "\n"
        << "  2.25\n"
        << "10\n"
        << "999\n";
  }
  OpenLoopTenant t;
  t.name = "replay";
  t.arrival = ArrivalKind::kTrace;
  t.trace_file = path;
  t.attach_at = sim::msec(1);
  t.detach_at = sim::msec(500);
  t.requests = 10;
  const auto s = arrival_schedule(t);
  // 999 ms lands past detach (1 + 999 >= 500); the rest shift by attach_at.
  const std::vector<sim::SimTime> expect = {
      sim::msec(1) + 500000, sim::msec(1) + 2250000, sim::msec(1) + 10000000};
  EXPECT_EQ(s, expect);
  std::remove(path.c_str());
}

TEST(ArrivalsTrace, MissingFileAndBadOffsetsThrow) {
  OpenLoopTenant t;
  t.name = "replay";
  t.arrival = ArrivalKind::kTrace;
  t.trace_file = "/nonexistent/arrivals.txt";
  EXPECT_THROW(arrival_schedule(t), std::runtime_error);

  const std::string path = ::testing::TempDir() + "arrivals_bad.txt";
  {
    std::ofstream out(path);
    out << "1.0\nnot-a-number\n";
  }
  t.trace_file = path;
  EXPECT_THROW(arrival_schedule(t), std::runtime_error);
  std::remove(path.c_str());
}

// ---- Churn leaves no orphaned state ------------------------------------

TEST(ArrivalsChurnEndToEnd, DetachLeavesNoOrphanedRcbsOrConnections) {
  OpenLoopTenant churn;
  churn.name = "churn-svc";
  churn.app = "GA";
  churn.rate_rps = 10.0;
  churn.requests = 8;
  churn.attach_at = sim::msec(100);
  churn.detach_at = sim::sec(2);
  churn.seed = 23;
  OpenLoopTenant steady = churn;
  steady.name = "steady-svc";
  steady.attach_at = 0;
  steady.detach_at = -1;
  steady.requests = 6;
  steady.seed = 24;

  // Every backend design admits and retires each short-lived request.
  for (const workloads::Mode mode :
       {workloads::Mode::kRain, workloads::Mode::kDesign2,
        workloads::Mode::kStrings}) {
    SCOPED_TRACE(workloads::mode_name(mode));
    workloads::TestbedConfig tcfg;
    tcfg.mode = mode;
    tcfg.device_policy = "MQFQ";
    sim::Simulation sim;
    workloads::Testbed bed(sim, tcfg);
    const auto stats = workloads::run_open_loop(bed, {churn, steady});
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_GT(stats[0].completed, 0);
    EXPECT_EQ(stats[1].completed, 6);

    // Every short-lived request attached and detached: after the drain no
    // RCB may stay registered and no backend connection may stay alive.
    backend::BackendDaemon& daemon = bed.daemon(0);
    EXPECT_EQ(daemon.live_connections(), 0u);
    for (int dev = 0; dev < daemon.device_count(); ++dev) {
      EXPECT_EQ(daemon.scheduler(dev).registered_count(), 0)
          << "device " << dev;
    }
  }
}

TEST(ArrivalsChurnEndToEnd, AnalyzerFindsNoViolationsUnderChurn) {
  const char* text = R"(mode = strings
topology = small
device_policy = mqfq
mqfq_T = 25

[tenant]
name = churny
app = GA
rate = 12
requests = 6
attach_ms = 50
detach_ms = 1500
seed = 31

[tenant]
name = steady
app = BS
rate = 2
requests = 4
seed = 32
)";
  const workloads::ScenarioConfig cfg = workloads::parse_scenario(text);
  workloads::RunArtifacts artifacts;
  artifacts.analysis_path = ::testing::TempDir() + "churn_analysis.txt";
  const workloads::RunResult result = workloads::run(cfg, artifacts);
  EXPECT_EQ(result.invariant_violations, 0);
  ASSERT_EQ(result.streams.size(), 2u);
  EXPECT_GT(result.streams[0].completed, 0);
  EXPECT_EQ(result.streams[1].completed, 4);
  std::remove(artifacts.analysis_path.c_str());
}

// ---- Scenario parser surface ------------------------------------------

TEST(ArrivalsScenario, TenantSectionsParse) {
  const char* text = R"(mode = strings
device_policy = mqfq
mqfq_T = 15
mqfq_sticky_ms = 3

[tenant]
name = burst-svc
app = MC
arrival = bursty
rate = 120
burst_factor = 8
burst_on_ms = 200
burst_off_ms = 800
requests = 400
attach_ms = 0
detach_ms = 1500
seed = 7
weight = 2.0
)";
  const workloads::ScenarioConfig cfg = workloads::parse_scenario(text);
  EXPECT_EQ(cfg.testbed.device_policy, "mqfq");
  EXPECT_EQ(cfg.testbed.mqfq.throttle_T, sim::msec(15));
  EXPECT_EQ(cfg.testbed.mqfq.sticky_window, sim::msec(3));
  ASSERT_EQ(cfg.tenants.size(), 1u);
  const OpenLoopTenant& t = cfg.tenants[0];
  EXPECT_EQ(t.name, "burst-svc");
  EXPECT_EQ(t.app, "MC");
  EXPECT_EQ(t.arrival, ArrivalKind::kBursty);
  EXPECT_DOUBLE_EQ(t.rate_rps, 120.0);
  EXPECT_DOUBLE_EQ(t.burst_factor, 8.0);
  EXPECT_EQ(t.burst_on, sim::msec(200));
  EXPECT_EQ(t.burst_off, sim::msec(800));
  EXPECT_EQ(t.requests, 400);
  EXPECT_EQ(t.attach_at, 0);
  EXPECT_EQ(t.detach_at, sim::msec(1500));
  EXPECT_EQ(t.seed, 7u);
  EXPECT_DOUBLE_EQ(t.weight, 2.0);
}

TEST(ArrivalsScenario, BadTenantKeysThrow) {
  EXPECT_THROW(
      workloads::parse_scenario("[tenant]\nnot_a_key = 1\n"),
      workloads::ScenarioParseError);
  // Unknown app is validated at parse time (same contract as [stream]).
  EXPECT_THROW(workloads::parse_scenario("[tenant]\napp = NOPE\n"),
               std::invalid_argument);
  EXPECT_THROW(workloads::parse_scenario("mqfq_T = -1\n"),
               workloads::ScenarioParseError);
  EXPECT_THROW(
      workloads::parse_scenario(
          "[tenant]\napp = GA\narrival = trace\n"),
      workloads::ScenarioParseError);
}

}  // namespace
}  // namespace strings
