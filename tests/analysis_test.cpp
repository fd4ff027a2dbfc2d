// Tests for the protocol analysis layer: negative paths (injected protocol
// violations must be detected, with the right invariant id and access
// site), happens-before race detection on synthetic schedules, and the
// clean-run contract (a correct end-to-end scenario reports zero invariant
// violations).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "core/gpu_scheduler.hpp"
#include "core/mapper_agent.hpp"
#include "core/placement_service.hpp"
#include "policies/device_policies.hpp"
#include "workloads/scenario_config.hpp"

namespace strings {
namespace {

analysis::Site here() { return analysis::Site{"analysis_test.cpp", 0}; }

// ---- invariant registry, driven through the real components -------------

class AnalysisInvariants : public ::testing::Test {
 protected:
  void SetUp() override { analyzer.install(sim); }
  sim::Simulation sim;
  analysis::Analyzer analyzer;
};

TEST_F(AnalysisInvariants, DuplicateAckViolatesRcbLifecycle) {
  core::GpuScheduler sched(sim, /*gid=*/0,
                           policies::make_device_policy("AllAwake"));
  core::WakeGate gate(sim);
  core::GpuScheduler::RcbInit init;
  init.app_type = "MC";
  init.tenant = "t0";
  init.gate = &gate;
  const int id = sched.register_app(init);
  sched.ack(id);
  EXPECT_FALSE(analyzer.report().has("INV-RCB-1"));
  sched.ack(id);  // handshake step 3 replayed
  EXPECT_TRUE(analyzer.report().has("INV-RCB-1", "gpu_scheduler.cpp"));
  EXPECT_EQ(analyzer.report().invariant_violations(), 1);
}

TEST_F(AnalysisInvariants, UnregisterBeforeAckViolatesRcbLifecycle) {
  core::GpuScheduler sched(sim, /*gid=*/1,
                           policies::make_device_policy("AllAwake"));
  core::WakeGate gate(sim);
  core::GpuScheduler::RcbInit init;
  init.app_type = "BS";
  init.tenant = "t1";
  init.gate = &gate;
  const int id = sched.register_app(init);
  sched.unregister_app(id);  // never acked
  EXPECT_TRUE(analyzer.report().has("INV-RCB-1", "gpu_scheduler.cpp"));
}

TEST_F(AnalysisInvariants, DispatchBeforeAckViolatesHandshake) {
  core::GpuScheduler sched(sim, /*gid=*/2,
                           policies::make_device_policy("AllAwake"));
  core::WakeGate gate(sim);
  core::GpuScheduler::RcbInit init;
  init.app_type = "DC";
  init.tenant = "t2";
  init.gate = &gate;
  const int id = sched.register_app(init);
  sched.notify_dispatch(id);  // out-of-order: gate cleared before step 3
  EXPECT_TRUE(analyzer.report().has("INV-HSK-1", "gpu_scheduler.cpp"));
  sched.ack(id);
  sched.notify_dispatch(id);  // now legal
  EXPECT_EQ(analyzer.report().invariant_violations(), 1);
}

TEST_F(AnalysisInvariants, StaleSnapshotInstallViolatesVersionBound) {
  core::PlacementService::Config cfg;
  cfg.static_policy = "GMin";
  core::PlacementService svc(cfg);
  svc.report_node(0, {gpu::quadro2000(), gpu::tesla_c2050()});
  svc.finalize();
  core::ControlPlaneConfig cp;
  cp.placement = core::PlacementMode::kDistributed;
  cp.transport = core::ControlTransport::kDirect;
  core::MapperAgent agent(sim, 0, svc, cp, nullptr);

  // A snapshot from the future: version beyond the authoritative one.
  core::DstSnapshot future;
  future.version = svc.version() + 7;
  agent.debug_install_snapshot(future);
  EXPECT_TRUE(analyzer.report().has("INV-DST-1", "mapper_agent.cpp"));
  EXPECT_EQ(analyzer.report().invariant_violations(), 1);

  // Advance the service past the cached version, then regress the agent.
  while (svc.version() < future.version) svc.select_device("MC", 0);
  core::DstSnapshot regressed;
  regressed.version = future.version - 3;
  agent.debug_install_snapshot(regressed);  // legal bound, broken monotonic
  EXPECT_TRUE(analyzer.report().has("INV-DST-2", "mapper_agent.cpp"));
  EXPECT_EQ(analyzer.report().invariant_violations(), 2);
}

TEST_F(AnalysisInvariants, ReorderedStreamOpViolatesSstOrder) {
  // The packer's public API cannot reorder a correct program, so the
  // injection goes straight at the checker's indexed seam.
  analysis::InvariantChecker& inv = analyzer.invariants();
  inv.stream_op_indexed(3, 1, /*app=*/9, /*op_index=*/1, here(), 0);
  inv.stream_op_indexed(3, 1, /*app=*/9, /*op_index=*/2, here(), 0);
  EXPECT_FALSE(analyzer.report().has("INV-SST-1"));
  inv.stream_op_indexed(3, 1, /*app=*/9, /*op_index=*/2, here(), 0);
  EXPECT_TRUE(analyzer.report().has("INV-SST-1", "analysis_test.cpp"));
}

TEST_F(AnalysisInvariants, ForeignAppOnPrivateStreamViolatesOwnership) {
  analysis::InvariantChecker& inv = analyzer.invariants();
  inv.stream_op_indexed(3, 1, /*app=*/9, /*op_index=*/1, here(), 0);
  inv.stream_op_indexed(3, 1, /*app=*/10, /*op_index=*/1, here(), 0);
  EXPECT_TRUE(analyzer.report().has("INV-SST-2"));
  // Destruction releases ownership: a recycled handle re-owns cleanly.
  inv.stream_destroyed(3, 1);
  inv.stream_op_indexed(3, 1, /*app=*/11, /*op_index=*/1, here(), 0);
  EXPECT_EQ(analyzer.report().invariant_violations(), 1);
}

TEST_F(AnalysisInvariants, GrrSpreadBeyondDeciderCountViolatesBound) {
  analysis::InvariantChecker& inv = analyzer.invariants();
  inv.set_grr_deciders(1);
  inv.grr_bind({3, 4, 3, 4}, here(), 0);  // spread 1: legal
  EXPECT_FALSE(analyzer.report().has("INV-GRR-1"));
  inv.grr_bind({3, 6, 3, 4}, here(), 0);  // spread 3 > 1 decider
  EXPECT_TRUE(analyzer.report().has("INV-GRR-1", "analysis_test.cpp"));
  inv.set_grr_deciders(4);
  inv.grr_bind({3, 6, 3, 4}, here(), 0);  // same spread, now within bound
  EXPECT_EQ(analyzer.report().invariant_violations(), 1);
}

TEST_F(AnalysisInvariants, DeltaAppliedOverAGapViolatesContiguity) {
  analysis::InvariantChecker& inv = analyzer.invariants();
  inv.delta_apply(1, /*cached=*/5, /*base=*/5, /*new=*/6, here(), 0);
  EXPECT_FALSE(analyzer.report().has("INV-DST-3"));
  // Cache at v6, delta starts at v8: versions 6..8 were never applied.
  inv.delta_apply(1, 6, 8, 9, here(), 0);
  EXPECT_TRUE(analyzer.report().has("INV-DST-3", "analysis_test.cpp"));
  EXPECT_EQ(analyzer.report().invariant_violations(), 1);
}

TEST_F(AnalysisInvariants, NonAdvancingDeltaViolatesContiguity) {
  analysis::InvariantChecker& inv = analyzer.invariants();
  inv.delta_apply(0, /*cached=*/4, /*base=*/3, /*new=*/4, here(), 0);
  EXPECT_TRUE(analyzer.report().has("INV-DST-3"));
  EXPECT_EQ(analyzer.report().invariant_violations(), 1);
}

TEST_F(AnalysisInvariants, LegalDeltaApplyFeedsTheMonotonicVersionHistory) {
  // A delta-driven advance must register with INV-DST-2: installing a full
  // snapshot *below* the delta's new version afterwards is a regression.
  analysis::InvariantChecker& inv = analyzer.invariants();
  inv.delta_apply(2, /*cached=*/5, /*base=*/5, /*new=*/9, here(), 0);
  EXPECT_EQ(analyzer.report().invariant_violations(), 0);
  inv.snapshot_install(2, /*version=*/7, /*authoritative=*/20, here(), 0);
  EXPECT_TRUE(analyzer.report().has("INV-DST-2"));
}

TEST_F(AnalysisInvariants, StripedGrrBoundsEachResidueClassSeparately) {
  analysis::InvariantChecker& inv = analyzer.invariants();
  inv.set_grr_deciders(2);
  inv.set_grr_striped(true);
  // 4 gids, 2 deciders -> d = 2 classes {0,2} and {1,3}, per-class bound 1.
  // Unequal issue rates skew class totals (0+2 = 12 vs 1+3 = 2): legal,
  // the global check would have fired at spread 5.
  inv.grr_bind({6, 1, 6, 1}, here(), 0);
  EXPECT_FALSE(analyzer.report().has("INV-GRR-1"));
  // Spread inside class {0,2} beyond the bound: a striped cursor cannot
  // produce it through in-order channels.
  inv.grr_bind({8, 1, 5, 1}, here(), 0);
  EXPECT_TRUE(analyzer.report().has("INV-GRR-1", "analysis_test.cpp"));
  EXPECT_EQ(analyzer.report().invariant_violations(), 1);
}

// ---- happens-before race detection ---------------------------------------

TEST_F(AnalysisInvariants, UnorderedWritesFromTwoProcessesAreARace) {
  int shared = 0;
  sim.spawn("writer-a", [&] {
    ANALYSIS_WRITE(&shared, "test/shared");
  });
  sim.spawn("writer-b", [&] {
    ANALYSIS_WRITE(&shared, "test/shared");
  });
  sim.run();
  EXPECT_TRUE(analyzer.report().has("RACE", "analysis_test.cpp"));
  EXPECT_GE(analyzer.report().logical_races(), 1);
  EXPECT_EQ(analyzer.report().invariant_violations(), 0);
}

TEST_F(AnalysisInvariants, MailboxDeliveryOrdersTheAccesses) {
  int shared = 0;
  sim::Mailbox<int> mb(sim);
  sim.spawn("producer", [&] {
    ANALYSIS_WRITE(&shared, "test/shared");
    mb.send(1);
  });
  sim.spawn("consumer", [&] {
    (void)mb.receive();
    ANALYSIS_WRITE(&shared, "test/shared");
  });
  sim.run();
  EXPECT_EQ(analyzer.report().logical_races(), 0);
}

TEST_F(AnalysisInvariants, ScheduledEventInheritsTheSchedulersClock) {
  int shared = 0;
  sim.spawn("scheduler", [&] {
    ANALYSIS_WRITE(&shared, "test/shared");
    sim.schedule(sim::usec(5), [&] {
      ANALYSIS_WRITE(&shared, "test/shared");  // ordered: capture edge
    });
  });
  sim.run();
  EXPECT_EQ(analyzer.report().logical_races(), 0);
}

// ---- report artifact ------------------------------------------------------

TEST_F(AnalysisInvariants, RenderedReportNamesSitesAndChains) {
  analyzer.invariants().stream_op_indexed(0, 1, 1, 2, here(), 0);
  analyzer.invariants().stream_op_indexed(0, 1, 1, 2, here(), 0);
  std::ostringstream os;
  analyzer.render(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# strings analysis report"), std::string::npos);
  EXPECT_NE(text.find("INV-SST-1"), std::string::npos);
  EXPECT_NE(text.find("analysis_test.cpp"), std::string::npos);
}

// ---- clean-run contract ---------------------------------------------------

const char kAnalyzedScenario[] = R"(
mode = strings
topology = supernode
balancing = GWtMin
feedback = MBF
shared_network = true
placement = distributed
control_transport = data_plane
service_node = 0
refresh_epoch_ms = 10000

[stream]
app = MC
origin = 0
requests = 4
lambda_scale = 0.35
server_threads = 4
tenant = pricing-svc

[stream]
app = BS
origin = 1
requests = 4
lambda_scale = 0.35
server_threads = 4
tenant = options-svc
)";

TEST(AnalysisEndToEnd, CleanDistributedRunHasNoInvariantViolations) {
  auto cfg = workloads::parse_scenario(std::string(kAnalyzedScenario));
  cfg.testbed.analyze = true;
  const auto result = workloads::run(cfg);
  EXPECT_EQ(result.invariant_violations, 0);
  for (const auto& s : result.streams) EXPECT_EQ(s.errors, 0);
}

TEST(AnalysisEndToEnd, ReportArtifactWrittenAndAnalyzeForcedOn) {
  const std::string path = ::testing::TempDir() + "/analysis_e2e_report.txt";
  // The analyzer is off in the config: a non-empty path must turn it on.
  const auto cfg = workloads::parse_scenario(std::string(kAnalyzedScenario));
  workloads::RunArtifacts artifacts;
  artifacts.analysis_path = path;
  const auto result = workloads::run(cfg, artifacts);
  EXPECT_EQ(result.invariant_violations, 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("# strings analysis report"), std::string::npos);
  EXPECT_NE(text.find("invariant_violations: 0"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace strings
