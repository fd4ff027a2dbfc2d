// Control-plane refactor tests: the distributed Affinity Mapper
// (PlacementService + per-node MapperAgents) must reproduce the centralized
// mapper exactly when the control plane costs nothing, degrade only within
// the configured staleness bound otherwise, and deliver every feedback
// record regardless of batching.
#include <gtest/gtest.h>

#include "core/control_plane.hpp"
#include "core/placement_service.hpp"
#include "workloads/service.hpp"
#include "workloads/testbed.hpp"

namespace strings::workloads {
namespace {

using core::ControlPlaneConfig;
using core::ControlPlaneStats;
using core::ControlTransport;
using core::PlacementMode;

// ---- wire-format round trips -------------------------------------------

TEST(ControlPlaneCodec, SnapshotRoundTrip) {
  core::GMap gmap;
  gmap.add_node(0, {gpu::quadro2000(), gpu::tesla_c2050()});
  gmap.add_node(1, {gpu::quadro4000()});
  core::DstSnapshot s;
  s.version = 42;
  s.taken_at = sim::msec(17);
  s.dst = core::DeviceStatusTable(gmap);
  s.dst.on_bind(1);
  s.dst.on_bind(1);
  s.dst.on_bind(2);
  s.bound_types = {{}, {"MC", "DC"}, {"BO"}};
  core::FeedbackRecord rec;
  rec.app_type = "MC";
  rec.exec_time_s = 1.5;
  rec.gpu_time_s = 1.0;
  rec.transfer_time_s = 0.25;
  rec.mem_bw_gbps = 30.0;
  rec.gpu_util = 0.8;
  rec.gid = 1;
  s.sft.update(rec);
  s.sft.update(rec);

  rpc::Marshal m;
  core::encode_snapshot(m, s);
  rpc::Unmarshal u(std::move(m).take());
  const core::DstSnapshot d = core::decode_snapshot(u);

  EXPECT_EQ(d.version, 42u);
  EXPECT_EQ(d.taken_at, sim::msec(17));
  ASSERT_EQ(d.dst.rows().size(), 3u);
  for (core::Gid g = 0; g < 3; ++g) {
    EXPECT_EQ(d.dst.row(g).load, s.dst.row(g).load) << g;
    EXPECT_DOUBLE_EQ(d.dst.row(g).weight, s.dst.row(g).weight) << g;
  }
  EXPECT_EQ(d.bound_types, s.bound_types);
  EXPECT_EQ(d.sft.entries(), s.sft.entries());
}

TEST(ControlPlaneCodec, ParseNames) {
  EXPECT_EQ(core::parse_placement_mode("distributed"),
            PlacementMode::kDistributed);
  EXPECT_EQ(core::parse_control_transport("Data_Plane"),
            ControlTransport::kDataPlane);
  EXPECT_THROW(core::parse_placement_mode("federated"), std::invalid_argument);
  EXPECT_THROW(core::parse_control_transport("carrier-pigeon"),
               std::invalid_argument);
}

// ---- deployment equivalence --------------------------------------------

std::vector<ArrivalConfig> mixed_streams() {
  ArrivalConfig a;
  a.app = "MC";
  a.origin = 0;
  a.requests = 6;
  a.lambda_scale = 0.4;
  a.seed = 7;
  a.tenant = "tenantA";
  ArrivalConfig b;
  b.app = "BS";
  b.origin = 1;
  b.requests = 6;
  b.lambda_scale = 0.4;
  b.seed = 11;
  b.tenant = "tenantB";
  return {a, b};
}

/// Runs the supernode scenario under `cp` and returns the authoritative
/// placement log (global decision order) plus the merged agent counters.
ControlPlaneStats run_supernode(const ControlPlaneConfig& cp,
                                const std::string& balancing = "GWtMin",
                                const std::string& feedback = "",
                                bool shared_network = false) {
  sim::Simulation sim;
  TestbedConfig cfg;
  cfg.mode = Mode::kStrings;
  cfg.nodes = supernode();
  cfg.balancing_policy = balancing;
  cfg.feedback_policy = feedback;
  cfg.shared_network = shared_network;
  cfg.control_plane = cp;
  Testbed bed(sim, cfg);
  auto stats = run_streams(bed, mixed_streams());
  for (const auto& st : stats) {
    EXPECT_EQ(st.completed, 6) << st.app;
    EXPECT_EQ(st.errors, 0) << st.app;
  }
  return bed.control_plane_stats();
}

TEST(ControlPlaneEquivalence, ZeroCostChannelsMatchDirectOracle) {
  ControlPlaneConfig oracle;
  oracle.transport = ControlTransport::kDirect;
  ControlPlaneConfig channels;
  channels.transport = ControlTransport::kZeroCost;

  const ControlPlaneStats a = run_supernode(oracle, "GWtMin", "MBF");
  const ControlPlaneStats b = run_supernode(channels, "GWtMin", "MBF");

  // Bit-for-bit: same (app, gid) placements in the same global order.
  EXPECT_EQ(a.placements, b.placements);
  // The oracle path never touches a channel; the channel path always does.
  EXPECT_GT(a.direct_calls, 0);
  EXPECT_EQ(a.select_rpcs, 0);
  EXPECT_GT(b.select_rpcs, 0);
  EXPECT_GT(b.bytes_sent, 0u);
}

TEST(ControlPlaneEquivalence, DistributedFreshMatchesCentralized) {
  // refresh_epoch = 0 forces a DST sync before every select, so agents
  // always decide on the service's current state. For stateless policies
  // the decisions must match the centralized deployment exactly.
  ControlPlaneConfig central;
  central.placement = PlacementMode::kCentralized;
  ControlPlaneConfig dist;
  dist.placement = PlacementMode::kDistributed;
  dist.refresh_epoch = 0;

  const ControlPlaneStats a = run_supernode(central, "GMin");
  const ControlPlaneStats b = run_supernode(dist, "GMin");
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_GT(b.sync_rpcs, 0);
  EXPECT_EQ(b.stale_hits, 0);
  // Bind reports ride one-way messages instead of select round-trips.
  EXPECT_EQ(b.select_rpcs, 0);
  EXPECT_GT(b.oneway_msgs, 0);
}

TEST(ControlPlaneStaleness, SnapshotAgeStaysWithinRefreshEpoch) {
  ControlPlaneConfig dist;
  dist.placement = PlacementMode::kDistributed;
  dist.refresh_epoch = sim::msec(250);

  const ControlPlaneStats s = run_supernode(dist, "GMin");
  EXPECT_GT(s.stale_hits, 0);
  EXPECT_LT(s.max_snapshot_age, sim::msec(250));
  // Stale selects skip the sync round-trip entirely.
  ControlPlaneConfig fresh = dist;
  fresh.refresh_epoch = 0;
  const ControlPlaneStats f = run_supernode(fresh, "GMin");
  EXPECT_LT(s.sync_rpcs, f.sync_rpcs);
}

TEST(ControlPlaneStaleness, PlacementsDivergeOnlyViaStaleSnapshots) {
  // A very generous staleness bound may change placements, but the run
  // still completes and binds only valid devices.
  ControlPlaneConfig dist;
  dist.placement = PlacementMode::kDistributed;
  dist.refresh_epoch = sim::sec(1000);
  const ControlPlaneStats s = run_supernode(dist, "GMin");
  EXPECT_EQ(s.sync_rpcs, 2);  // one initial pull per active node
  for (const auto& [app, gid] : s.placements) {
    EXPECT_GE(gid, 0);
    EXPECT_LT(gid, 4);
  }
}

// ---- data-plane transport ----------------------------------------------

TEST(ControlPlaneTransport, DataPlaneRunsOnSharedNetwork) {
  ControlPlaneConfig dp;
  dp.transport = ControlTransport::kDataPlane;
  const ControlPlaneStats s = run_supernode(dp, "GMin", "", true);
  EXPECT_GT(s.select_rpcs, 0);
  EXPECT_GT(s.bytes_sent, 0u);
  // Control packets now pay real latency: placements take non-zero time
  // from the remote node (the service lives on node 0).
  sim::SimTime max_latency = 0;
  for (const sim::SimTime t : s.placement_latencies) {
    max_latency = std::max(max_latency, t);
  }
  EXPECT_GT(max_latency, 0);
}

TEST(ControlPlaneTransport, ServiceNodePlacementValidated) {
  sim::Simulation sim;
  TestbedConfig cfg;
  cfg.nodes = small_server();
  cfg.control_plane.service_node = 5;
  EXPECT_THROW(Testbed bed(sim, cfg), std::invalid_argument);
}

TEST(ControlPlaneTransport, TimingKnobsValidated) {
  // A negative delay would schedule into the past, and an empty batch
  // would never ship.
  const auto rejects = [](auto set) {
    sim::Simulation sim;
    TestbedConfig cfg;
    cfg.nodes = small_server();
    cfg.control_plane.placement = PlacementMode::kDistributed;
    set(cfg.control_plane);
    EXPECT_THROW(Testbed bed(sim, cfg), std::invalid_argument);
  };
  rejects([](ControlPlaneConfig& c) { c.feedback_max_delay = -sim::msec(5); });
  rejects([](ControlPlaneConfig& c) { c.feedback_batch_size = 0; });
  rejects([](ControlPlaneConfig& c) { c.refresh_epoch = -sim::msec(1); });
}

// ---- feedback batching -------------------------------------------------

TEST(ControlPlaneFeedback, BatchedReportsAllReachTheService) {
  ControlPlaneConfig batched;
  batched.placement = PlacementMode::kDistributed;
  batched.feedback_batch_size = 4;
  // Records complete seconds apart, so a short flush delay would emit
  // singleton batches; a long delay lets the size trigger dominate.
  batched.feedback_max_delay = sim::sec(100);

  sim::Simulation sim;
  TestbedConfig cfg;
  cfg.mode = Mode::kStrings;
  cfg.nodes = supernode();
  cfg.balancing_policy = "GWtMin";
  cfg.feedback_policy = "MBF";
  cfg.control_plane = batched;
  Testbed bed(sim, cfg);
  auto stats = run_streams(bed, mixed_streams());
  for (const auto& st : stats) {
    EXPECT_EQ(st.completed, 6) << st.app;
    EXPECT_EQ(st.errors, 0) << st.app;
  }
  const ControlPlaneStats s = bed.control_plane_stats();
  // Every completed request produced one feedback record; batching may
  // coalesce them but must not drop any.
  EXPECT_EQ(s.feedback_records, 12);
  EXPECT_LT(s.feedback_batches, s.feedback_records);
  EXPECT_EQ(bed.mapper().sft().samples("MC"), 6);
  EXPECT_EQ(bed.mapper().sft().samples("BS"), 6);
}

TEST(ControlPlaneFeedback, UnbatchedFeedbackFlushesImmediately) {
  ControlPlaneConfig cp;
  cp.placement = PlacementMode::kDistributed;
  cp.feedback_batch_size = 1;
  const ControlPlaneStats s = run_supernode(cp, "GWtMin", "MBF");
  EXPECT_EQ(s.feedback_records, 12);
  EXPECT_EQ(s.feedback_batches, s.feedback_records);
}

// ---- direct service API (oracle, no simulation context) ----------------

TEST(PlacementServiceDirect, SnapshotVersionTracksMutations) {
  core::PlacementService::Config cfg;
  cfg.static_policy = "GMin";
  core::PlacementService svc(cfg);
  svc.report_node(0, {gpu::quadro2000(), gpu::tesla_c2050()});
  svc.finalize();
  const std::uint64_t v0 = svc.version();
  const core::Gid g = svc.select_device("MC", 0);
  EXPECT_GT(svc.version(), v0);
  const core::DstSnapshot snap = svc.snapshot(sim::msec(3));
  EXPECT_EQ(snap.version, svc.version());
  EXPECT_EQ(snap.taken_at, sim::msec(3));
  EXPECT_EQ(snap.dst.row(g).load, 1);
  svc.unbind(g, "MC");
  EXPECT_GT(svc.version(), snap.version);
  EXPECT_EQ(svc.dst().row(g).load, 0);
}

}  // namespace
}  // namespace strings::workloads
