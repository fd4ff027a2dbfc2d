// Stress/behaviour suite for the push-based DST delta invalidation
// protocol (kDstSubscribe / kDstDelta). The scenarios that matter:
//
//   - subscribe-on-first-use: the first distributed decision arms the
//     service's fan-out and installs a full snapshot (exactly one kDstSync
//     worth of sync traffic per agent);
//   - delta propagation: a mutation by one agent reaches every other
//     subscriber's cache without any further pulls;
//   - echo skip: the originating agent's optimistic cache update is not
//     double-applied when its own delta comes back;
//   - self-healing: injected delta drops force a version gap, which the
//     agent detects and heals with a full kDstSync pull (INV-DST-3 keeps
//     the applied sequence contiguous); injected delays reorder deltas on
//     the wire, and the straggler is discarded as stale after the gap pull
//     already covered its range;
//   - randomized drop/delay stress: seeded schedules of selects/unbinds
//     under a lossy, reordering fault hook must converge with zero
//     invariant violations once the faults stop.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/mapper_agent.hpp"
#include "core/placement_service.hpp"
#include "gpu/device_props.hpp"
#include "rpc/channel.hpp"
#include "simcore/simulation.hpp"

namespace strings::core {
namespace {

// Two nodes, two GPUs each, talking to the service over zero-cost links:
// deltas are delivered at their publish timestamp, so any decision at a
// strictly later time observes them after the drain at the top of select.
struct PushRig {
  explicit PushRig(ControlPlaneConfig cp, int nodes = 2,
                   PlacementService::Config svc_cfg = {}) : svc(svc_cfg) {
    cp.placement = PlacementMode::kDistributed;
    for (NodeId n = 0; n < nodes; ++n) {
      svc.report_node(n, {gpu::quadro2000(), gpu::tesla_c2050()});
    }
    svc.finalize();
    for (NodeId n = 0; n < nodes; ++n) {
      rpc::DuplexChannel& ch = svc.connect_agent(sim, n, rpc::LinkModel{});
      rpc::Channel* push = nullptr;
      if (cp.sync_mode == SyncMode::kPush) {
        push = &svc.connect_push(sim, n, rpc::LinkModel{});
      }
      channels.push_back(&ch);
      pushes.push_back(push);
      agents.push_back(
          std::make_unique<MapperAgent>(sim, n, svc, cp, &ch, push));
    }
  }

  // Runs `body` as the driver process; `step(agent)` inside it sleeps so
  // consecutive operations land at strictly increasing timestamps.
  template <typename Body>
  void drive(Body body) {
    sim.spawn("driver", [&] {
      sim::Event tick(sim);
      auto step = [&] { tick.wait_for(sim::msec(1)); };
      body(step);
    });
    sim.run();
  }

  // A cached snapshot must agree with the authoritative state once every
  // delta has been drained: every DST row, every GID's bound-app list and
  // every SFT entry.
  void expect_coherent(const MapperAgent& a) {
    const DstSnapshot& s = a.cached_snapshot();
    EXPECT_EQ(s.version, svc.version());
    ASSERT_EQ(s.dst.rows().size(), svc.dst().rows().size());
    for (const auto& want : svc.dst().rows()) {
      const DeviceStatus& got = s.dst.row(want.gid);
      EXPECT_EQ(got.load, want.load) << "gid " << want.gid;
      EXPECT_EQ(got.total_bound, want.total_bound) << "gid " << want.gid;
    }
    EXPECT_EQ(s.bound_types, svc.bound_types());
    EXPECT_EQ(s.sft.entries(), svc.sft().entries());
  }

  sim::Simulation sim;
  PlacementService svc;
  std::vector<std::unique_ptr<MapperAgent>> agents;
  std::vector<rpc::DuplexChannel*> channels;
  std::vector<rpc::Channel*> pushes;
};

ControlPlaneConfig push_config() {
  ControlPlaneConfig cp;
  cp.placement = PlacementMode::kDistributed;
  cp.sync_mode = SyncMode::kPush;
  // A pull agent would refresh before every one of these selects; push must
  // keep the cache current without ever hitting this epoch.
  cp.refresh_epoch = sim::sec(100);
  return cp;
}

TEST(PushSync, FirstSelectSubscribesAndInstallsASnapshot) {
  PushRig rig(push_config());
  rig.drive([&](auto& step) {
    rig.agents[0]->select_device("MC");
    step();
    rig.agents[1]->select_device("MC");
    step();
  });
  EXPECT_EQ(rig.svc.subscriber_count(), 2);
  for (const auto& a : rig.agents) {
    EXPECT_TRUE(a->subscribed());
    // The subscribe round trip is the only sync the whole run needs.
    EXPECT_EQ(a->stats().sync_rpcs, 1);
    EXPECT_EQ(a->stats().stale_hits, 0) << "push cache may not go stale";
  }
}

TEST(PushSync, DeltasPropagateEveryMutationToEverySubscriber) {
  PushRig rig(push_config());
  rig.drive([&](auto& step) {
    const Gid g = rig.agents[0]->select_device("MC");
    step();
    rig.agents[1]->select_device("BS");
    step();
    FeedbackRecord rec;
    rec.app_type = "MC";
    rec.exec_time_s = 0.25;
    rec.gpu_util = 0.5;
    rec.gid = g;
    rig.agents[0]->report_feedback(rec);  // a batch of one ships at once
    step();
    rig.agents[0]->select_device("DC");
    step();
    rig.agents[1]->select_device("MC");
    step();
  });
  for (auto& a : rig.agents) a->poll_push();
  EXPECT_EQ(rig.svc.version(), 5u);
  EXPECT_EQ(rig.svc.sft().samples("MC"), 1);
  EXPECT_GT(rig.svc.deltas_sent(), 0);
  EXPECT_EQ(rig.svc.deltas_dropped(), 0);
  for (auto& a : rig.agents) {
    SCOPED_TRACE(a->node());
    rig.expect_coherent(*a);
    EXPECT_EQ(a->stats().delta_gap_syncs, 0);
    EXPECT_EQ(a->stats().sync_rpcs, 1);
    EXPECT_GT(a->stats().deltas_applied, 0);
  }
}

TEST(PushSync, OwnEchoIsSkippedButStillAdvancesTheVersion) {
  // A single subscriber receives only its own echoes: every op inside them
  // must be skipped (the optimistic cache update already happened), yet the
  // version must advance so later foreign deltas apply cleanly.
  PushRig rig(push_config(), /*nodes=*/1);
  rig.drive([&](auto& step) {
    rig.agents[0]->select_device("MC");
    step();
    rig.agents[0]->select_device("MC");
    step();
    rig.agents[0]->select_device("BS");
    step();
  });
  rig.agents[0]->poll_push();
  // Double-applied echoes would double every load/total_bound count.
  rig.expect_coherent(*rig.agents[0]);
  EXPECT_EQ(rig.agents[0]->stats().deltas_applied, 3);
  EXPECT_EQ(rig.agents[0]->stats().delta_gap_syncs, 0);
}

TEST(PushSync, UnbindFlowsThroughDeltasToo) {
  PushRig rig(push_config());
  Gid g = -1;
  rig.drive([&](auto& step) {
    g = rig.agents[0]->select_device("MC");
    step();
    rig.agents[1]->select_device("MC");
    step();
    rig.agents[0]->unbind(g, "MC");
    step();
  });
  for (auto& a : rig.agents) a->poll_push();
  EXPECT_EQ(rig.svc.dst().row(g).load, 0);
  for (auto& a : rig.agents) {
    SCOPED_TRACE(a->node());
    rig.expect_coherent(*a);
  }
}

TEST(PushSync, StaleDeltaIsDroppedWithoutTouchingTheCache) {
  PushRig rig(push_config());
  rig.drive([&](auto& step) {
    rig.agents[0]->select_device("MC");
    step();
    rig.agents[1]->select_device("MC");
    step();
  });
  for (auto& a : rig.agents) a->poll_push();
  MapperAgent& a1 = *rig.agents[1];
  const std::uint64_t v = a1.cached_snapshot().version;
  const int load_before = a1.cached_snapshot().dst.row(0).load;

  DstDelta straggler;
  straggler.base_version = v - 1;
  straggler.new_version = v;  // range already covered
  DeltaOp op;
  op.kind = DeltaOp::Kind::kBind;
  op.gid = 0;
  op.app_type = "MC";
  straggler.ops.push_back(op);
  a1.debug_apply_delta(straggler);

  EXPECT_EQ(a1.stats().deltas_stale, 1);
  EXPECT_EQ(a1.cached_snapshot().version, v);
  EXPECT_EQ(a1.cached_snapshot().dst.row(0).load, load_before);
}

TEST(PushSync, DroppedDeltasForceAGapSyncThatHeals) {
  PushRig rig(push_config());
  analysis::Analyzer analyzer;
  analyzer.install(rig.sim);
  // Drop the first two deltas headed to node 1; deliver everything else.
  int dropped = 0;
  rig.svc.set_push_fault([&](NodeId agent, const DstDelta&) -> sim::SimTime {
    if (agent == 1 && dropped < 2) {
      ++dropped;
      return -1;
    }
    return 0;
  });
  rig.drive([&](auto& step) {
    rig.agents[1]->select_device("MC");  // subscribes before the faults hit
    step();
    rig.agents[0]->select_device("MC");  // delta to node 1 dropped
    step();
    rig.agents[0]->select_device("BS");  // delta to node 1 dropped
    step();
    rig.agents[0]->select_device("DC");  // delivered: base > cached -> gap
    step();
    rig.agents[1]->select_device("BS");  // drains, pulls, decides fresh
    step();
  });
  for (auto& a : rig.agents) a->poll_push();
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(rig.svc.deltas_dropped(), 2);
  const ControlPlaneStats s1 = rig.agents[1]->stats();
  EXPECT_GE(s1.delta_gap_syncs, 1);
  // subscribe + gap pull(s), nothing else.
  EXPECT_EQ(s1.sync_rpcs, 1 + s1.delta_gap_syncs);
  for (auto& a : rig.agents) {
    SCOPED_TRACE(a->node());
    rig.expect_coherent(*a);
  }
  // The heal path is legal: detected gaps pull instead of applying over
  // the hole, so INV-DST-3 (and everything else) stays clean.
  EXPECT_EQ(analyzer.report().invariant_violations(), 0);
  analyzer.uninstall();
}

TEST(PushSync, ReorderedStragglerIsDiscardedAfterTheGapPull) {
  PushRig rig(push_config());
  analysis::Analyzer analyzer;
  analyzer.install(rig.sim);
  // Delay the first delta to node 1 far enough that later deltas overtake
  // it on the wire: classic reordering.
  bool delayed_one = false;
  rig.svc.set_push_fault([&](NodeId agent, const DstDelta&) -> sim::SimTime {
    if (agent == 1 && !delayed_one) {
      delayed_one = true;
      return sim::msec(50);
    }
    return 0;
  });
  rig.drive([&](auto& step) {
    rig.agents[1]->select_device("MC");  // subscribe
    step();
    rig.agents[0]->select_device("MC");  // delta delayed 50 ms
    step();
    rig.agents[0]->select_device("BS");  // arrives first -> gap at node 1
    step();
    rig.agents[1]->select_device("DC");  // gap-detect, pull, decide fresh
    step();
  });
  // sim.run() returns only after the delayed send fired; drain it now.
  for (auto& a : rig.agents) a->poll_push();
  const ControlPlaneStats s1 = rig.agents[1]->stats();
  EXPECT_GE(s1.delta_gap_syncs, 1);
  EXPECT_GE(s1.deltas_stale, 1) << "the straggler must be discarded";
  for (auto& a : rig.agents) {
    SCOPED_TRACE(a->node());
    rig.expect_coherent(*a);
  }
  EXPECT_EQ(analyzer.report().invariant_violations(), 0);
  analyzer.uninstall();
}

TEST(PushSync, AgentWireTotalsEqualChannelSums) {
  // An agent's byte and packet gauges read totals its request, response
  // and push channels add into as they send.
  PushRig rig(push_config());
  rig.drive([&](auto& step) {
    const Gid g = rig.agents[0]->select_device("MC");
    step();
    rig.agents[1]->select_device("BS");
    step();
    rig.agents[0]->unbind(g, "MC");
    step();
  });
  for (std::size_t n = 0; n < rig.agents.size(); ++n) {
    SCOPED_TRACE(n);
    const rpc::DuplexChannel& ch = *rig.channels[n];
    const rpc::Channel& push = *rig.pushes[n];
    const std::uint64_t bytes =
        ch.request.bytes_sent() + ch.response.bytes_sent() + push.bytes_sent();
    const std::uint64_t packets = ch.request.packets_sent() +
                                  ch.response.packets_sent() +
                                  push.packets_sent();
    EXPECT_GT(push.packets_sent(), 0u);
    EXPECT_EQ(rig.agents[n]->bytes_sent(), bytes);
    EXPECT_EQ(rig.agents[n]->packets_sent(), packets);
  }
}

// ---- randomized drop/delay stress ----------------------------------------
//
// Seeded schedules of selects and unbinds from both agents while the fault
// hook drops ~25% of deltas and delays ~25% by 1..20 ms. The run must stay
// free of invariant violations (INV-DST-3 proves applied-version
// contiguity under every heal), and once the faults stop, one clean
// operation per agent must re-converge every cache to the authoritative
// version.
class PushStress : public ::testing::TestWithParam<unsigned> {};

TEST_P(PushStress, LossAndReorderingConvergeWithContiguousVersions) {
  PushRig rig(push_config());
  analysis::Analyzer analyzer;
  analyzer.install(rig.sim);

  std::mt19937 faults(GetParam() * 2654435761u + 17u);
  bool faults_on = true;
  rig.svc.set_push_fault([&](NodeId, const DstDelta&) -> sim::SimTime {
    if (!faults_on) return 0;
    const double p =
        std::uniform_real_distribution<double>(0.0, 1.0)(faults);
    if (p < 0.25) return -1;  // drop
    if (p < 0.50) {           // reorder: hold back 1..20 ms
      return sim::msec(std::uniform_int_distribution<int>(1, 20)(faults));
    }
    return 0;
  });

  std::mt19937 rng(GetParam());
  const char* apps[] = {"MC", "BS", "DC"};
  std::vector<std::vector<std::pair<std::string, Gid>>> bound(
      rig.agents.size());
  rig.drive([&](auto& step) {
    for (int op = 0; op < 40; ++op) {
      const auto who = std::uniform_int_distribution<std::size_t>(
          0, rig.agents.size() - 1)(rng);
      const bool do_unbind = !bound[who].empty() &&
          std::uniform_real_distribution<double>(0.0, 1.0)(rng) < 0.3;
      if (do_unbind) {
        const auto idx = std::uniform_int_distribution<std::size_t>(
            0, bound[who].size() - 1)(rng);
        auto [app, gid] = bound[who][idx];
        bound[who].erase(bound[who].begin() +
                         static_cast<std::ptrdiff_t>(idx));
        rig.agents[who]->unbind(gid, app);
      } else {
        const std::string app =
            apps[std::uniform_int_distribution<int>(0, 2)(rng)];
        const Gid gid = rig.agents[who]->select_device(app);
        ASSERT_GE(gid, 0);
        ASSERT_LT(gid, static_cast<Gid>(rig.svc.dst().rows().size()));
        bound[who].emplace_back(app, gid);
      }
      step();
    }
    // Faults off; one clean op per agent, then an in-process drain. The
    // second pass matters: a drop leaves no trace until a *later* delta
    // exposes the gap, and only a drain in process context can issue the
    // healing kDstSync pull (the clean ops generate exactly those later
    // deltas).
    faults_on = false;
    for (auto& a : rig.agents) {
      a->select_device("MC");
      step();
    }
    for (auto& a : rig.agents) a->poll_push();
  });
  for (auto& a : rig.agents) a->poll_push();

  EXPECT_GT(rig.svc.deltas_dropped(), 0) << "fault hook never fired";
  ControlPlaneStats total;
  for (auto& a : rig.agents) {
    SCOPED_TRACE(a->node());
    total.merge(a->stats());
    rig.expect_coherent(*a);
  }
  EXPECT_GT(total.delta_gap_syncs, 0) << "drops never forced a heal";
  // Every delta the service sent was either applied or discarded as stale;
  // none may vanish silently.
  EXPECT_LE(total.deltas_applied + total.deltas_stale,
            rig.svc.deltas_sent());
  // Note: logical_races() is not asserted here. Distributed runs report
  // service-table accesses from sibling serve daemons as unordered because
  // oneway posts (kBindReport) add no return edge to the event graph —
  // the same reason the clean-run contract in analysis_test checks
  // invariant violations only.
  EXPECT_EQ(analyzer.report().invariant_violations(), 0);
  analyzer.uninstall();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PushStress,
                         ::testing::Range(0u, 8u));

}  // namespace
}  // namespace strings::core
