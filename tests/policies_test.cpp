// Unit tests for workload-balancing and device-scheduling policies as pure
// decision logic.
#include "policies/balancing.hpp"
#include "policies/device_policies.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string_view>
#include <vector>

#include "core/dst_snapshot.hpp"
#include "core/gpool.hpp"
#include "core/tables.hpp"
#include "device_policy_oracles.hpp"

namespace strings::policies {
namespace {

using core::FeedbackRecord;
using core::Gid;
using sim::msec;
using sim::usec;

// Two-node, four-GPU supernode mirroring the paper's testbed.
struct MapperFixture {
  MapperFixture() {
    gmap.add_node(0, {gpu::quadro2000(), gpu::tesla_c2050()});
    gmap.add_node(1, {gpu::quadro4000(), gpu::tesla_c2070()});
    view.dst = core::DeviceStatusTable(gmap);
    view.bound_types.assign(4, {});
  }
  BalanceInput input(const std::string& app = "MC", core::NodeId origin = 0) {
    BalanceInput in;
    in.gmap = &gmap;
    in.view = &view;
    in.app_type = app;
    in.origin_node = origin;
    return in;
  }
  void bind(Gid gid, const std::string& app) {
    view.dst.on_bind(gid);
    view.bound_types[static_cast<std::size_t>(gid)].push_back(app);
  }
  FeedbackRecord record(const std::string& app, double exec_s, double util,
                        double transfer_s, double bw) {
    FeedbackRecord r;
    r.app_type = app;
    r.exec_time_s = exec_s;
    r.gpu_time_s = exec_s * util;
    r.gpu_util = util;
    r.transfer_time_s = transfer_s;
    r.mem_bw_gbps = bw;
    return r;
  }
  core::GMap gmap;
  core::DstSnapshot view;
};

TEST(GrrPolicy, CyclesThroughAllGpus) {
  MapperFixture f;
  GrrPolicy p;
  EXPECT_EQ(p.select(f.input()), 0);
  EXPECT_EQ(p.select(f.input()), 1);
  EXPECT_EQ(p.select(f.input()), 2);
  EXPECT_EQ(p.select(f.input()), 3);
  EXPECT_EQ(p.select(f.input()), 0);
}

TEST(GMinPolicy, PicksLeastLoaded) {
  MapperFixture f;
  f.bind(0, "A");
  f.bind(0, "A");
  f.bind(1, "A");
  GMinPolicy p;
  // Loads: 2,1,0,0. GIDs 2 and 3 tie; origin node 1 makes both local;
  // lower gid wins.
  EXPECT_EQ(p.select(f.input("A", 1)), 2);
}

TEST(GMinPolicy, BreaksTiesPreferringLocalGpus) {
  MapperFixture f;
  GMinPolicy p;
  // All loads 0. From node 1, the local GPUs are gids 2 and 3.
  EXPECT_EQ(p.select(f.input("A", 1)), 2);
  EXPECT_EQ(p.select(f.input("A", 0)), 0);
}

TEST(GWtMinPolicy, AccountsForDeviceWeight) {
  MapperFixture f;
  // gid 0 = Quadro 2000 (weight .47), gid 1 = Tesla C2050 (weight 1.0).
  f.bind(0, "A");
  f.bind(1, "A");
  GWtMinPolicy p;
  // Post-placement scores: g0 (1+1)/.47=4.26, g1 2/1=2, g2 1/.48=2.08,
  // g3 1/1=1 -> gid 3 (the idle fast Tesla beats the idle slow Quadro).
  EXPECT_EQ(p.select(f.input("A", 0)), 3);
  f.bind(3, "A");
  // Scores: 4.26, 2, 2.08, 2 -> tie g1/g3 at 2; local (origin 0) wins.
  EXPECT_EQ(p.select(f.input("A", 0)), 1);
}

TEST(GWtMinPolicy, DoesNotDumpOnIdleSlowExecutor) {
  // A CPU pseudo-device (weight 0.05) must only win when every GPU queue
  // is ~20 deep.
  core::GMap gmap;
  auto cpu = gpu::cpu_executor();
  gmap.add_node(0, {gpu::tesla_c2050(), cpu});
  core::DstSnapshot view;
  view.dst = core::DeviceStatusTable(gmap);
  view.bound_types.resize(2);
  BalanceInput in;
  in.gmap = &gmap;
  in.view = &view;
  in.app_type = "A";
  GWtMinPolicy p;
  for (int i = 0; i < 19; ++i) {
    EXPECT_EQ(p.select(in), 0) << "request " << i;
    view.dst.on_bind(0);
  }
  // GPU score (19+1)/1 = 20 == CPU 1/0.05; tie-break: lower load wins (CPU).
  EXPECT_EQ(p.select(in), 1);
}

TEST(RtfPolicy, UsesMeasuredRuntimes) {
  MapperFixture f;
  f.view.sft.update(f.record("LONG", 50.0, 0.8, 0.1, 100));
  f.view.sft.update(f.record("SHORT", 2.0, 0.8, 0.1, 100));
  // gid 3 hosts a long app, gid 2 a short one; equal loads.
  f.bind(3, "LONG");
  f.bind(2, "SHORT");
  f.bind(0, "LONG");
  f.bind(1, "LONG");
  RtfPolicy p;
  // Device queues (exec time sums): g0=50/.47, g1=50, g2=2/.48, g3=50.
  EXPECT_EQ(p.select(f.input("SHORT", 0)), 2);
}

TEST(GufPolicy, AvoidsCollocatingHighUtilizationApps) {
  MapperFixture f;
  f.view.sft.update(f.record("HOG", 10.0, 0.95, 0.1, 100));
  f.view.sft.update(f.record("LIGHT", 10.0, 0.05, 0.1, 100));
  f.bind(0, "HOG");
  f.bind(1, "LIGHT");
  f.bind(2, "HOG");
  f.bind(3, "HOG");
  GufPolicy p;
  // New HOG should land with LIGHT (gid 1).
  EXPECT_EQ(p.select(f.input("HOG", 0)), 1);
}

TEST(DtfPolicy, CollocatesContrastingTransferProfiles) {
  MapperFixture f;
  // Transfer-heavy app: most of exec time in copies, low gpu util.
  f.view.sft.update(f.record("XFER", 10.0, 0.1, 9.0, 100));
  // Compute-heavy app: negligible transfer.
  f.view.sft.update(f.record("COMP", 10.0, 0.9, 0.05, 100));
  f.bind(0, "COMP");
  f.bind(1, "XFER");
  f.bind(2, "COMP");
  f.bind(3, "COMP");
  DtfPolicy p;
  // A new COMP app contrasts most with XFER on gid 1.
  EXPECT_EQ(p.select(f.input("COMP", 0)), 1);
  // A new XFER app contrasts with COMP; similarity lowest on a COMP-only
  // device local to origin 0 -> gid 0.
  EXPECT_EQ(p.select(f.input("XFER", 0)), 0);
}

TEST(MbfPolicy, SpreadsBandwidthBoundApps) {
  MapperFixture f;
  f.view.sft.update(f.record("BWHOG", 10.0, 0.5, 0.1, 130.0));
  f.view.sft.update(f.record("CALM", 10.0, 0.5, 0.1, 1.0));
  f.bind(1, "BWHOG");  // Tesla C2050, 144 GB/s
  f.bind(3, "CALM");   // Tesla C2070, 144 GB/s
  MbfPolicy p;
  // New BWHOG: gid 1 already saturated; gid 3 hosts a calm app. Quadros
  // (41.6 / 89.6 GB/s) are denominator-weaker. Expect gid 3.
  EXPECT_EQ(p.select(f.input("BWHOG", 0)), 3);
}

TEST(FeedbackPolicies, FallBackGracefullyWithoutRecords) {
  MapperFixture f;
  // No SFT rows at all: neutral defaults everywhere; selection must still
  // return a valid GID.
  for (const char* name : {"RTF", "GUF", "DTF", "MBF"}) {
    auto p = make_balancing_policy(name);
    const Gid gid = p->select(f.input("UNKNOWN", 0));
    EXPECT_GE(gid, 0);
    EXPECT_LT(gid, 4);
  }
}

TEST(BalancingFactory, MakesAllPoliciesAndRejectsUnknown) {
  for (const char* name : {"GRR", "GMin", "GWtMin", "RTF", "GUF", "DTF", "MBF"}) {
    auto p = make_balancing_policy(name);
    EXPECT_STREQ(p->name(), name);
  }
  EXPECT_THROW(make_balancing_policy("bogus"), std::invalid_argument);
}

// ---------------------------------------------------------------- device --

RcbSnapshot snap(std::uint64_t key, sim::SimTime total, double cgs,
                 Phase phase = Phase::kDefault, bool backlogged = true,
                 sim::SimTime entitled = 0, double weight = 1.0) {
  RcbSnapshot s;
  s.key = key;
  s.total_service = total;
  s.cgs = cgs;
  s.phase = phase;
  s.backlogged = backlogged;
  s.entitled = entitled;
  s.tenant_weight = weight;
  return s;
}

TEST(AllAwakePolicy, WakesEveryone) {
  AllAwakePolicy p;
  auto awake = p.pick_awake({snap(1, 0, 0), snap(2, 0, 0), snap(3, 0, 0)});
  EXPECT_EQ(awake.size(), 3u);
}

TEST(TfsPolicy, WakesLargestDeficit) {
  TfsPolicy p;
  // Entitled 10ms each; app 1 consumed 8ms, app 2 consumed 2ms.
  auto awake = p.pick_awake({snap(1, msec(8), 0, Phase::kDefault, true, msec(10)),
                             snap(2, msec(2), 0, Phase::kDefault, true, msec(10))});
  ASSERT_EQ(awake.size(), 1u);
  EXPECT_EQ(awake[0], 2u);
}

TEST(TfsPolicy, PenalizesOvershootersAcrossEpochs) {
  TfsPolicy p;
  // App 1 overshot: used 30ms against 20ms entitlement. App 2 used 15ms.
  auto awake = p.pick_awake({snap(1, msec(30), 0, Phase::kDefault, true, msec(20)),
                             snap(2, msec(15), 0, Phase::kDefault, true, msec(20))});
  ASSERT_EQ(awake.size(), 1u);
  EXPECT_EQ(awake[0], 2u);
}

TEST(TfsPolicy, SkipsIdleTenants) {
  TfsPolicy p;
  auto awake = p.pick_awake({snap(1, 0, 0, Phase::kDefault, false, msec(50)),
                             snap(2, msec(40), 0, Phase::kDefault, true, msec(10))});
  ASSERT_EQ(awake.size(), 1u);
  EXPECT_EQ(awake[0], 2u);  // work conserving: idle tenant's share unused
}

TEST(TfsPolicy, NoBackloggedMeansNobodyAwake) {
  TfsPolicy p;
  EXPECT_TRUE(p.pick_awake({snap(1, 0, 0, Phase::kDefault, false)}).empty());
}

TEST(LasPolicy, AdmitsLeastAttainedFirst) {
  LasPolicy p;
  auto awake = p.pick_awake({snap(1, msec(50), 5e6), snap(2, msec(50), 1e6),
                             snap(3, msec(50), 3e6), snap(4, msec(50), 9e6)});
  // Top-3 window by least CGS, most-deserving first; the worst hog sleeps.
  ASSERT_EQ(awake.size(), 3u);
  EXPECT_EQ(awake[0], 2u);
  EXPECT_EQ(awake[1], 3u);
  EXPECT_EQ(awake[2], 1u);
}

TEST(LasPolicy, StarvesTheHighestAttainedThread) {
  LasPolicy p;
  auto awake = p.pick_awake({snap(1, 0, 1.0), snap(2, 0, 2.0),
                             snap(3, 0, 3.0), snap(4, 0, 4.0)});
  EXPECT_EQ(awake.size(), 3u);
  EXPECT_TRUE(std::find(awake.begin(), awake.end(), 4u) == awake.end());
}

TEST(LasPolicy, IgnoresIdleThreads) {
  LasPolicy p;
  auto awake = p.pick_awake({snap(1, 0, 0.0, Phase::kDefault, false),
                             snap(2, 0, 9e9, Phase::kDefault, true)});
  ASSERT_EQ(awake.size(), 1u);  // only the backlogged thread is admitted
  EXPECT_EQ(awake[0], 2u);
}

TEST(PsPolicy, PicksOneThreadPerPhase) {
  PsPolicy p;
  auto awake = p.pick_awake({snap(1, 0, 0, Phase::kKernelLaunch),
                             snap(2, 0, 0, Phase::kH2D),
                             snap(3, 0, 0, Phase::kD2H),
                             snap(4, 0, 0, Phase::kKernelLaunch)});
  ASSERT_EQ(awake.size(), 3u);
  EXPECT_TRUE(std::find(awake.begin(), awake.end(), 1u) != awake.end());
  EXPECT_TRUE(std::find(awake.begin(), awake.end(), 2u) != awake.end());
  EXPECT_TRUE(std::find(awake.begin(), awake.end(), 3u) != awake.end());
}

TEST(PsPolicy, FillsMissingPhasesByPriority) {
  PsPolicy p;
  // No D2H thread: the third slot goes to another KL thread (KL > DFL).
  auto awake = p.pick_awake({snap(1, 0, 0, Phase::kKernelLaunch),
                             snap(2, 0, 0, Phase::kH2D),
                             snap(3, 0, 0, Phase::kDefault),
                             snap(4, 0, 0, Phase::kKernelLaunch)});
  ASSERT_EQ(awake.size(), 3u);
  EXPECT_TRUE(std::find(awake.begin(), awake.end(), 4u) != awake.end());
  EXPECT_TRUE(std::find(awake.begin(), awake.end(), 3u) == awake.end());
}

TEST(PsPolicy, PrefersLeastServiceWithinPhase) {
  PsPolicy p;
  auto awake = p.pick_awake({snap(1, msec(90), 0, Phase::kKernelLaunch),
                             snap(2, msec(10), 0, Phase::kKernelLaunch)});
  // Only KL phase present: first slot goes to least-attained (2), then the
  // fill loop adds 1.
  ASSERT_GE(awake.size(), 1u);
  EXPECT_EQ(awake[0], 2u);
}

TEST(PsPolicy, OnlyDefaultPhaseStillWakesUpToThree) {
  PsPolicy p;
  auto awake = p.pick_awake({snap(1, 0, 0, Phase::kDefault),
                             snap(2, 0, 0, Phase::kDefault),
                             snap(3, 0, 0, Phase::kDefault),
                             snap(4, 0, 0, Phase::kDefault)});
  EXPECT_EQ(awake.size(), 3u);
}

// The top-3 selections must pick exactly what a stable sort of every
// backlogged entry picked, including among equal keys. Snapshots of 0-40
// entries draw cgs / total_service from a handful of values so ties are
// the norm; keys are unique and ascending, as the dispatcher's are.
TEST(DevicePolicyOracles, LasAndPsMatchStableSortOnEveryDecision) {
  std::mt19937 rng(20240611);
  LasPolicy las;
  PsPolicy ps;
  for (int round = 0; round < 5000; ++round) {
    const int n = static_cast<int>(rng() % 41);
    const int distinct = 1 + static_cast<int>(rng() % 4);
    std::vector<RcbSnapshot> rcb;
    std::uint64_t key = rng() % 5;
    for (int i = 0; i < n; ++i) {
      key += 1 + rng() % 3;
      rcb.push_back(snap(key, msec(static_cast<int>(rng() % distinct)),
                         0.5 * static_cast<double>(rng() % distinct),
                         static_cast<Phase>(rng() % 4),
                         /*backlogged=*/rng() % 4 != 0));
    }
    ASSERT_EQ(las.pick_awake(rcb), testing_oracle::stable_sort_las(rcb))
        << "round " << round;
    ASSERT_EQ(ps.pick_awake(rcb), testing_oracle::stable_sort_ps(rcb))
        << "round " << round;
  }
}

// settled(): whether every later decision over inputs that move only as
// quiet epochs move them (CGS decays, entitlement accrues) returns the
// last decision's awake set.

TEST(DevicePolicySettled, PsAlwaysTfsWithAtMostOneBackloggedEntry) {
  PsPolicy ps;
  ps.pick_awake({snap(1, msec(2), 0, Phase::kKernelLaunch),
                 snap(2, 0, 0, Phase::kH2D), snap(3, 0, 0), snap(4, 0, 0)});
  EXPECT_TRUE(ps.settled(msec(10)));

  TfsPolicy tfs;
  tfs.pick_awake({snap(1, 0, 0), snap(2, 0, 0, Phase::kDefault, false)});
  EXPECT_TRUE(tfs.settled(msec(10)));
  // Two backlogged tenants of weights 3 and 1: their entitlements grow
  // 7.5 and 2.5 ms an epoch, so the larger deficit changes hands.
  std::vector<RcbSnapshot> two = {
      snap(1, msec(8), 0, Phase::kDefault, true, msec(10), 3.0),
      snap(2, msec(2), 0, Phase::kDefault, true, msec(10), 1.0)};
  EXPECT_EQ(tfs.pick_awake(two), (std::vector<std::uint64_t>{2}));
  EXPECT_FALSE(tfs.settled(msec(10)));
  for (int epoch = 0; epoch < 2; ++epoch) {
    two[0].entitled += usec(7500);
    two[1].entitled += usec(2500);
  }
  EXPECT_EQ(tfs.pick_awake(two), (std::vector<std::uint64_t>{1}));
}

TEST(DevicePolicySettled, LasTiesAfterDecayGoToTheLowerKey) {
  // Key 4's CGS is the double just below key 1's, so LAS picks 2, 3, 4 and
  // leaves key 1 out: a picked key above an unpicked one.
  LasPolicy las;
  std::vector<RcbSnapshot> rcb = {snap(1, 0, 1.0), snap(2, 0, 0.0),
                                  snap(3, 0, 0.0),
                                  snap(4, 0, std::nextafter(1.0, 0.0))};
  EXPECT_EQ(las.pick_awake(rcb), (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_FALSE(las.settled(msec(10)));
  // Quiet epochs decay every CGS by the same factor, with the Dispatcher's
  // expression. Rounding makes the two values meet, and the tie goes to
  // key 1.
  const double k = 0.8;
  int epochs = 0;
  while (rcb[0].cgs != rcb[3].cgs && epochs < 2000) {
    for (RcbSnapshot& s : rcb) s.cgs = k * 0.0 + (1.0 - k) * s.cgs;
    ++epochs;
  }
  ASSERT_EQ(rcb[0].cgs, rcb[3].cgs);
  EXPECT_EQ(las.pick_awake(rcb), (std::vector<std::uint64_t>{2, 3, 1}));

  // Every picked key below every unpicked backlogged one: ties keep them.
  las.pick_awake({snap(1, 0, 0.0), snap(2, 0, 0.5),
                  snap(3, 0, std::nextafter(1.0, 0.0)), snap(4, 0, 1.0),
                  snap(5, 0, 0.0, Phase::kDefault, false)});
  EXPECT_TRUE(las.settled(msec(10)));
}

RcbSnapshot flow_snap(std::uint64_t key, std::uint32_t tenant_id,
                      std::string_view tenant) {
  RcbSnapshot s = snap(key, 0, 0);
  s.tenant_id = tenant_id;
  s.tenant = tenant;
  return s;
}

TEST(DevicePolicySettled, MqfqOnceItsStickySlotsHaveExpired) {
  const std::vector<RcbSnapshot> rcb = {flow_snap(1, 0, "a"),
                                        flow_snap(2, 1, "b")};
  MqfqConfig cfg;
  cfg.slots = 1;
  cfg.sticky_window = msec(2);
  MqfqStickyPolicy mqfq(cfg);
  mqfq.pick_awake(rcb, msec(10));  // no flow holds a slot yet
  EXPECT_TRUE(mqfq.settled(msec(20)));
  EXPECT_FALSE(mqfq.settled(msec(11)));  // the slot holds until 12 ms
  // Decided inside the slot: the sticky flow ranked first.
  mqfq.pick_awake(rcb, msec(11));
  EXPECT_FALSE(mqfq.settled(msec(21)));

  // Slots that outlast the epoch: never settled.
  cfg.sticky_window = msec(20);
  MqfqStickyPolicy sticky(cfg);
  for (sim::SimTime t = msec(10); t <= msec(100); t += msec(10)) {
    sticky.pick_awake(rcb, t);
    EXPECT_FALSE(sticky.settled(t + msec(10)));
  }
}

TEST(DevicePolicyFactory, MakesAllAndRejectsUnknown) {
  for (const char* name : {"AllAwake", "TFS", "LAS", "PS"}) {
    auto p = make_device_policy(name);
    EXPECT_STREQ(p->name(), name);
  }
  EXPECT_THROW(make_device_policy("bogus"), std::invalid_argument);
}

TEST(PhaseName, AllNamed) {
  EXPECT_STREQ(phase_name(Phase::kKernelLaunch), "KL");
  EXPECT_STREQ(phase_name(Phase::kH2D), "H2D");
  EXPECT_STREQ(phase_name(Phase::kD2H), "D2H");
  EXPECT_STREQ(phase_name(Phase::kDefault), "DFL");
}

}  // namespace
}  // namespace strings::policies
