// Unit tests for the core Strings infrastructure: gMap/gPool, DST, SFT,
// the PlacementService (Target GPU Selector + Policy Arbiter, exercised via
// its direct oracle API), and the per-device GPU scheduler (RM handshake,
// dispatcher gating, RMO accounting, FE records).
#include "core/placement_service.hpp"
#include "core/gpu_scheduler.hpp"
#include "core/gpool.hpp"
#include "core/tables.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <initializer_list>

namespace strings::core {
namespace {

using policies::Phase;
using sim::msec;
using sim::sec;

/// Sets `b` to `count`, as its owners' adds would.
void set_backlog(sim::Backlog& b, int count) { b.add(count - b.count()); }

/// Sets each backlog of `bs` to its count in `counts`.
void set_backlogs(std::deque<sim::Backlog>& bs,
                  std::initializer_list<int> counts) {
  auto b = bs.begin();
  for (const int c : counts) set_backlog(*b++, c);
}

TEST(GMap, AssignsSequentialGids) {
  GMap m;
  auto a = m.add_node(0, {gpu::quadro2000(), gpu::tesla_c2050()});
  auto b = m.add_node(1, {gpu::quadro4000()});
  EXPECT_EQ(a, (std::vector<Gid>{0, 1}));
  EXPECT_EQ(b, (std::vector<Gid>{2}));
  EXPECT_EQ(m.size(), 3);
  EXPECT_EQ(m.entry(2).node, 1);
  EXPECT_EQ(m.entry(2).local_device, 0);
  EXPECT_EQ(m.entry(0).props.name, "Quadro 2000");
  EXPECT_THROW(m.entry(5), std::out_of_range);
}

TEST(GMap, GidsOnNode) {
  GMap m;
  m.add_node(0, {gpu::quadro2000(), gpu::tesla_c2050()});
  m.add_node(1, {gpu::quadro4000(), gpu::tesla_c2070()});
  EXPECT_EQ(m.gids_on_node(0), (std::vector<Gid>{0, 1}));
  EXPECT_EQ(m.gids_on_node(1), (std::vector<Gid>{2, 3}));
}

TEST(GMap, WeightsTrackComputeScore) {
  GMap m;
  m.add_node(0, {gpu::quadro2000(), gpu::tesla_c2050()});
  EXPECT_DOUBLE_EQ(m.entry(0).weight, 0.47);
  EXPECT_DOUBLE_EQ(m.entry(1).weight, 1.0);
}

TEST(DeviceStatusTable, BindUnbindTracksLoad) {
  GMap m;
  m.add_node(0, {gpu::tesla_c2050(), gpu::tesla_c2070()});
  DeviceStatusTable dst(m);
  dst.on_bind(0);
  dst.on_bind(0);
  dst.on_bind(1);
  EXPECT_EQ(dst.row(0).load, 2);
  EXPECT_EQ(dst.row(1).load, 1);
  EXPECT_EQ(dst.row(0).total_bound, 2);
  dst.on_unbind(0);
  EXPECT_EQ(dst.row(0).load, 1);
  dst.on_unbind(0);
  dst.on_unbind(0);  // extra unbind must not go negative
  EXPECT_EQ(dst.row(0).load, 0);
}

TEST(SchedulerFeedbackTable, FirstRecordStoredVerbatim) {
  SchedulerFeedbackTable sft;
  FeedbackRecord r;
  r.app_type = "MC";
  r.exec_time_s = 4.0;
  r.gpu_util = 0.8;
  sft.update(r);
  auto got = sft.lookup("MC");
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->exec_time_s, 4.0);
  EXPECT_DOUBLE_EQ(got->gpu_util, 0.8);
  EXPECT_EQ(sft.samples("MC"), 1);
  EXPECT_FALSE(sft.lookup("BS").has_value());
}

TEST(SchedulerFeedbackTable, EwmaSmoothsSubsequentRecords) {
  SchedulerFeedbackTable sft(0.5);
  FeedbackRecord r;
  r.app_type = "MC";
  r.exec_time_s = 4.0;
  sft.update(r);
  r.exec_time_s = 8.0;
  sft.update(r);
  EXPECT_DOUBLE_EQ(sft.lookup("MC")->exec_time_s, 6.0);
  EXPECT_EQ(sft.samples("MC"), 2);
}

struct MapperFixture {
  MapperFixture(const std::string& stat, const std::string& fb) {
    PlacementService::Config cfg;
    cfg.static_policy = stat;
    cfg.feedback_policy = fb;
    mapper = std::make_unique<PlacementService>(cfg);
    mapper->report_node(0, {gpu::quadro2000(), gpu::tesla_c2050()});
    mapper->report_node(1, {gpu::quadro4000(), gpu::tesla_c2070()});
    mapper->finalize();
  }
  std::unique_ptr<PlacementService> mapper;
};

TEST(PlacementService, SelectBindsAndUnbindReleases) {
  MapperFixture f("GMin", "");
  const Gid g1 = f.mapper->select_device("MC", 0);
  EXPECT_EQ(f.mapper->dst().row(g1).load, 1);
  EXPECT_EQ(f.mapper->bound_types()[static_cast<std::size_t>(g1)].size(), 1u);
  f.mapper->unbind(g1, "MC");
  EXPECT_EQ(f.mapper->dst().row(g1).load, 0);
  EXPECT_TRUE(f.mapper->bound_types()[static_cast<std::size_t>(g1)].empty());
}

TEST(PlacementService, GMinSpreadsLoad) {
  MapperFixture f("GMin", "");
  std::vector<int> loads(4, 0);
  for (int i = 0; i < 8; ++i) {
    ++loads[static_cast<std::size_t>(f.mapper->select_device("MC", 0))];
  }
  for (int l : loads) EXPECT_EQ(l, 2);
}

TEST(PlacementService, ArbiterSwitchesToFeedbackPolicyAfterFirstRecord) {
  MapperFixture f("GWtMin", "MBF");
  EXPECT_STREQ(f.mapper->active_policy_name("MC"), "GWtMin");
  f.mapper->select_device("MC", 0);
  EXPECT_EQ(f.mapper->static_selections(), 1);

  FeedbackRecord r;
  r.app_type = "MC";
  r.exec_time_s = 2.0;
  r.gpu_time_s = 1.5;
  r.gpu_util = 0.75;
  r.mem_bw_gbps = 120.0;
  f.mapper->on_feedback(r);

  EXPECT_STREQ(f.mapper->active_policy_name("MC"), "MBF");
  EXPECT_STREQ(f.mapper->active_policy_name("BS"), "GWtMin");  // no data yet
  f.mapper->select_device("MC", 0);
  EXPECT_EQ(f.mapper->feedback_selections(), 1);
}

TEST(PlacementService, ArbiterHonorsMinSampleThreshold) {
  PlacementService::Config cfg;
  cfg.static_policy = "GWtMin";
  cfg.feedback_policy = "RTF";
  cfg.min_feedback_samples = 3;
  PlacementService m(cfg);
  m.report_node(0, {gpu::tesla_c2050(), gpu::tesla_c2070()});
  m.finalize();
  FeedbackRecord r;
  r.app_type = "MC";
  r.exec_time_s = 1.0;
  m.on_feedback(r);
  m.on_feedback(r);
  EXPECT_STREQ(m.active_policy_name("MC"), "GWtMin");  // 2 of 3 samples
  m.on_feedback(r);
  EXPECT_STREQ(m.active_policy_name("MC"), "RTF");
}

TEST(PlacementService, FinalizeWithNoDevicesThrows) {
  PlacementService::Config cfg;
  PlacementService m(cfg);
  EXPECT_THROW(m.finalize(), std::logic_error);
}

TEST(PlacementService, ReportAfterFinalizeThrows) {
  MapperFixture f("GRR", "");
  EXPECT_THROW(f.mapper->report_node(2, {gpu::tesla_c2050()}),
               std::logic_error);
}

// ------------------------------------------------------------ scheduler --

struct SchedFixture {
  SchedFixture(const std::string& policy_name,
               GpuScheduler::Config cfg = GpuScheduler::Config{})
      : sched(sim, 0, policies::make_device_policy(policy_name), cfg) {}
  sim::Simulation sim;
  GpuScheduler sched;
};

gpu::GpuDevice::Op make_op(gpu::GpuDevice::OpKind kind, sim::SimTime start,
                           sim::SimTime end, double bw = 0.0,
                           sim::SimTime nominal = 0) {
  gpu::GpuDevice::Op op;
  op.kind = kind;
  op.submitted = start;
  op.started = start;
  op.completed = end;
  op.kernel.bw_demand_gbps = bw;
  op.kernel.nominal_duration = nominal;
  return op;
}

TEST(GpuScheduler, RegistrationHandshake) {
  SchedFixture f("AllAwake");
  WakeGate gate(f.sim);
  GpuScheduler::RcbInit init;
  init.app_type = "MC";
  init.tenant = "A";
  init.gate = &gate;
  const int id = f.sched.register_app(init);
  EXPECT_GT(id, 0);
  EXPECT_EQ(f.sched.registered_count(), 1);
  // Before ack, the entry does not participate in dispatching.
  EXPECT_TRUE(f.sched.snapshot().empty());
  f.sched.ack(id);
  EXPECT_EQ(f.sched.snapshot().size(), 1u);
  const auto rec = f.sched.unregister_app(id);
  EXPECT_EQ(rec.app_type, "MC");
  EXPECT_EQ(f.sched.registered_count(), 0);
}

TEST(GpuScheduler, MonitorAccumulatesServiceByKind) {
  SchedFixture f("AllAwake");
  WakeGate gate(f.sim);
  GpuScheduler::RcbInit init;
  init.app_type = "MC";
  init.gate = &gate;
  const int id = f.sched.register_app(init);
  f.sched.ack(id);
  f.sched.on_op_complete(
      id, make_op(gpu::GpuDevice::OpKind::kKernel, 0, msec(10), 100.0, msec(10)));
  f.sched.on_op_complete(id,
                         make_op(gpu::GpuDevice::OpKind::kH2D, msec(10), msec(14)));
  EXPECT_EQ(f.sched.service_attained(id), msec(14));
  const auto rec = f.sched.unregister_app(id);
  EXPECT_DOUBLE_EQ(rec.gpu_time_s, 0.010);
  EXPECT_DOUBLE_EQ(rec.transfer_time_s, 0.004);
  // bytes = 100 GB/s * 10ms = 1e9 bytes over 10ms gpu time = 100 GB/s.
  EXPECT_NEAR(rec.mem_bw_gbps, 100.0, 1e-9);
}

TEST(GpuScheduler, RainAccountingIncludesQueueingTime) {
  GpuScheduler::Config cfg;
  cfg.measure_includes_wait = true;
  SchedFixture f("AllAwake", cfg);
  WakeGate gate(f.sim);
  GpuScheduler::RcbInit init;
  init.gate = &gate;
  const int id = f.sched.register_app(init);
  f.sched.ack(id);
  auto op = make_op(gpu::GpuDevice::OpKind::kKernel, msec(5), msec(10));
  op.submitted = 0;  // waited 5ms behind another context
  f.sched.on_op_complete(id, op);
  EXPECT_EQ(f.sched.service_attained(id), msec(10));  // includes the wait
}

TEST(GpuScheduler, FeedbackSinkInvokedOnUnregister) {
  SchedFixture f("AllAwake");
  std::vector<FeedbackRecord> got;
  f.sched.set_feedback_sink([&](const FeedbackRecord& r) { got.push_back(r); });
  WakeGate gate(f.sim);
  GpuScheduler::RcbInit init;
  init.app_type = "BS";
  init.gate = &gate;
  const int id = f.sched.register_app(init);
  f.sched.ack(id);
  f.sched.unregister_app(id);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].app_type, "BS");
  EXPECT_EQ(got[0].gid, 0);
}

TEST(GpuScheduler, AllAwakeRunsNoDispatcher) {
  SchedFixture f("AllAwake");
  std::vector<FeedbackRecord> got;
  f.sched.set_feedback_sink([&](const FeedbackRecord& r) { got.push_back(r); });
  std::deque<sim::Backlog> backlog(3);
  set_backlogs(backlog, {1, 0, 2});
  std::vector<std::unique_ptr<WakeGate>> gates;
  std::vector<int> ids;
  for (std::size_t i = 0; i < 3; ++i) {
    gates.push_back(std::make_unique<WakeGate>(f.sim));
    GpuScheduler::RcbInit init;
    init.app_type = "MM";
    init.tenant = i == 1 ? "A" : "B";
    init.gate = gates.back().get();
    init.backlog = &backlog[i];
    ids.push_back(f.sched.register_app(init));
    f.sched.ack(ids.back());
  }
  // No epoch timer was armed. (A bounded run: an armed timer would re-arm
  // itself for as long as the RCB is non-empty.)
  f.sim.run_until(msec(100));
  EXPECT_EQ(f.sim.events_executed(), 0u);
  EXPECT_EQ(f.sched.epochs_run(), 0);
  for (const auto& g : gates) EXPECT_TRUE(g->awake());
  EXPECT_EQ(f.sched.dispatcher_wakes(), 3);  // the admits
  EXPECT_EQ(f.sched.dispatcher_sleeps(), 0);
  f.sched.on_op_complete(
      ids[1], make_op(gpu::GpuDevice::OpKind::kKernel, 0, msec(4)));
  const FeedbackRecord rec = f.sched.unregister_app(ids[1]);
  EXPECT_EQ(rec.app_type, "MM");
  EXPECT_DOUBLE_EQ(rec.gpu_time_s, 0.004);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].app_type, "MM");
  EXPECT_EQ(f.sched.registered_count(), 2);
  EXPECT_EQ(f.sched.tenant_service("A"), msec(4));
  for (const auto& g : gates) EXPECT_TRUE(g->awake());
  EXPECT_EQ(f.sched.epochs_run(), 0);
}

TEST(GpuScheduler, TfsDispatcherKeepsOneAwake) {
  GpuScheduler::Config cfg;
  cfg.epoch = msec(10);
  SchedFixture f("TFS", cfg);
  WakeGate g1(f.sim), g2(f.sim);
  sim::Backlog busy1(1), busy2(1);
  GpuScheduler::RcbInit i1, i2;
  i1.tenant = "A";
  i1.gate = &g1;
  i1.backlog = &busy1;
  i2.tenant = "B";
  i2.gate = &g2;
  i2.backlog = &busy2;
  const int id1 = f.sched.register_app(i1);
  const int id2 = f.sched.register_app(i2);
  f.sched.ack(id1);
  f.sched.ack(id2);
  f.sim.run_until(msec(35));
  EXPECT_GE(f.sched.epochs_run(), 3);
  // Exactly one gate open under TFS.
  EXPECT_EQ((g1.awake() ? 1 : 0) + (g2.awake() ? 1 : 0), 1);
}

TEST(GpuScheduler, TfsAlternatesWithEqualWeights) {
  GpuScheduler::Config cfg;
  cfg.epoch = msec(10);
  SchedFixture f("TFS", cfg);
  WakeGate g1(f.sim), g2(f.sim);
  sim::Backlog busy1(1), busy2(1);
  sim::SimTime g1_awake_time = 0, g2_awake_time = 0;
  GpuScheduler::RcbInit i1, i2;
  i1.tenant = "A";
  i1.gate = &g1;
  i1.backlog = &busy1;
  i2.tenant = "B";
  i2.gate = &g2;
  i2.backlog = &busy2;
  const int id1 = f.sched.register_app(i1);
  const int id2 = f.sched.register_app(i2);
  f.sched.ack(id1);
  f.sched.ack(id2);
  // Simulate service accrual proportional to awake time by feeding ops.
  for (int epoch = 0; epoch < 20; ++epoch) {
    f.sim.run_until(msec(10) * (epoch + 1));
    const int awake_id = g1.awake() ? id1 : id2;
    (g1.awake() ? g1_awake_time : g2_awake_time) += msec(10);
    f.sched.on_op_complete(
        awake_id, make_op(gpu::GpuDevice::OpKind::kKernel,
                          f.sim.now() - msec(10), f.sim.now()));
  }
  // Equal weights: both tenants should see comparable awake time.
  EXPECT_NEAR(static_cast<double>(g1_awake_time),
              static_cast<double>(g2_awake_time),
              static_cast<double>(msec(20)));
}

TEST(GpuScheduler, UnregisterLeavesGateOpen) {
  GpuScheduler::Config cfg;
  cfg.epoch = msec(10);
  SchedFixture f("TFS", cfg);
  WakeGate g1(f.sim), g2(f.sim);
  sim::Backlog busy1(1), busy2(1);
  GpuScheduler::RcbInit i1, i2;
  i1.gate = &g1;
  i1.backlog = &busy1;
  i1.tenant = "A";
  i2.gate = &g2;
  i2.backlog = &busy2;
  i2.tenant = "B";
  const int id1 = f.sched.register_app(i1);
  const int id2 = f.sched.register_app(i2);
  f.sched.ack(id1);
  f.sched.ack(id2);
  f.sim.run_until(msec(15));
  f.sched.unregister_app(id1);
  f.sched.unregister_app(id2);
  EXPECT_TRUE(g1.awake());
  EXPECT_TRUE(g2.awake());
}

/// Records the backlogged bit of every entry of every decision it makes,
/// in snapshot order, keyed by the entry's signal id.
struct BacklogLog {
  std::vector<std::vector<std::pair<std::uint64_t, bool>>> decisions;
};
BacklogLog* g_backlog_log = nullptr;

class BacklogRecorder final : public policies::DeviceSchedPolicy {
 public:
  const char* name() const override { return "BacklogRecorder"; }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<policies::RcbSnapshot>& rcb) override {
    auto& d = g_backlog_log->decisions.emplace_back();
    for (const auto& r : rcb) d.emplace_back(r.key, r.backlogged);
    return inner_.pick_awake(rcb);
  }

 private:
  policies::MqfqStickyPolicy inner_;
};

TEST(GpuScheduler, BackloggedBitsFollowTheCounterAtEachDecision) {
  BacklogLog log;
  g_backlog_log = &log;
  policies::register_device_policy(
      "core_test.backlog", [] { return std::make_unique<BacklogRecorder>(); });
  GpuScheduler::Config cfg;
  cfg.epoch = msec(10);
  SchedFixture f("core_test.backlog", cfg);
  std::deque<sim::Backlog> backlog(3);
  set_backlogs(backlog, {1, 0, 2});
  std::vector<std::unique_ptr<WakeGate>> gates;
  std::vector<std::uint64_t> ids;
  const char* tenants[] = {"B", "A", "B"};
  for (std::size_t i = 0; i < 3; ++i) {
    gates.push_back(std::make_unique<WakeGate>(f.sim));
    GpuScheduler::RcbInit init;
    init.tenant = tenants[i];
    init.gate = gates.back().get();
    init.backlog = &backlog[i];
    ids.push_back(static_cast<std::uint64_t>(f.sched.register_app(init)));
  }
  using Bits = std::vector<std::pair<std::uint64_t, bool>>;
  // ack: one decision over the acked entries only, read at that instant.
  f.sched.ack(static_cast<int>(ids[0]));
  ASSERT_EQ(log.decisions.size(), 1u);
  EXPECT_EQ(log.decisions[0], (Bits{{ids[0], true}}));
  set_backlog(backlog[0], 0);
  f.sched.ack(static_cast<int>(ids[1]));
  set_backlog(backlog[2], 1);
  f.sched.ack(static_cast<int>(ids[2]));
  ASSERT_EQ(log.decisions.size(), 3u);
  EXPECT_EQ(log.decisions[1], (Bits{{ids[0], false}, {ids[1], false}}));
  EXPECT_EQ(log.decisions[2],
            (Bits{{ids[0], false}, {ids[1], false}, {ids[2], true}}));

  // Epoch ticks: each decision sees the counters as they stand at its tick.
  f.sim.schedule(msec(5), [&] { set_backlogs(backlog, {3, 1, 0}); });
  f.sim.schedule(msec(15), [&] { set_backlogs(backlog, {0, 0, 0}); });
  f.sim.schedule(msec(25), [&] { set_backlogs(backlog, {0, 2, 5}); });
  f.sim.run_until(msec(35));
  ASSERT_EQ(f.sched.epochs_run(), 3);
  ASSERT_EQ(log.decisions.size(), 6u);
  EXPECT_EQ(log.decisions[3],
            (Bits{{ids[0], true}, {ids[1], true}, {ids[2], false}}));
  EXPECT_EQ(log.decisions[4],
            (Bits{{ids[0], false}, {ids[1], false}, {ids[2], false}}));
  EXPECT_EQ(log.decisions[5],
            (Bits{{ids[0], false}, {ids[1], true}, {ids[2], true}}));

  // The public snapshot reads the counters afresh.
  set_backlogs(backlog, {1, 0, 0});
  const auto snaps = f.sched.snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_TRUE(snaps[0].backlogged);
  EXPECT_FALSE(snaps[1].backlogged);
  EXPECT_FALSE(snaps[2].backlogged);

  // unregister: one decision over the remaining entries, read afresh.
  set_backlogs(backlog, {0, 7, 4});
  f.sched.unregister_app(static_cast<int>(ids[1]));
  ASSERT_EQ(log.decisions.size(), 7u);
  EXPECT_EQ(log.decisions[6], (Bits{{ids[0], false}, {ids[2], true}}));
  g_backlog_log = nullptr;
}

/// Forwards every decision but not settled(): the periodic Dispatcher.
class PeriodicPolicy final : public policies::DeviceSchedPolicy {
 public:
  explicit PeriodicPolicy(std::unique_ptr<policies::DeviceSchedPolicy> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<policies::RcbSnapshot>& rcb) override {
    return inner_->pick_awake(rcb);
  }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<policies::RcbSnapshot>& rcb,
      sim::SimTime now) override {
    return inner_->pick_awake(rcb, now);
  }

 private:
  std::unique_ptr<policies::DeviceSchedPolicy> inner_;
};

/// What one scheduler showed at each read of SkippedTicksReadAsRun.
struct Reads {
  std::vector<std::int64_t> epochs;
  std::vector<std::vector<policies::RcbSnapshot>> snaps;
  std::uint64_t events = 0;
};

/// Three PS threads (PS settles after every decision) take service, change
/// phase and backlog, and leave, with some changes landing exactly on a
/// grid point; epochs_run() and snapshot() are read in between.
Reads run_settling_rcb(std::unique_ptr<policies::DeviceSchedPolicy> policy) {
  GpuScheduler::Config cfg;
  cfg.epoch = msec(10);
  sim::Simulation sim;
  GpuScheduler sched(sim, 0, std::move(policy), cfg);
  std::deque<WakeGate> gates;
  std::deque<sim::Backlog> backlog(3);
  set_backlogs(backlog, {1, 1, 0});
  std::vector<int> ids;
  for (std::size_t i = 0; i < 3; ++i) {
    GpuScheduler::RcbInit init;
    init.tenant = i == 1 ? "B" : "A";
    init.tenant_weight = 1.0 + static_cast<double>(i);
    init.gate = &gates.emplace_back(sim);
    init.backlog = &backlog[i];
    ids.push_back(sched.register_app(init));
    sched.ack(ids.back());
  }
  const auto kernel = [&](std::size_t i, sim::SimTime length) {
    sched.on_op_complete(
        ids[i], make_op(gpu::GpuDevice::OpKind::kKernel, sim.now() - length,
                        sim.now()));
  };
  sim.schedule(msec(3), [&] { kernel(0, msec(3)); });
  sim.schedule(msec(20), [&] { kernel(1, msec(4)); });  // on a grid point
  sim.schedule(msec(47), [&] { set_backlog(backlog[2], 2); });
  sim.schedule(msec(60), [&] { set_backlog(backlog[0], 0); });
  sim.schedule(msec(88), [&] { sched.set_phase(ids[2], Phase::kH2D); });
  sim.schedule(msec(130), [&] { kernel(2, msec(9)); });
  sim.schedule(msec(210), [&] { sched.unregister_app(ids[1]); });
  Reads out;
  for (const int t : {5, 10, 15, 20, 35, 50, 60, 77, 90, 100, 129, 150, 200,
                      205, 230, 300}) {
    sim.schedule(msec(t), [&] {
      out.epochs.push_back(sched.epochs_run());
      out.snaps.push_back(sched.snapshot());
    });
  }
  sim.schedule(msec(301), [&] {
    sched.unregister_app(ids[0]);
    sched.unregister_app(ids[2]);
  });
  sim.run();
  out.events = sim.events_executed();
  return out;
}

TEST(GpuScheduler, SkippedTicksReadAsRun) {
  const Reads skipping = run_settling_rcb(policies::make_device_policy("PS"));
  const Reads periodic = run_settling_rcb(
      std::make_unique<PeriodicPolicy>(policies::make_device_policy("PS")));
  EXPECT_EQ(skipping.epochs, periodic.epochs);
  EXPECT_EQ(periodic.epochs.back(), 30);
  ASSERT_EQ(skipping.snaps.size(), periodic.snaps.size());
  for (std::size_t r = 0; r < periodic.snaps.size(); ++r) {
    SCOPED_TRACE(r);
    ASSERT_EQ(skipping.snaps[r].size(), periodic.snaps[r].size());
    for (std::size_t i = 0; i < periodic.snaps[r].size(); ++i) {
      const policies::RcbSnapshot& a = skipping.snaps[r][i];
      const policies::RcbSnapshot& b = periodic.snaps[r][i];
      EXPECT_EQ(a.key, b.key);
      EXPECT_EQ(a.total_service, b.total_service);
      EXPECT_EQ(a.epoch_service, b.epoch_service);
      EXPECT_EQ(a.cgs, b.cgs);
      EXPECT_EQ(a.entitled, b.entitled);
      EXPECT_EQ(a.phase, b.phase);
      EXPECT_EQ(a.backlogged, b.backlogged);
      EXPECT_EQ(a.tenant_attained, b.tenant_attained);
    }
  }
  EXPECT_LT(skipping.events, periodic.events);
}

TEST(GpuScheduler, TenantIdsAreDenseAndServiceAnswersByName) {
  SchedFixture f("AllAwake");
  const char* tenants[] = {"zulu", "alpha", "zulu"};
  std::vector<int> ids;
  for (const char* t : tenants) {
    GpuScheduler::RcbInit init;
    init.tenant = t;
    ids.push_back(f.sched.register_app(init));
    f.sched.ack(ids.back());
  }
  const auto snaps = f.sched.snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].tenant_id, 0u);
  EXPECT_EQ(snaps[1].tenant_id, 1u);
  EXPECT_EQ(snaps[2].tenant_id, 0u);
  EXPECT_EQ(snaps[1].tenant, "alpha");
  EXPECT_EQ(snaps[2].tenant, "zulu");
  f.sched.on_op_complete(ids[0], make_op(gpu::GpuDevice::OpKind::kKernel, 0,
                                         msec(4)));
  f.sched.on_op_complete(ids[2], make_op(gpu::GpuDevice::OpKind::kH2D, 0,
                                         msec(1)));
  f.sched.unregister_app(ids[2]);
  EXPECT_EQ(f.sched.tenant_service("zulu"), msec(5));
  EXPECT_EQ(f.sched.tenant_service("alpha"), 0);
  EXPECT_EQ(f.sched.tenant_service("nobody"), 0);
  EXPECT_EQ(f.sched.snapshot()[0].tenant_attained, msec(5));
}

TEST(WakeGate, BlocksUntilOpened) {
  sim::Simulation sim;
  WakeGate gate(sim);
  gate.set(false);
  sim::SimTime woke_at = -1;
  sim.spawn("worker", [&] {
    gate.wait_until_awake();
    woke_at = sim.now();
  });
  sim.schedule(msec(7), [&] { gate.set(true); });
  sim.run();
  EXPECT_EQ(woke_at, msec(7));
}

TEST(WakeGate, OpenGateDoesNotBlock) {
  sim::Simulation sim;
  WakeGate gate(sim);
  bool ran = false;
  sim.spawn("worker", [&] {
    gate.wait_until_awake();
    ran = true;
  });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 0);
}

}  // namespace
}  // namespace strings::core
