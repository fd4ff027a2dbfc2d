// Focused tests of the GPU scheduler's bookkeeping formulas against the
// paper's definitions: the CGS decay of eq. (1), per-epoch service deltas,
// and TFS entitlement accrual / work conservation.
#include <gtest/gtest.h>

#include <deque>

#include "core/gpu_scheduler.hpp"

namespace strings::core {
namespace {

using sim::msec;
using sim::SimTime;

gpu::GpuDevice::Op kernel_op(SimTime start, SimTime end) {
  gpu::GpuDevice::Op op;
  op.kind = gpu::GpuDevice::OpKind::kKernel;
  op.submitted = start;
  op.started = start;
  op.completed = end;
  return op;
}

struct Fixture {
  explicit Fixture(const std::string& policy = "AllAwake",
                   double las_k = 0.8) {
    GpuScheduler::Config cfg;
    cfg.epoch = msec(10);
    cfg.las_k = las_k;
    sched = std::make_unique<GpuScheduler>(
        sim, 0, policies::make_device_policy(policy), cfg);
  }
  int add_app(const std::string& tenant, double weight = 1.0,
              int backlog = 1) {
    GpuScheduler::RcbInit init;
    init.app_type = "X";
    init.tenant = tenant;
    init.tenant_weight = weight;
    init.backlog = &backlogs.emplace_back(backlog);
    const int id = sched->register_app(init);
    sched->ack(id);
    return id;
  }
  sim::Simulation sim;
  std::unique_ptr<GpuScheduler> sched;
  std::deque<int> backlogs;  // the entries' counters, address-stable
};

TEST(SchedulerMath, CgsFollowsEquationOne) {
  // CGSn = k*GSn + (1-k)*CGSn-1 with k = 0.8 (paper eq. 1).
  Fixture f("LAS", 0.8);
  const int id = f.add_app("A");

  // Epoch 1: 4ms of service.
  f.sched->on_op_complete(id, kernel_op(0, msec(4)));
  f.sim.run_until(msec(10));
  double expected = 0.8 * static_cast<double>(msec(4)) + 0.2 * 0.0;
  auto snaps = f.sched->snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_DOUBLE_EQ(snaps[0].cgs, expected);

  // Epoch 2: 2ms of service.
  f.sched->on_op_complete(id, kernel_op(msec(10), msec(12)));
  f.sim.run_until(msec(20));
  expected = 0.8 * static_cast<double>(msec(2)) + 0.2 * expected;
  EXPECT_DOUBLE_EQ(f.sched->snapshot()[0].cgs, expected);

  // Epoch 3: idle; CGS decays toward zero.
  f.sim.run_until(msec(30));
  expected = 0.8 * 0.0 + 0.2 * expected;
  EXPECT_DOUBLE_EQ(f.sched->snapshot()[0].cgs, expected);
}

TEST(SchedulerMath, EpochServiceIsPerEpochDelta) {
  Fixture f("LAS");
  const int id = f.add_app("A");
  f.sched->on_op_complete(id, kernel_op(0, msec(3)));
  f.sim.run_until(msec(10));
  EXPECT_EQ(f.sched->snapshot()[0].epoch_service, msec(3));
  // No service in epoch 2.
  f.sim.run_until(msec(20));
  EXPECT_EQ(f.sched->snapshot()[0].epoch_service, 0);
  EXPECT_EQ(f.sched->snapshot()[0].total_service, msec(3));
}

TEST(SchedulerMath, EntitlementSplitsByWeightAmongBacklogged) {
  Fixture f("TFS");
  const int a = f.add_app("A", /*weight=*/3.0);
  const int b = f.add_app("B", /*weight=*/1.0);
  f.sim.run_until(msec(10));  // one epoch
  const auto snaps = f.sched->snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  SimTime ent_a = 0, ent_b = 0;
  for (const auto& s : snaps) {
    if (s.tenant == "A") ent_a = s.entitled;
    if (s.tenant == "B") ent_b = s.entitled;
  }
  // 10ms epoch split 3:1.
  EXPECT_NEAR(static_cast<double>(ent_a), static_cast<double>(msec(10)) * 0.75,
              1.0);
  EXPECT_NEAR(static_cast<double>(ent_b), static_cast<double>(msec(10)) * 0.25,
              1.0);
  (void)a;
  (void)b;
}

TEST(SchedulerMath, IdleTenantAccruesNoEntitlement) {
  // Work conservation: an idle tenant's share goes to the backlogged one.
  Fixture f("TFS");
  GpuScheduler::RcbInit idle;
  idle.app_type = "X";
  idle.tenant = "idle";
  idle.tenant_weight = 1.0;
  const int no_backlog = 0;
  idle.backlog = &no_backlog;
  const int idle_id = f.sched->register_app(idle);
  f.sched->ack(idle_id);
  const int busy_id = f.add_app("busy", 1.0, /*backlog=*/1);
  f.sim.run_until(msec(10));
  for (const auto& s : f.sched->snapshot()) {
    if (s.tenant == "idle") {
      EXPECT_EQ(s.entitled, 0);
    }
    if (s.tenant == "busy") {
      EXPECT_NEAR(static_cast<double>(s.entitled),
                  static_cast<double>(msec(10)), 1.0);
    }
  }
  (void)busy_id;
}

TEST(SchedulerMath, EpochTimerStopsWhenEmptyAndRearms) {
  Fixture f("LAS");
  const int id = f.add_app("A");
  f.sim.run_until(msec(25));
  const auto epochs_before = f.sched->epochs_run();
  EXPECT_GE(epochs_before, 2);
  f.sched->unregister_app(id);
  f.sim.run();  // queue must drain: no armed timer with an empty RCB
  // Re-registering re-arms the dispatcher.
  const int id2 = f.add_app("B");
  f.sim.run_until(f.sim.now() + msec(15));
  EXPECT_GT(f.sched->epochs_run(), epochs_before);
  f.sched->unregister_app(id2);
}

TEST(SchedulerMath, BytesAccessedGiveTableOneBandwidth) {
  // mem_bw = total kernel data accesses / total GPU time (paper's MBF
  // definition): a kernel demanding 10 GB/s for its 10ms nominal duration
  // that actually ran dilated to 20ms reports 10e9*0.01 / 0.02 = 5 GB/s.
  Fixture f;
  const int id = f.add_app("A");
  gpu::GpuDevice::Op op = kernel_op(0, msec(20));  // dilated 2x
  op.kernel.nominal_duration = msec(10);
  op.kernel.bw_demand_gbps = 10.0;
  f.sched->on_op_complete(id, op);
  const FeedbackRecord rec = f.sched->unregister_app(id);
  EXPECT_NEAR(rec.mem_bw_gbps, 5.0, 1e-9);
}

}  // namespace
}  // namespace strings::core
