// Per-device GPU scheduling policies (paper §IV-B).
//
// The Dispatcher evaluates one of these policies every scheduling epoch to
// decide which backend threads stay awake (may issue GPU work), except the
// epochs that the quiescence() a policy declares for its decision makes
// redundant. Policies are pure functions over RCB snapshots so they are
// unit testable in isolation.
//
//   TFS — true fair share: weighted per-tenant shares with history-based
//         penalties for overshoot; at most one thread awake.
//   LAS — least attained service: wakes the thread with the smallest
//         decayed cumulative GPU service (CGSn = k*GSn + (1-k)*CGSn-1).
//   PS  — phase selection: wakes one thread per GPU-usage phase so the
//         kernel engine and both copy engines run concurrently
//         (priority KL > H2D = D2H > DFL).
//   MQFQ — MQFQ-Sticky fair queueing: per-tenant virtual-time queues with a
//          throttle threshold T and a device stickiness window (modeled on
//          "MQFQ-Sticky: Fair Queueing For Serverless GPU Functions").
//   AllAwake — no device-level scheduling (pure sharing baseline).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simcore/sim_time.hpp"

namespace strings::policies {

/// The GPU-usage phase a backend thread reports to the scheduler.
enum class Phase { kKernelLaunch, kH2D, kD2H, kDefault };

const char* phase_name(Phase p);

/// How long a policy's last decision stands, as the Dispatcher reads it
/// (DeviceSchedPolicy::quiescence). Later values promise more.
enum class Quiescence {
  /// Decide again every epoch.
  kEveryEpoch,
  /// Every decision at `next` or later returns the last awake set as long
  /// as the inputs move only as quiet epochs move them: every `cgs` scaled
  /// by one nonnegative factor per epoch (epoch_service 0) and every
  /// backlogged entry's `entitled` grown by one fixed share per epoch. Any
  /// input change (service, phase, backlog, registration) ends it.
  kUntilInputChanges,
  /// Every later decision returns the last awake set whatever service,
  /// phase, `cgs` and `entitled` do, as long as the backlog and the
  /// registered entries stay as they are.
  kUntilBacklogChanges,
  /// No decision ever moves a gate: the scheduler runs no Dispatcher. A
  /// policy answers this from construction on, or never.
  kNeverMovesGate,
};

/// Read-only view of one Request Control Block entry at epoch boundary.
struct RcbSnapshot {
  std::uint64_t key = 0;  // registration (signal) id
  /// Dense id of `tenant`, assigned by the scheduler when the tenant first
  /// registers (0, 1, 2, ... per scheduler). Policies key per-tenant state
  /// by it; every snapshot handed to one policy must give an id one name.
  std::uint32_t tenant_id = 0;
  /// The tenant's name, owned by the scheduler (valid for its lifetime).
  std::string_view tenant;
  double tenant_weight = 1.0;
  /// Total GPU service attained since registration.
  sim::SimTime total_service = 0;
  /// Service attained in the last epoch (GSn).
  sim::SimTime epoch_service = 0;
  /// Decayed cumulative service (CGSn), maintained by the scheduler.
  double cgs = 0.0;
  /// Accumulated fair-share entitlement (TFS bookkeeping).
  sim::SimTime entitled = 0;
  Phase phase = Phase::kDefault;
  /// True if the thread has queued or in-flight work.
  bool backlogged = false;
  /// Cumulative engine residency attained by this thread's *tenant* on this
  /// device, including service from already-exited apps of the same tenant.
  /// This is what tenant-level fair queueing (MQFQ) meters.
  sim::SimTime tenant_attained = 0;
};

class DeviceSchedPolicy {
 public:
  virtual ~DeviceSchedPolicy() = default;
  virtual const char* name() const = 0;
  /// Returns the keys of the threads to keep awake next epoch.
  virtual std::vector<std::uint64_t> pick_awake(
      const std::vector<RcbSnapshot>& rcb) = 0;
  /// Time-aware overload used by the dispatcher. `now` is the device's
  /// virtual clock at evaluation time; policies that need it (stickiness
  /// windows) override this, everyone else inherits the forwarding default.
  virtual std::vector<std::uint64_t> pick_awake(
      const std::vector<RcbSnapshot>& rcb, sim::SimTime /*now*/) {
    return pick_awake(rcb);
  }
  /// The declared quiescence of the last decision for the decisions at
  /// `next` or later; the Dispatcher arms no tick until what it names
  /// changes (GpuScheduler). The default keeps every tick, so a decorator
  /// that does not forward this keeps the policy it wraps on the periodic
  /// path.
  virtual Quiescence quiescence(sim::SimTime /*next*/) const {
    return Quiescence::kEveryEpoch;
  }
};

/// Everything awake — the behaviour of plain GPU sharing with no
/// device-level scheduler.
class AllAwakePolicy final : public DeviceSchedPolicy {
 public:
  const char* name() const override { return "AllAwake"; }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<RcbSnapshot>& rcb) override;
  Quiescence quiescence(sim::SimTime /*next*/) const override {
    return Quiescence::kNeverMovesGate;
  }
};

class TfsPolicy final : public DeviceSchedPolicy {
 public:
  const char* name() const override { return "TFS"; }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<RcbSnapshot>& rcb) override;
  /// With at most one backlogged entry the pick cannot depend on deficits
  /// (backlog-bound); with two, entitlements that grow by weight can
  /// reorder them.
  Quiescence quiescence(sim::SimTime /*next*/) const override {
    return quiescence_;
  }

 private:
  Quiescence quiescence_ = Quiescence::kEveryEpoch;
};

class LasPolicy final : public DeviceSchedPolicy {
 public:
  const char* name() const override { return "LAS"; }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<RcbSnapshot>& rcb) override;
  /// With at most three backlogged entries all of them wake, whatever the
  /// CGS values: backlog-bound. Otherwise a common nonnegative decay keeps
  /// `a <= b` between CGS values, but rounding and underflow can make two
  /// of them equal, and a tie goes to the lower key. So the pick stands
  /// until an input changes iff every picked key is below every unpicked
  /// backlogged key.
  Quiescence quiescence(sim::SimTime /*next*/) const override {
    return quiescence_;
  }

 private:
  Quiescence quiescence_ = Quiescence::kEveryEpoch;
};

class PsPolicy final : public DeviceSchedPolicy {
 public:
  const char* name() const override { return "PS"; }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<RcbSnapshot>& rcb) override;
  /// Phases, backlog and attained service move only with inputs; each of
  /// them can move the picks.
  Quiescence quiescence(sim::SimTime /*next*/) const override {
    return Quiescence::kUntilInputChanges;
  }
};

struct MqfqConfig {
  /// Throttle threshold T: a tenant whose virtual time leads the global
  /// (minimum backlogged) virtual time by more than T is throttled until
  /// the laggards catch up. Virtual time is weighted service, so T is in
  /// units of per-unit-weight device time.
  sim::SimTime throttle_T = sim::msec(20);
  /// Stickiness window: a tenant selected for a device slot keeps that slot
  /// across re-evaluations for this long (while backlogged and unthrottled),
  /// trading a little short-term fairness for fewer tenant switches.
  sim::SimTime sticky_window = sim::msec(2);
  /// Concurrent tenant slots (matches the PS/LAS three engine slots).
  int slots = 3;
};

/// MQFQ-Sticky: per-tenant start-time fair queueing over attained device
/// service. Each tenant owns a virtual clock advanced by attained service
/// divided by its weight; a tenant becoming backlogged is lifted to the
/// global virtual time (so idling never banks credit); tenants more than T
/// ahead of the slowest backlogged tenant are throttled. The min-virtual-time
/// tenant is never throttled, so the device stays work conserving.
class MqfqStickyPolicy final : public DeviceSchedPolicy {
 public:
  explicit MqfqStickyPolicy(MqfqConfig cfg = {});
  const char* name() const override { return "MQFQ"; }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<RcbSnapshot>& rcb) override;
  std::vector<std::uint64_t> pick_awake(const std::vector<RcbSnapshot>& rcb,
                                        sim::SimTime now) override;
  /// Virtual times and throttles move only with attained service and
  /// backlog, so the (vt, name) order stands; stickiness can reorder it.
  /// Until an input changes iff no runnable flow was sticky at the last
  /// decision and the slots it handed out have expired by `next`.
  Quiescence quiescence(sim::SimTime next) const override {
    return !sticky_ranked_ && last_now_ + cfg_.sticky_window <= next
               ? Quiescence::kUntilInputChanges
               : Quiescence::kEveryEpoch;
  }

  const MqfqConfig& config() const { return cfg_; }
  /// Current per-tenant virtual times (ns of per-unit-weight service),
  /// sorted by tenant name. For instruments and property tests.
  std::vector<std::pair<std::string, double>> vtimes() const;
  /// vtimes() without the copies: calls fn(tenant_id, name, vt) for every
  /// known tenant in name order, where tenant_id is the scheduler's dense
  /// id (RcbSnapshot::tenant_id). For per-window instruments.
  template <class Fn>
  void for_each_vtime(Fn&& fn) const {
    for (const std::uint32_t id : by_name_) {
      fn(id, flows_[id].name, flows_[id].vt);
    }
  }
  /// Global virtual time: min over backlogged tenants at the last decision.
  double global_vtime() const { return global_vt_; }
  /// Tenants throttled (vt > global + T) at the last decision, sorted by
  /// name.
  std::vector<std::string> last_throttled() const;

 private:
  struct Flow {
    std::string name;
    std::uint32_t rank = 0;          // position in name order
    bool known = false;              // seen in some snapshot
    bool fresh = false;              // created by the current decision
    double vt = 0.0;                 // virtual time, ns / weight
    sim::SimTime last_attained = 0;  // tenant_attained at last evaluation
    sim::SimTime sticky_until = -1;  // holds a slot while now < sticky_until
    bool was_backlogged = false;
    // The current decision's view of the tenant, aggregated over its
    // threads in one pass (valid while seen == decision_).
    std::uint64_t seen = 0;
    sim::SimTime attained = 0;
    double weight = 1.0;
    bool backlogged = false;
    std::uint64_t head = 0;  // lowest backlogged key: the head of line
  };
  Flow& flow_of(const RcbSnapshot& r);

  MqfqConfig cfg_;
  std::vector<Flow> flows_;              // indexed by tenant_id
  std::vector<std::uint32_t> by_name_;   // known tenant ids in name order
  std::vector<std::uint32_t> present_;   // tenant ids in this snapshot
  std::vector<std::uint32_t> prev_present_;
  std::vector<std::uint32_t> runnable_;
  std::vector<std::uint32_t> throttled_;  // at the last decision, unsorted
  std::uint64_t decision_ = 0;
  double global_vt_ = 0.0;
  sim::SimTime last_now_ = 0;
  bool sticky_ranked_ = false;  // a runnable flow was sticky at last_now_
};

/// Factory by name ("AllAwake", "TFS", "LAS", "PS", "MQFQ" with default
/// knobs, or any name registered via register_device_policy); throws
/// std::invalid_argument otherwise.
std::unique_ptr<DeviceSchedPolicy> make_device_policy(const std::string& name);

/// Registers a user-defined device policy under `name` (overrides built-ins
/// of the same name). The factory is called once per GpuScheduler.
void register_device_policy(
    const std::string& name,
    std::function<std::unique_ptr<DeviceSchedPolicy>()> factory);

}  // namespace strings::policies
