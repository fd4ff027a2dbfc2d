// Per-device GPU scheduler (paper §III-C "GPU Scheduler", Fig. 6/7a).
//
// Components, mapped one-to-one onto the paper:
//   Request Manager (RM)  — registers backend threads via the three-way
//     handshake (register -> signal id -> ack) and maintains the Request
//     Control Block (RCB).
//   Dispatcher             — every scheduling epoch, runs the configured
//     device policy (TFS / LAS / PS / MQFQ) over RCB snapshots and
//     toggles each backend thread's WakeGate (the RT-signal analog).
//     The Dispatcher is change-driven, by the quiescence the policy
//     declares for its last decision (DeviceSchedPolicy::quiescence):
//       every epoch — a tick is armed for the next grid point;
//       until an input changes — no tick is armed: quiet epochs would only
//         decay CGS, accrue entitlement and return the same awake set. The
//         next input change (register, ack, unregister, op completion,
//         phase change, backlog zero crossing) first replays the skipped
//         grid points up to now, with the inputs they would have seen,
//         then arms the next one;
//       until the backlog changes — likewise, except that op completions
//         and phase changes replay the skipped points and arm nothing:
//         only a backlog zero crossing or a register, ack or unregister
//         arms the next tick (LAS with at most three backlogged threads
//         wakes them all, whatever their CGS);
//       never moves a gate — no Dispatcher: the scheduler asks once, at
//         construction, arms no epoch and makes no decision, and
//         epochs_run() stays 0 (AllAwake, plain sharing, §IV-B).
//     A tick at time T runs before every other event at T
//     (Simulation::schedule_first, ranked by gid), so a replay closes, at
//     its first point, the service completed since the last closed point,
//     and none at the rest. epochs_run() and snapshot() count and show the
//     skipped points as run. Under the analyzer every tick runs, so it
//     observes each one's RCB access.
//   Request Monitor (RMO)  — accumulates per-application GPU time, transfer
//     time, bytes accessed, and phase from device op completions.
//   Feedback Engine (FE)   — on unregister (cudaThreadExit), summarizes the
//     RCB entry into a FeedbackRecord and hands it to the feedback sink
//     (the Affinity Mapper's Policy Arbiter).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/tables.hpp"
#include "simcore/flat_map.hpp"
#include "gpu/gpu_device.hpp"
#include "obs/trace.hpp"
#include "policies/device_policies.hpp"
#include "simcore/backlog.hpp"
#include "simcore/simulation.hpp"

namespace strings::core {

/// The simulated analog of the paper's per-thread RT-signal handler: the
/// Dispatcher toggles it; the backend thread blocks on it before issuing
/// GPU work while asleep (in-flight work keeps running).
class WakeGate {
 public:
  explicit WakeGate(sim::Simulation& sim) : changed_(sim) {}

  bool awake() const { return awake_; }

  void set(bool awake) {
    if (awake_ == awake) return;
    awake_ = awake;
    if (awake_) changed_.notify_all();
  }

  /// Blocks the calling process until the gate opens.
  void wait_until_awake() {
    while (!awake_) changed_.wait();
  }

 private:
  bool awake_ = true;
  sim::Event changed_;
};

class GpuScheduler {
 public:
  struct Config {
    sim::SimTime epoch = sim::msec(10);
    /// Rain measures service at backend-process granularity, so queueing
    /// and context-switch time leak into the accounting (the paper's
    /// explanation for TFS-Rain's fairness error). Strings measures
    /// engine-residency only.
    bool measure_includes_wait = false;
  };

  struct RcbInit {
    std::string app_type;
    std::string tenant;
    double tenant_weight = 1.0;
    WakeGate* gate = nullptr;
    /// The thread's backlog, kept by its owner: requests delivered but not
    /// yet received, plus one while a request is being handled, plus the
    /// ops outstanding on its stream. The thread is backlogged iff it is
    /// positive; each decision reads it once per entry, and each zero
    /// crossing counts as an input change (the scheduler listens from
    /// register_app to unregister_app, so one backlog serves one entry).
    /// Null means always backlogged.
    sim::Backlog* backlog = nullptr;
  };

  GpuScheduler(sim::Simulation& sim, Gid gid,
               std::unique_ptr<policies::DeviceSchedPolicy> policy,
               Config config);
  GpuScheduler(sim::Simulation& sim, Gid gid,
               std::unique_ptr<policies::DeviceSchedPolicy> policy);
  // Epoch ticks and backlog listeners hold the scheduler's address.
  GpuScheduler(const GpuScheduler&) = delete;
  GpuScheduler& operator=(const GpuScheduler&) = delete;

  // ---- Request Manager ----
  /// Handshake steps 1+2: creates the RCB entry, returns the signal id.
  int register_app(const RcbInit& init);
  /// Handshake step 3: the backend thread acknowledges its handler; only
  /// acked entries participate in dispatching.
  void ack(int signal_id);
  /// Removes the entry and returns the Feedback Engine's summary record.
  FeedbackRecord unregister_app(int signal_id);
  /// Called by the backend thread as it clears its WakeGate and hands work
  /// to the GPU. Pure notification (no scheduling effect): it asserts the
  /// protocol point the analysis layer checks with INV-HSK-1 — dispatch
  /// only after the three-way handshake acked.
  void notify_dispatch(int signal_id);

  // ---- Request Monitor hooks ----
  void on_op_complete(int signal_id, const gpu::GpuDevice::Op& op);
  void set_phase(int signal_id, policies::Phase phase);

  /// FE sink: invoked with each unregistered app's record (Policy Arbiter).
  void set_feedback_sink(std::function<void(const FeedbackRecord&)> sink) {
    feedback_sink_ = std::move(sink);
  }

  /// Observability tracer: op-completion spans land on the device's
  /// compute/copy tracks; dispatcher wake/sleep transitions become
  /// instants and each RCB change a `queue_depth` counter sample on its
  /// dispatch track (register_gpu(gid) must have run).
  void set_tracer(obs::Tracer* tracer);

  // ---- introspection ----
  /// The acked RCB entries as the policy sees them, with backlog read now
  /// and every grid point up to now run. Under AllAwake no epoch runs, so
  /// `cgs`, `epoch_service` and `entitled` stay 0.
  std::vector<policies::RcbSnapshot> snapshot() const;
  sim::SimTime service_attained(int signal_id) const;
  /// Cumulative GPU service of `tenant` across all (including exited) apps —
  /// the quantity Jain's fairness is computed over. Always measured as true
  /// engine residency, independent of measure_includes_wait.
  sim::SimTime tenant_service(const std::string& tenant) const;
  int registered_count() const { return static_cast<int>(rcb_.size()); }
  /// Epochs up to now, the grid points whose tick was skipped included.
  std::int64_t epochs_run() const { return epochs_ + skipped_points(); }
  /// Dispatcher gate transitions since construction (sleep->awake and back).
  std::int64_t dispatcher_wakes() const { return wakes_; }
  std::int64_t dispatcher_sleeps() const { return sleeps_; }
  Gid gid() const { return gid_; }
  const policies::DeviceSchedPolicy& policy() const { return *policy_; }
  const Config& config() const { return config_; }

 private:
  // The RCB is kept in two halves, in key order and position for position:
  // `rcb_` holds each entry's Request Manager / Monitor state, `view_` its
  // policy input. The dispatcher refreshes `view_` in place where fields
  // change, and hands it to the policy without a copy.
  struct RcbEntry {
    // Dispatcher state, read every tick.
    sim::Backlog* backlog = nullptr;  // RcbInit::backlog
    WakeGate* gate = nullptr;         // RcbInit::gate
    sim::SimTime service_at_last_epoch = 0;
    bool acked = false;
    // In the last decision's awake set (gated entries: the gate's state;
    // only the dispatcher moves it).
    bool awake = true;
    bool picked = false;  // in the policy's awake set (during dispatch)
    obs::NameId trace_app = 0;  // app_type interned, when tracing
    // Request Manager and Request Monitor state.
    std::string app_type;
    sim::SimTime registered_at = 0;
    sim::SimTime gpu_time = 0;
    sim::SimTime transfer_time = 0;
    std::int64_t bytes_accessed = 0;
  };
  struct Tenant {
    std::string name;
    sim::SimTime service = 0;  // engine residency, all apps ever
    obs::NameId trace_name = 0;  // name interned, when tracing
  };

  static bool backlogged(const RcbEntry& e) {
    return e.backlog == nullptr || e.backlog->positive();
  }
  /// Position of `signal_id` in both halves, or rcb_.size().
  std::size_t index_of(int signal_id) const;
  std::uint32_t intern_tenant(const std::string& tenant);
  /// Arms the epoch tick `delay` from now, unless one is armed.
  void arm_epoch(sim::SimTime delay);
  void epoch_tick();
  /// Grid points at or before now whose tick was skipped.
  std::int64_t skipped_points() const;
  /// The input change resume_ticks() is called for.
  enum class Change { kServiceOrPhase, kBacklogOrEntries };
  /// An input change is about to land: runs the skipped grid points up to
  /// now, then arms the next one, unless the change is service or phase
  /// and the decision is backlog-bound.
  void resume_ticks(Change change);
  /// Replays `n` skipped grid points over `view` as their ticks would have
  /// run them: the backlog the last tick read, the service completed since
  /// the last closed point at the first point and none after, one
  /// close_epoch() each; `decide(i)` runs after point i closes.
  template <typename Decide>
  void catch_up(std::vector<policies::RcbSnapshot>& view, std::int64_t n,
                Decide decide) const;
  /// One epoch's CGS decay and entitlement accrual over `view`, from the
  /// epoch service and backlog its entries hold.
  void close_epoch(std::vector<policies::RcbSnapshot>& view) const;
  /// ack/unregister: reads the acked entries' backlog, then dispatches.
  void run_dispatcher();
  /// Runs the policy at `now` over the view as its callers refreshed it
  /// (backlog, tenant service) and toggles the gates. Returns how many
  /// entries' awake state the decision moved.
  int dispatch(sim::SimTime now);

  sim::Simulation& sim_;
  Gid gid_;
  std::unique_ptr<policies::DeviceSchedPolicy> policy_;
  Config config_;
  // False when the policy never moves a gate (AllAwake): no epoch timer, no
  // decision on ack/unregister.
  const bool dispatches_;
  sim::FlatMap<int, RcbEntry> rcb_;
  std::vector<policies::RcbSnapshot> view_;  // parallel to rcb_
  int unacked_ = 0;  // entries registered but not yet acked
  // Tenants by id, interned at register_app. A deque keeps each name's
  // address stable, so snapshots can view it.
  std::deque<Tenant> tenants_;
  sim::FlatMap<std::string, std::uint32_t> tenant_ids_;
  // The acked part of view_, for decisions made while some entry is not
  // yet acked (between register_app and ack).
  std::vector<policies::RcbSnapshot> acked_view_;
  int next_signal_ = 1;
  bool epoch_armed_ = false;
  // kEveryEpoch while ticks run; otherwise no tick is armed, the last
  // decision stands at this level, and next_point_ is the first grid point
  // not yet run.
  policies::Quiescence quiet_ = policies::Quiescence::kEveryEpoch;
  sim::SimTime next_point_ = 0;
  std::int64_t epochs_ = 0;
#ifndef NDEBUG
  // close_epoch() runs on view_ itself, from ticks and from resume_ticks'
  // replay; every epoch counted in epochs_ must have closed exactly once,
  // which both assert after counting, so a replay that skips or repeats a
  // close fails where it happens.
  mutable std::int64_t live_closes_ = 0;
#endif
  std::function<void(const FeedbackRecord&)> feedback_sink_;
  obs::Tracer* tracer_ = nullptr;
  std::string engines_track_;  // "gpu<gid>.engines", set with the tracer
  std::int64_t wakes_ = 0;
  std::int64_t sleeps_ = 0;
};

}  // namespace strings::core
