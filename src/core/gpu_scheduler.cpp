#include "core/gpu_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>

#include "analysis/access.hpp"

namespace strings::core {

namespace {
std::string rcb_name(Gid gid) {
  return "gpu" + std::to_string(gid) + "/rcb";
}
}  // namespace

GpuScheduler::GpuScheduler(sim::Simulation& sim, Gid gid,
                           std::unique_ptr<policies::DeviceSchedPolicy> policy,
                           Config config)
    : sim_(sim),
      gid_(gid),
      policy_(std::move(policy)),
      config_(config),
      // A policy whose decisions never move a gate (AllAwake keeps every
      // gate open whatever the RCB holds) runs no Dispatcher at all.
      dispatches_(policy_->quiescence(0) !=
                  policies::Quiescence::kNeverMovesGate) {}

GpuScheduler::GpuScheduler(sim::Simulation& sim, Gid gid,
                           std::unique_ptr<policies::DeviceSchedPolicy> policy)
    : GpuScheduler(sim, gid, std::move(policy), Config{}) {}

int GpuScheduler::register_app(const RcbInit& init) {
  const int signal_id = next_signal_++;
  if (analysis::enabled()) {
    analysis::inv_rcb_register(gid_, signal_id, ANALYSIS_SITE);
  }
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  resume_ticks(Change::kBacklogOrEntries);
  RcbEntry e;
  e.backlog = init.backlog;
  if (dispatches_ && e.backlog != nullptr) {
    e.backlog->on_edge([this] { resume_ticks(Change::kBacklogOrEntries); });
  }
  e.gate = init.gate;
  e.awake = init.gate == nullptr || init.gate->awake();
  e.app_type = init.app_type;
  if (tracer_ != nullptr) e.trace_app = tracer_->intern(e.app_type);
  e.registered_at = sim_.now();
  policies::RcbSnapshot s;
  s.key = static_cast<std::uint64_t>(signal_id);
  s.tenant_id = intern_tenant(init.tenant);
  s.tenant = tenants_[s.tenant_id].name;
  s.tenant_weight = init.tenant_weight;
  const auto it = rcb_.emplace(signal_id, std::move(e)).first;
  view_.insert(view_.begin() + (it - rcb_.begin()), s);
  ++unacked_;
  if (tracer_ != nullptr) {
    tracer_->gpu_counter(gid_, obs::Tracer::kQueueDepth, sim_.now(),
                         registered_count());
  }
  arm_epoch(config_.epoch);
  return signal_id;
}

void GpuScheduler::ack(int signal_id) {
  if (analysis::enabled()) {
    analysis::inv_rcb_ack(gid_, signal_id, ANALYSIS_SITE);
  }
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  resume_ticks(Change::kBacklogOrEntries);
  auto it = rcb_.find(signal_id);
  assert(it != rcb_.end() && "ack for unknown signal id");
  if (!it->second.acked) --unacked_;
  it->second.acked = true;
  // Let the new thread take effect immediately.
  if (dispatches_) run_dispatcher();
  // The admit decision is the thread's first wake: gates are born open, so
  // run_dispatcher above records no transition when the policy keeps the
  // newcomer running (and under AllAwake none runs). Count it (and render
  // the instant) here instead; policies that put the newcomer to sleep
  // already logged the sleep.
  const RcbEntry& e = it->second;
  if (e.gate != nullptr && e.gate->awake()) {
    ++wakes_;
    if (tracer_ != nullptr) {
      using obs::TraceArg;
      tracer_->dispatcher_event(gid_, /*wake=*/true, sim_.now(),
                                {TraceArg::name(obs::Tracer::kApp, e.trace_app),
                                 TraceArg::num(obs::Tracer::kSignal, signal_id),
                                 TraceArg::num(obs::Tracer::kAdmit, 1)});
    }
  }
}

FeedbackRecord GpuScheduler::unregister_app(int signal_id) {
  if (analysis::enabled()) {
    analysis::inv_rcb_unregister(gid_, signal_id, ANALYSIS_SITE);
  }
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  const std::size_t at = index_of(signal_id);
  assert(at != rcb_.size() && "unregister for unknown signal id");
  resume_ticks(Change::kBacklogOrEntries);
  const auto offset = static_cast<std::ptrdiff_t>(at);
  // Take the entry out before erasing: the RCB is flat storage, so erase
  // slides later entries into this slot and a reference would silently
  // alias a different app.
  const RcbEntry e = std::move((rcb_.begin() + offset)->second);
  const std::uint32_t tenant_id = view_[at].tenant_id;
  rcb_.erase(rcb_.begin() + offset);
  view_.erase(view_.begin() + offset);
  if (!e.acked) --unacked_;
  if (e.backlog != nullptr) e.backlog->on_edge(nullptr);
  if (tracer_ != nullptr) {
    tracer_->gpu_counter(gid_, obs::Tracer::kQueueDepth, sim_.now(),
                         registered_count());
  }

  FeedbackRecord rec;
  rec.app_type = e.app_type;
  rec.gid = gid_;
  rec.exec_time_s = sim::to_seconds(sim_.now() - e.registered_at);
  rec.gpu_time_s = sim::to_seconds(e.gpu_time);
  rec.transfer_time_s = sim::to_seconds(e.transfer_time);
  rec.gpu_util =
      rec.exec_time_s > 0 ? std::min(1.0, rec.gpu_time_s / rec.exec_time_s)
                          : 0.0;
  rec.mem_bw_gbps = e.gpu_time > 0 ? static_cast<double>(e.bytes_accessed) /
                                         static_cast<double>(e.gpu_time)
                                   : 0.0;  // bytes/ns == GB/s

  // Leave the thread awake on the way out so teardown never blocks.
  if (e.gate != nullptr) e.gate->set(true);
  if (tracer_ != nullptr) {
    // Attained-service hook for the profiler: snapshot the tenant's engine
    // residency (the quantity the LAS CGS math accumulates) at departure.
    using obs::TraceArg;
    char fmt[32];
    std::snprintf(fmt, sizeof fmt, "%.6f",
                  sim::to_seconds(tenants_[tenant_id].service));
    tracer_->gpu_instant(
        gid_, obs::Tracer::kFeDeparture, sim_.now(),
        {TraceArg::name(obs::Tracer::kApp, e.trace_app),
         TraceArg::name(obs::Tracer::kTenant, tenants_[tenant_id].trace_name),
         TraceArg::str(obs::Tracer::kTenantAttainedS, fmt)});
  }
  if (feedback_sink_) feedback_sink_(rec);
  if (dispatches_) run_dispatcher();
  return rec;
}

void GpuScheduler::notify_dispatch(int signal_id) {
  if (analysis::enabled()) {
    analysis::inv_dispatch(gid_, signal_id, ANALYSIS_SITE);
  }
}

void GpuScheduler::on_op_complete(int signal_id,
                                  const gpu::GpuDevice::Op& op) {
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  const std::size_t at = index_of(signal_id);
  if (at == rcb_.size()) return;  // late completion after unregister
  resume_ticks(Change::kServiceOrPhase);
  RcbEntry& e = (rcb_.begin() + static_cast<std::ptrdiff_t>(at))->second;
  policies::RcbSnapshot& s = view_[at];
  const sim::SimTime begin =
      config_.measure_includes_wait ? op.submitted : op.started;
  const sim::SimTime duration = op.completed - begin;
  // Ground truth for fairness metrics: engine residency only. The RCB
  // fields below use the (possibly wait-inflated) measurement the scheduler
  // actually acts on — the distinction is the paper's explanation for
  // TFS-Rain's fairness error.
  Tenant& tenant = tenants_[s.tenant_id];
  tenant.service += op.completed - op.started;
  s.total_service += duration;
  if (op.kind == gpu::GpuDevice::OpKind::kKernel) {
    e.gpu_time += duration;
    // Approximate data accesses: the kernel's bandwidth demand over its
    // standalone duration (bytes = GB/s * ns).
    e.bytes_accessed += static_cast<std::int64_t>(
        op.kernel.bw_demand_gbps *
        static_cast<double>(op.kernel.nominal_duration));
  } else {
    e.transfer_time += duration;
  }
  if (tracer_ != nullptr) {
    // Render the op's engine residency on the device's compute/copy track.
    using obs::TraceArg;
    const obs::NameId kind =
        op.kind == gpu::GpuDevice::OpKind::kKernel ? obs::Tracer::kKL
        : op.kind == gpu::GpuDevice::OpKind::kH2D  ? obs::Tracer::kH2D
                                                   : obs::Tracer::kD2H;
    tracer_->gpu_op(gid_, kind, op.started, op.completed,
                    {TraceArg::name(obs::Tracer::kApp, e.trace_app),
                     TraceArg::name(obs::Tracer::kTenant, tenant.trace_name),
                     TraceArg::num(obs::Tracer::kSignal, signal_id)});
    // Forensics: engine residency is the occupant timeline both execute
    // contention and WakeGate (dispatch_wait) blame resolve against.
    tracer_->occupant(engines_track_, tenant.name, op.started,
                      op.completed);
  }
}

void GpuScheduler::set_phase(int signal_id, policies::Phase phase) {
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  const std::size_t at = index_of(signal_id);
  if (at == view_.size() || view_[at].phase == phase) return;
  resume_ticks(Change::kServiceOrPhase);
  view_[at].phase = phase;
}

void GpuScheduler::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  engines_track_ = "gpu" + std::to_string(gid_) + ".engines";
  if (tracer_ == nullptr) return;
  for (Tenant& t : tenants_) t.trace_name = tracer_->intern(t.name);
  for (auto& [id, e] : rcb_) e.trace_app = tracer_->intern(e.app_type);
}

std::uint32_t GpuScheduler::intern_tenant(const std::string& tenant) {
  if (auto it = tenant_ids_.find(tenant); it != tenant_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(tenants_.size());
  tenant_ids_.emplace(tenant, id);
  tenants_.push_back({tenant});
  if (tracer_ != nullptr) tenants_.back().trace_name = tracer_->intern(tenant);
  return id;
}

sim::SimTime GpuScheduler::tenant_service(const std::string& tenant) const {
  auto it = tenant_ids_.find(tenant);
  return it == tenant_ids_.end() ? 0 : tenants_[it->second].service;
}

std::size_t GpuScheduler::index_of(int signal_id) const {
  const auto it = rcb_.find(signal_id);
  return static_cast<std::size_t>(it - rcb_.begin());
}

template <typename Decide>
void GpuScheduler::catch_up(std::vector<policies::RcbSnapshot>& view,
                            std::int64_t n, Decide decide) const {
  auto e = rcb_.begin();
  for (policies::RcbSnapshot& s : view) {
    s.epoch_service = s.total_service - (e++)->second.service_at_last_epoch;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    if (i == 1) {
      for (policies::RcbSnapshot& s : view) s.epoch_service = 0;
    }
    close_epoch(view);
    decide(i);
  }
}

std::vector<policies::RcbSnapshot> GpuScheduler::snapshot() const {
  ANALYSIS_READ(&rcb_, rcb_name(gid_));
  // Show the skipped grid points as run, as their ticks would have.
  const std::vector<policies::RcbSnapshot>* view = &view_;
  std::vector<policies::RcbSnapshot> caught_up;
  if (const std::int64_t n = skipped_points(); n > 0) {
    caught_up = view_;
    catch_up(caught_up, n, [](std::int64_t) {});
    view = &caught_up;
  }
  std::vector<policies::RcbSnapshot> out;
  out.reserve(rcb_.size());
  auto e = rcb_.begin();
  for (const policies::RcbSnapshot& s : *view) {
    const RcbEntry& entry = (e++)->second;
    if (!entry.acked) continue;
    policies::RcbSnapshot& o = out.emplace_back(s);
    o.backlogged = backlogged(entry);
    o.tenant_attained = tenants_[s.tenant_id].service;
  }
  return out;
}

sim::SimTime GpuScheduler::service_attained(int signal_id) const {
  const std::size_t at = index_of(signal_id);
  return at == view_.size() ? 0 : view_[at].total_service;
}

void GpuScheduler::arm_epoch(sim::SimTime delay) {
  if (!dispatches_ || epoch_armed_) return;
  epoch_armed_ = true;
  sim_.schedule_first(delay, static_cast<std::uint32_t>(gid_),
                      [this] { epoch_tick(); });
}

void GpuScheduler::epoch_tick() {
  epoch_armed_ = false;
  if (rcb_.empty()) return;
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  ++epochs_;

  // Dispatcher bookkeeping: the per-epoch service (GSn) and the tick's one
  // backlog reading of each entry, which close_epoch() and dispatch() use.
  auto e = rcb_.begin();
  for (policies::RcbSnapshot& s : view_) {
    RcbEntry& entry = (e++)->second;
    s.epoch_service = s.total_service - entry.service_at_last_epoch;
    entry.service_at_last_epoch = s.total_service;
    s.backlogged = backlogged(entry);
    s.tenant_attained = tenants_[s.tenant_id].service;
  }
  close_epoch(view_);
  assert(live_closes_ == epochs_ && "an epoch was not closed exactly once");

  const sim::SimTime now = sim_.now();
  dispatch(now);
  // Until an input changes, every later tick would see no service, the
  // same backlog, and CGS scaled by 1 - las_k: a decision that stands
  // until then would come back unchanged, so arm nothing (resume_ticks()
  // catches up). A backlog-bound decision stands through service and phase
  // changes too, whatever they do to CGS. The analyzer observes every
  // tick's RCB access, so it keeps them all.
  using policies::Quiescence;
  Quiescence q = analysis::enabled()
                     ? Quiescence::kEveryEpoch
                     : policy_->quiescence(now + config_.epoch);
  if (q == Quiescence::kUntilInputChanges && 1.0 - config_.las_k < 0.0) {
    q = Quiescence::kEveryEpoch;
  }
  if (q == Quiescence::kEveryEpoch) {
    arm_epoch(config_.epoch);
  } else {
    quiet_ = q;
    next_point_ = now + config_.epoch;
  }
}

std::int64_t GpuScheduler::skipped_points() const {
  if (quiet_ == policies::Quiescence::kEveryEpoch || sim_.now() < next_point_) {
    return 0;
  }
  return (sim_.now() - next_point_) / config_.epoch + 1;
}

void GpuScheduler::resume_ticks(Change change) {
  if (quiet_ == policies::Quiescence::kEveryEpoch) return;
  const std::int64_t n = skipped_points();
  // Each skipped tick would have found the backlog the last tick read (the
  // change that called us lands after them: a tick leads its instant),
  // closed its epoch, and decided the same awake set. The first closes the
  // service completed since the last closed point, the rest none. Run
  // their bookkeeping, then the last one's decision, at its own time, so
  // the policy's state (MQFQ's sticky slots) is what the ticks would have
  // left. Debug builds re-run every skipped decision and check it.
#ifdef NDEBUG
  constexpr bool kShadowCheck = false;
#else
  constexpr bool kShadowCheck = true;
#endif
  if (n > 0) {
    catch_up(view_, n, [&](std::int64_t i) {
      if (kShadowCheck || i + 1 == n) {
        [[maybe_unused]] const int moved =
            dispatch(next_point_ + i * config_.epoch);
        assert(moved == 0 && "a standing decision changed at a skipped tick");
      }
    });
    auto e = rcb_.begin();
    for (const policies::RcbSnapshot& s : view_) {
      (e++)->second.service_at_last_epoch = s.total_service;
    }
    epochs_ += n;
    assert(live_closes_ == epochs_ && "a replayed epoch was not closed once");
    next_point_ += n * config_.epoch;
  }
  // Service and phase cannot move a backlog-bound decision: the ticks stay
  // skipped, and the next change replays from here.
  if (change == Change::kServiceOrPhase &&
      quiet_ == policies::Quiescence::kUntilBacklogChanges) {
    assert(policy_->quiescence(next_point_) == quiet_);
    return;
  }
  quiet_ = policies::Quiescence::kEveryEpoch;
  arm_epoch(next_point_ - sim_.now());
}

void GpuScheduler::close_epoch(
    std::vector<policies::RcbSnapshot>& view) const {
#ifndef NDEBUG
  if (&view == &view_) ++live_closes_;
#endif
  // Decayed CGS (paper eq. 1), and entitlement accrual for TFS
  // (backlogged threads share the epoch by tenant weight — work
  // conservation).
  double backlogged_weight = 0.0;
  for (policies::RcbSnapshot& s : view) {
    s.cgs = config_.las_k * static_cast<double>(s.epoch_service) +
            (1.0 - config_.las_k) * s.cgs;
    if (s.backlogged) backlogged_weight += s.tenant_weight;
  }
  if (backlogged_weight > 0) {
    for (policies::RcbSnapshot& s : view) {
      if (!s.backlogged) continue;
      s.entitled += static_cast<sim::SimTime>(
          static_cast<double>(config_.epoch) * s.tenant_weight /
          backlogged_weight);
    }
  }
}

void GpuScheduler::run_dispatcher() {
  auto e = rcb_.begin();
  for (policies::RcbSnapshot& s : view_) {
    const RcbEntry& entry = (e++)->second;
    if (entry.acked) s.backlogged = backlogged(entry);
    s.tenant_attained = tenants_[s.tenant_id].service;
  }
  dispatch(sim_.now());
}

int GpuScheduler::dispatch(sim::SimTime now) {
  ANALYSIS_READ(&rcb_, rcb_name(gid_));
  const std::vector<policies::RcbSnapshot>* rcb = &view_;
  if (unacked_ > 0) {
    acked_view_.clear();
    auto e = rcb_.begin();
    for (const policies::RcbSnapshot& s : view_) {
      if ((e++)->second.acked) acked_view_.push_back(s);
    }
    rcb = &acked_view_;
  }
  // Keys come back in any order, but often ascending (AllAwake returns the
  // view's own order), so try the slot after the last match first.
  std::size_t next = 0;
  for (const std::uint64_t key : policy_->pick_awake(*rcb, now)) {
    std::size_t at = next;
    if (at >= view_.size() || view_[at].key != key) {
      if (key > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        continue;
      }
      at = index_of(static_cast<int>(key));
      if (at == view_.size()) continue;
    }
    (rcb_.begin() + static_cast<std::ptrdiff_t>(at))->second.picked = true;
    next = at + 1;
  }
  int moved = 0;
  for (auto& [id, e] : rcb_) {
    const bool keep_awake = e.picked;
    e.picked = false;
    if (!e.acked || e.awake == keep_awake) continue;
    e.awake = keep_awake;
    ++moved;
    if (e.gate == nullptr) continue;
    if (keep_awake) {
      ++wakes_;
    } else {
      ++sleeps_;
    }
    if (tracer_ != nullptr) {
      using obs::TraceArg;
      tracer_->dispatcher_event(gid_, keep_awake, now,
                                {TraceArg::name(obs::Tracer::kApp, e.trace_app),
                                 TraceArg::num(obs::Tracer::kSignal, id)});
    }
    e.gate->set(keep_awake);
  }
  return moved;
}

}  // namespace strings::core
