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
    : sim_(sim), gid_(gid), policy_(std::move(policy)), config_(config) {
  assert(policy_ != nullptr);
}

GpuScheduler::GpuScheduler(sim::Simulation& sim, Gid gid,
                           std::unique_ptr<policies::DeviceSchedPolicy> policy)
    : GpuScheduler(sim, gid, std::move(policy), Config{}) {}

int GpuScheduler::register_app(const RcbInit& init) {
  const int signal_id = next_signal_++;
  if (analysis::enabled()) {
    analysis::inv_rcb_register(gid_, signal_id, ANALYSIS_SITE);
  }
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  RcbEntry e;
  e.init = init;
  e.tenant_id = intern_tenant(init.tenant);
  e.registered_at = sim_.now();
  rcb_.emplace(signal_id, std::move(e));
  if (tracer_ != nullptr) {
    tracer_->gpu_counter(gid_, "queue_depth", sim_.now(), registered_count());
  }
  arm_epoch();
  return signal_id;
}

void GpuScheduler::ack(int signal_id) {
  if (analysis::enabled()) {
    analysis::inv_rcb_ack(gid_, signal_id, ANALYSIS_SITE);
  }
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  auto it = rcb_.find(signal_id);
  assert(it != rcb_.end() && "ack for unknown signal id");
  it->second.acked = true;
  run_dispatcher();  // let the new thread take effect immediately
  // The admit decision is the thread's first wake: gates are born open, so
  // run_dispatcher above records no transition when the policy keeps the
  // newcomer running. Count it (and render the instant) here instead;
  // policies that put the newcomer to sleep already logged the sleep.
  const RcbEntry& e = it->second;
  if (e.init.gate != nullptr && e.init.gate->awake()) {
    ++wakes_;
    if (tracer_ != nullptr) {
      tracer_->dispatcher_event(gid_, /*wake=*/true, sim_.now(),
                                {{"app", e.init.app_type},
                                 {"signal", std::to_string(signal_id)},
                                 {"admit", "1"}});
    }
  }
}

FeedbackRecord GpuScheduler::unregister_app(int signal_id) {
  if (analysis::enabled()) {
    analysis::inv_rcb_unregister(gid_, signal_id, ANALYSIS_SITE);
  }
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  auto it = rcb_.find(signal_id);
  assert(it != rcb_.end() && "unregister for unknown signal id");
  // Take the entry out before erasing: the RCB is flat storage, so erase
  // slides later entries into this slot and a reference would silently
  // alias a different app.
  const RcbEntry e = std::move(it->second);
  rcb_.erase(it);
  if (tracer_ != nullptr) {
    tracer_->gpu_counter(gid_, "queue_depth", sim_.now(), registered_count());
  }

  FeedbackRecord rec;
  rec.app_type = e.init.app_type;
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
  if (e.init.gate != nullptr) e.init.gate->set(true);
  if (tracer_ != nullptr) {
    // Attained-service hook for the profiler: snapshot the tenant's engine
    // residency (the quantity the LAS CGS math accumulates) at departure.
    char fmt[32];
    std::snprintf(fmt, sizeof fmt, "%.6f",
                  sim::to_seconds(tenants_[e.tenant_id].service));
    tracer_->gpu_instant(gid_, "fe.departure", sim_.now(),
                         {{"app", rec.app_type},
                          {"tenant", e.init.tenant},
                          {"tenant_attained_s", fmt}});
  }
  if (feedback_sink_) feedback_sink_(rec);
  run_dispatcher();
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
  auto it = rcb_.find(signal_id);
  if (it == rcb_.end()) return;  // late completion after unregister
  RcbEntry& e = it->second;
  const sim::SimTime begin =
      config_.measure_includes_wait ? op.submitted : op.started;
  const sim::SimTime duration = op.completed - begin;
  // Ground truth for fairness metrics: engine residency only. The RCB
  // fields below use the (possibly wait-inflated) measurement the scheduler
  // actually acts on — the distinction is the paper's explanation for
  // TFS-Rain's fairness error.
  tenants_[e.tenant_id].service += op.completed - op.started;
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
    const char* kind = op.kind == gpu::GpuDevice::OpKind::kKernel ? "KL"
                       : op.kind == gpu::GpuDevice::OpKind::kH2D ? "H2D"
                                                                 : "D2H";
    tracer_->gpu_op(gid_, kind, op.started, op.completed,
                    {{"app", e.init.app_type},
                     {"tenant", e.init.tenant},
                     {"signal", std::to_string(signal_id)}});
    // Forensics: engine residency is the occupant timeline both execute
    // contention and WakeGate (dispatch_wait) blame resolve against.
    tracer_->occupant(engines_track_, e.init.tenant, op.started,
                      op.completed);
  }
}

void GpuScheduler::set_phase(int signal_id, policies::Phase phase) {
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  auto it = rcb_.find(signal_id);
  if (it == rcb_.end()) return;
  it->second.phase = phase;
}

void GpuScheduler::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  engines_track_ = "gpu" + std::to_string(gid_) + ".engines";
}

std::uint32_t GpuScheduler::intern_tenant(const std::string& tenant) {
  if (auto it = tenant_ids_.find(tenant); it != tenant_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(tenants_.size());
  tenant_ids_.emplace(tenant, id);
  tenants_.push_back({tenant});
  return id;
}

sim::SimTime GpuScheduler::tenant_service(const std::string& tenant) const {
  auto it = tenant_ids_.find(tenant);
  return it == tenant_ids_.end() ? 0 : tenants_[it->second].service;
}

void GpuScheduler::fill_snapshot(std::vector<policies::RcbSnapshot>& out,
                                 bool probe) const {
  ANALYSIS_READ(&rcb_, rcb_name(gid_));
  for (const auto& [id, e] : rcb_) {
    if (!e.acked) continue;
    policies::RcbSnapshot& s = out.emplace_back();
    s.key = static_cast<std::uint64_t>(id);
    const Tenant& t = tenants_[e.tenant_id];
    s.tenant_id = e.tenant_id;
    s.tenant = t.name;
    s.tenant_weight = e.init.tenant_weight;
    s.total_service = total_service(e);
    s.epoch_service = e.epoch_service;
    s.cgs = e.cgs;
    s.entitled = e.entitled;
    s.phase = e.phase;
    s.backlogged = probe ? probe_backlog(e) : e.backlogged;
    s.tenant_attained = t.service;
  }
}

std::vector<policies::RcbSnapshot> GpuScheduler::snapshot() const {
  std::vector<policies::RcbSnapshot> out;
  out.reserve(rcb_.size());
  fill_snapshot(out, /*probe=*/true);
  return out;
}

sim::SimTime GpuScheduler::service_attained(int signal_id) const {
  auto it = rcb_.find(signal_id);
  return it == rcb_.end() ? 0 : total_service(it->second);
}

void GpuScheduler::arm_epoch() {
  if (epoch_armed_) return;
  epoch_armed_ = true;
  sim_.schedule(config_.epoch, [this] { epoch_tick(); });
}

void GpuScheduler::epoch_tick() {
  epoch_armed_ = false;
  if (rcb_.empty()) return;
  ANALYSIS_WRITE(&rcb_, rcb_name(gid_));
  ++epochs_;

  // Dispatcher bookkeeping: per-epoch service (GSn), decayed CGS, and
  // entitlement accrual for TFS (backlogged threads share the epoch by
  // tenant weight — work conservation).
  double backlogged_weight = 0.0;
  for (auto& [id, e] : rcb_) {
    const sim::SimTime total = total_service(e);
    e.epoch_service = total - e.service_at_last_epoch;
    e.service_at_last_epoch = total;
    e.cgs = config_.las_k * static_cast<double>(e.epoch_service) +
            (1.0 - config_.las_k) * e.cgs;
    // The tick's one probe of this entry; dispatch() reuses it.
    e.backlogged = probe_backlog(e);
    if (e.backlogged) backlogged_weight += e.init.tenant_weight;
  }
  if (backlogged_weight > 0) {
    for (auto& [id, e] : rcb_) {
      if (!e.backlogged) continue;
      e.entitled += static_cast<sim::SimTime>(
          static_cast<double>(config_.epoch) * e.init.tenant_weight /
          backlogged_weight);
    }
  }

  dispatch();
  arm_epoch();
}

void GpuScheduler::run_dispatcher() {
  for (auto& [id, e] : rcb_) {
    if (e.acked) e.backlogged = probe_backlog(e);
  }
  dispatch();
}

void GpuScheduler::dispatch() {
  snaps_.clear();
  fill_snapshot(snaps_, /*probe=*/false);
  for (const std::uint64_t key : policy_->pick_awake(snaps_, sim_.now())) {
    if (key > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      continue;
    }
    if (auto it = rcb_.find(static_cast<int>(key)); it != rcb_.end()) {
      it->second.picked = true;
    }
  }
  for (auto& [id, e] : rcb_) {
    const bool keep_awake = e.picked;
    e.picked = false;
    if (e.init.gate == nullptr || !e.acked) continue;
    if (e.init.gate->awake() != keep_awake) {
      if (keep_awake) {
        ++wakes_;
      } else {
        ++sleeps_;
      }
      if (tracer_ != nullptr) {
        tracer_->dispatcher_event(gid_, keep_awake, sim_.now(),
                                  {{"app", e.init.app_type},
                                   {"signal", std::to_string(id)}});
      }
    }
    e.init.gate->set(keep_awake);
  }
}

}  // namespace strings::core
