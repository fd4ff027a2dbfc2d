#include "gpu/gpu_device.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace strings::gpu {

namespace {
// Monotonic arrival order across all queues of one process run; used to pick
// the earliest-waiting context. Per-device would also work; global keeps Op
// light.
std::uint64_t g_next_op_seq = 0;
sim::SimTime ceil_positive(double ns) {
  if (ns <= 1.0) return 1;
  return static_cast<sim::SimTime>(std::ceil(ns - 1e-9));
}
}  // namespace

GpuDevice::GpuDevice(sim::Simulation& sim, int id, DeviceProps props, bool trace)
    : sim_(sim), id_(id), props_(std::move(props)), util_(trace) {
  assert(props_.compute_score > 0);
  assert(props_.pcie_gbps > 0);
  assert(props_.mem_bandwidth_gbps > 0);
  record_sample();  // initial all-idle state so the statistics cover t=0 on
}

sim::SimTime GpuDevice::kernel_duration(const KernelDesc& desc) const {
  return ceil_positive(static_cast<double>(desc.nominal_duration) /
                       props_.compute_score);
}

sim::SimTime GpuDevice::copy_duration(std::size_t bytes, bool pinned) const {
  // 1 GB/s == 1 byte/ns, so bytes / GBps is already nanoseconds.
  const double rate =
      props_.pcie_gbps * (pinned ? 1.0 : props_.pageable_factor);
  return props_.copy_latency +
         ceil_positive(static_cast<double>(bytes) / rate);
}

GpuDevice::OpRef GpuDevice::submit_copy(ContextId ctx, OpKind dir,
                                        std::size_t bytes, bool pinned) {
  assert(dir == OpKind::kH2D || dir == OpKind::kD2H);
  auto op = std::make_shared<Op>();
  op->kind = dir;
  op->ctx = ctx;
  op->bytes = bytes;
  op->pinned = pinned;
  op->submitted = sim_.now();
  op->seq = g_next_op_seq++;
  (dir == OpKind::kH2D ? h2d_ : d2h_).queue.push_back(op);
  reschedule();
  return op;
}

GpuDevice::OpRef GpuDevice::submit_kernel(ContextId ctx,
                                          const KernelDesc& desc) {
  auto op = std::make_shared<Op>();
  op->kind = OpKind::kKernel;
  op->ctx = ctx;
  op->kernel = desc;
  if (op->kernel.occupancy <= 0) op->kernel.occupancy = 0.01;
  op->submitted = sim_.now();
  op->seq = g_next_op_seq++;
  compute_queue_.push_back(op);
  reschedule();
  return op;
}

void GpuDevice::wait(const OpRef& op) {
  if (op->done) return;
  if (!op->done_event) op->done_event = std::make_unique<sim::Event>(sim_);
  while (!op->done) op->done_event->wait();
}

bool GpuDevice::try_alloc(ContextId ctx, std::size_t bytes) {
  if (memory_used_ + bytes > props_.memory_bytes) return false;
  memory_used_ += bytes;
  memory_by_ctx_[ctx] += bytes;
  return true;
}

void GpuDevice::release(ContextId ctx, std::size_t bytes) {
  auto it = memory_by_ctx_.find(ctx);
  assert(it != memory_by_ctx_.end() && it->second >= bytes);
  it->second -= bytes;
  memory_used_ -= bytes;
  if (it->second == 0) memory_by_ctx_.erase(it);
}

void GpuDevice::release_all(ContextId ctx) {
  auto it = memory_by_ctx_.find(ctx);
  if (it == memory_by_ctx_.end()) return;
  memory_used_ -= it->second;
  memory_by_ctx_.erase(it);
}

std::size_t GpuDevice::memory_used(ContextId ctx) const {
  auto it = memory_by_ctx_.find(ctx);
  return it == memory_by_ctx_.end() ? 0 : it->second;
}

int GpuDevice::ops_in_flight() const {
  return static_cast<int>(h2d_.queue.size() + d2h_.queue.size() +
                          compute_queue_.size() + resident_.size()) +
         (h2d_.current ? 1 : 0) + (d2h_.current ? 1 : 0);
}

// ---------------------------------------------------------------- internals

void GpuDevice::advance_compute() {
  const sim::SimTime now = sim_.now();
  const sim::SimTime elapsed = now - last_compute_advance_;
  last_compute_advance_ = now;
  if (resident_.empty() || elapsed == 0) return;
  counters_.compute_busy_time += elapsed;
  double occ_sum = 0.0, bw_sum = 0.0;
  for (const auto& rk : resident_) {
    occ_sum += rk.op->kernel.occupancy;
    bw_sum += rk.op->kernel.bw_demand_gbps;
  }
  for (auto& rk : resident_) {
    rk.remaining_ns -=
        static_cast<double>(elapsed) * kernel_rate(rk, occ_sum, bw_sum);
  }
}

double GpuDevice::kernel_rate(const ResidentKernel& rk, double occ_sum,
                              double bw_sum) const {
  const double sm_factor = occ_sum > 1.0 ? 1.0 / occ_sum : 1.0;
  double rate = sm_factor;
  if (rk.op->kernel.bw_demand_gbps > 0 && bw_sum > props_.mem_bandwidth_gbps) {
    rate = std::min(rate, props_.mem_bandwidth_gbps / bw_sum);
  }
  // Co-residency interference beyond the modelled resources.
  const int others = static_cast<int>(resident_.size()) - 1;
  if (others > 0 && props_.crowding_alpha > 0) {
    rate /= 1.0 + props_.crowding_alpha * others;
  }
  return rate;
}

void GpuDevice::schedule_compute_completion() {
  const std::uint64_t gen = ++compute_gen_;
  if (resident_.empty()) return;
  double occ_sum = 0.0, bw_sum = 0.0;
  for (const auto& rk : resident_) {
    occ_sum += rk.op->kernel.occupancy;
    bw_sum += rk.op->kernel.bw_demand_gbps;
  }
  double next_ns = std::numeric_limits<double>::max();
  for (const auto& rk : resident_) {
    next_ns = std::min(next_ns,
                       rk.remaining_ns / kernel_rate(rk, occ_sum, bw_sum));
  }
  sim_.schedule(ceil_positive(next_ns), [this, gen] {
    if (gen != compute_gen_) return;  // resident set changed meanwhile
    advance_compute();
    // Detach finished kernels first: completion callbacks may re-enter the
    // device (stream pumps submitting new work) and mutate resident_.
    // Events never nest, so no other completion touches finished_ while
    // this one walks it.
    for (auto it = resident_.begin(); it != resident_.end();) {
      if (it->remaining_ns <= 0.5) {
        finished_.push_back(std::move(it->op));
        it = resident_.erase(it);
      } else {
        ++it;
      }
    }
    // Survivors now run at new rates; re-arm the completion event.
    schedule_compute_completion();
    for (const auto& op : finished_) {
      ++counters_.kernels_completed;
      complete_op(op);
    }
    finished_.clear();
    reschedule();
  });
}

void GpuDevice::start_copy(CopyEngine& eng, OpKind kind) {
  eng.current = eng.queue.front();
  eng.queue.pop_front();
  eng.current->started = sim_.now();
  const sim::SimTime duration =
      copy_duration(eng.current->bytes, eng.current->pinned);
  OpRef op = eng.current;
  sim_.schedule(duration, [this, &eng, op, kind, duration] {
    assert(eng.current == op);
    eng.current = nullptr;
    complete_op(op);
    ++counters_.copies_completed;
    (kind == OpKind::kH2D ? counters_.h2d_busy_time : counters_.d2h_busy_time) +=
        duration;
    reschedule();
  });
}

void GpuDevice::complete_op(const OpRef& op) {
  op->done = true;
  op->completed = sim_.now();
  if (op->on_done) {
    op->on_done();
    op->on_done = {};
  }
  if (op->done_event) op->done_event->notify_all();
}

bool GpuDevice::device_drained() const {
  return resident_.empty() && !h2d_.current && !d2h_.current && !switching_;
}

std::optional<ContextId> GpuDevice::next_waiting_context() const {
  std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
  std::optional<ContextId> best;
  auto consider = [&](const OpRef& op) {
    if (active_ctx_ && op->ctx == *active_ctx_) return;
    if (op->seq < best_seq) {
      best_seq = op->seq;
      best = op->ctx;
    }
  };
  for (const auto& op : h2d_.queue) consider(op);
  for (const auto& op : d2h_.queue) consider(op);
  for (const auto& op : compute_queue_) consider(op);
  return best;
}

void GpuDevice::begin_context_switch(ContextId target) {
  switching_ = true;
  ++counters_.context_switches;
  counters_.context_switch_time += props_.ctx_switch;
  record_sample();
  sim_.schedule(props_.ctx_switch, [this, target] {
    switching_ = false;
    active_ctx_ = target;
    active_since_ = sim_.now();
    reschedule();
  });
}

void GpuDevice::reschedule() {
  if (switching_) return;

  if (!active_ctx_) {
    // First use: adopt the earliest-waiting context at no cost.
    std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
    std::optional<ContextId> first;
    auto consider = [&](const OpRef& op) {
      if (op->seq < best_seq) {
        best_seq = op->seq;
        first = op->ctx;
      }
    };
    for (const auto& op : h2d_.queue) consider(op);
    for (const auto& op : d2h_.queue) consider(op);
    for (const auto& op : compute_queue_) consider(op);
    if (!first) return;
    active_ctx_ = *first;
    active_since_ = sim_.now();
  }

  const auto waiting = next_waiting_context();
  const bool quantum_up =
      waiting.has_value() &&
      (sim_.now() - active_since_) >= props_.ctx_quantum;

  bool compute_changed = false;
  if (!quantum_up) {
    // Admit active-context work on every engine.
    if (!h2d_.current && !h2d_.queue.empty() &&
        h2d_.queue.front()->ctx == *active_ctx_) {
      start_copy(h2d_, OpKind::kH2D);
    }
    if (!d2h_.current && !d2h_.queue.empty() &&
        d2h_.queue.front()->ctx == *active_ctx_) {
      start_copy(d2h_, OpKind::kD2H);
    }
    while (static_cast<int>(resident_.size()) < props_.concurrent_kernels &&
           !compute_queue_.empty() &&
           compute_queue_.front()->ctx == *active_ctx_) {
      if (!compute_changed) {
        advance_compute();
        compute_changed = true;
      }
      OpRef op = compute_queue_.front();
      compute_queue_.pop_front();
      op->started = sim_.now();
      resident_.push_back(ResidentKernel{
          op, static_cast<double>(kernel_duration(op->kernel))});
    }
    if (compute_changed) schedule_compute_completion();
  }

  // Switch away once drained if another context is waiting and the active
  // context has nothing admissible (idle device) or its quantum expired.
  if (waiting && device_drained()) {
    const bool active_has_work =
        (!h2d_.queue.empty() && h2d_.queue.front()->ctx == *active_ctx_) ||
        (!d2h_.queue.empty() && d2h_.queue.front()->ctx == *active_ctx_) ||
        (!compute_queue_.empty() &&
         compute_queue_.front()->ctx == *active_ctx_);
    if (quantum_up || !active_has_work) {
      begin_context_switch(*waiting);
      return;
    }
  }
  record_sample();
}

void GpuDevice::record_sample() {
  if (!util_.enabled()) return;
  double occ_sum = 0.0, bw_sum = 0.0;
  for (const auto& rk : resident_) {
    occ_sum += rk.op->kernel.occupancy;
    bw_sum += rk.op->kernel.bw_demand_gbps;
  }
  UtilizationState s;
  s.compute_util = std::min(1.0, occ_sum);
  s.bw_util = std::min(1.0, bw_sum / props_.mem_bandwidth_gbps);
  s.idle = resident_.empty();
  s.switching = switching_;
  util_.record(sim_.now(), s);
}

}  // namespace strings::gpu
