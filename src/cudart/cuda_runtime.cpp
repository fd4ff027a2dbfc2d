#include "cudart/cuda_runtime.hpp"

#include <cassert>

#include "simcore/flat_map.hpp"

namespace strings::cuda {

const char* cudaGetErrorString(cudaError_t err) {
  switch (err) {
    case cudaError_t::cudaSuccess: return "no error";
    case cudaError_t::cudaErrorMemoryAllocation: return "out of memory";
    case cudaError_t::cudaErrorInvalidDevice: return "invalid device ordinal";
    case cudaError_t::cudaErrorInvalidValue: return "invalid argument";
    case cudaError_t::cudaErrorInvalidDevicePointer: return "invalid device pointer";
    case cudaError_t::cudaErrorInvalidResourceHandle: return "invalid resource handle";
    case cudaError_t::cudaErrorNotReady: return "device not ready";
    case cudaError_t::cudaErrorLaunchFailure: return "unspecified launch failure";
    case cudaError_t::cudaErrorNoDevice: return "no CUDA-capable device is detected";
    case cudaError_t::cudaErrorUnknown: return "unknown error";
  }
  return "unrecognized error code";
}

CudaRuntime::CudaRuntime(sim::Simulation& sim,
                         std::vector<gpu::GpuDevice*> devices)
    : sim_(sim), devices_(std::move(devices)) {}

ProcessId CudaRuntime::create_process() {
  const ProcessId pid = next_pid_++;
  auto& p = processes_[pid];
  p = std::make_unique<Process>();
  p->self = pid;
  return pid;
}

void CudaRuntime::destroy_process(ProcessId pid) {
  auto it = processes_.find(pid);
  if (it == processes_.end()) return;
  if (sim_.tearing_down()) {
    // Simulation shutdown: release resources without synchronizing (there
    // is no event loop left to complete outstanding work).
    for (auto& [dev_index, ctx] : it->second->contexts) {
      ctx->dev->release_all(ctx->ctx_id);
    }
    processes_.erase(it);
    return;
  }
  cudaThreadExit(pid);
  processes_.erase(pid);
}

CudaRuntime::Process* CudaRuntime::find_process(ProcessId pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

gpu::GpuDevice* CudaRuntime::device(int index) const {
  if (index < 0 || index >= static_cast<int>(devices_.size())) return nullptr;
  return devices_[static_cast<std::size_t>(index)];
}

CudaRuntime::Context& CudaRuntime::context_for(Process& p, int device) {
  auto it = p.contexts.find(device);
  if (it == p.contexts.end()) {
    auto ctx = std::make_unique<Context>();
    ctx->owner = p.self;
    ctx->ctx_id = next_ctx_++;
    ctx->dev = devices_[static_cast<std::size_t>(device)];
    ctx->drained = std::make_unique<sim::Event>(sim_);
    it = p.contexts.emplace(device, std::move(ctx)).first;
  }
  return *it->second;
}

cudaError_t CudaRuntime::fail(Process& p, cudaError_t err) {
  p.last_error = err;
  return err;
}

// ------------------------------------------------------------------ device

cudaError_t CudaRuntime::cudaGetDeviceCount(ProcessId pid, int* count) {
  Process* p = find_process(pid);
  if (p == nullptr || count == nullptr) return cudaError_t::cudaErrorInvalidValue;
  *count = static_cast<int>(devices_.size());
  return devices_.empty() ? fail(*p, cudaError_t::cudaErrorNoDevice)
                          : cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaGetDeviceProperties(ProcessId pid,
                                                 gpu::DeviceProps* props,
                                                 int device) {
  Process* p = find_process(pid);
  if (p == nullptr || props == nullptr) return cudaError_t::cudaErrorInvalidValue;
  if (device < 0 || device >= static_cast<int>(devices_.size())) {
    return fail(*p, cudaError_t::cudaErrorInvalidDevice);
  }
  *props = devices_[static_cast<std::size_t>(device)]->props();
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaSetDevice(ProcessId pid, int device) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  if (device < 0 || device >= static_cast<int>(devices_.size())) {
    return fail(*p, cudaError_t::cudaErrorInvalidDevice);
  }
  p->current_device = device;
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaGetDevice(ProcessId pid, int* device) {
  Process* p = find_process(pid);
  if (p == nullptr || device == nullptr) return cudaError_t::cudaErrorInvalidValue;
  *device = p->current_device;
  return cudaError_t::cudaSuccess;
}

// ------------------------------------------------------------------ memory

cudaError_t CudaRuntime::cudaMalloc(ProcessId pid, DevPtr* ptr,
                                    std::size_t bytes) {
  Process* p = find_process(pid);
  if (p == nullptr || ptr == nullptr || bytes == 0) {
    return cudaError_t::cudaErrorInvalidValue;
  }
  Context& ctx = context_for(*p, p->current_device);
  if (!ctx.dev->try_alloc(ctx.ctx_id, bytes)) {
    return fail(*p, cudaError_t::cudaErrorMemoryAllocation);
  }
  const DevPtr addr = next_ptr_;
  next_ptr_ += (bytes + 0xFFu) & ~std::uint64_t{0xFF};  // 256-byte aligned
  ctx.allocations[addr] = bytes;
  *ptr = addr;
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaFree(ProcessId pid, DevPtr ptr) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  Context& ctx = context_for(*p, p->current_device);
  auto it = ctx.allocations.find(ptr);
  if (it == ctx.allocations.end()) {
    return fail(*p, cudaError_t::cudaErrorInvalidDevicePointer);
  }
  ctx.dev->release(ctx.ctx_id, it->second);
  ctx.allocations.erase(it);
  return cudaError_t::cudaSuccess;
}

namespace {
bool pointer_valid(const sim::FlatMap<DevPtr, std::size_t>& allocs, DevPtr ptr,
                   std::size_t bytes) {
  auto it = allocs.upper_bound(ptr);
  if (it == allocs.begin()) return false;
  --it;
  return ptr + bytes <= it->first + it->second;
}
}  // namespace

cudaError_t CudaRuntime::cudaMemcpy(ProcessId pid, DevPtr dst_or_src,
                                    std::size_t bytes, cudaMemcpyKind kind,
                                    bool pinned_host) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  // Synchronous: enqueue on the default stream and block on an internal
  // marker event right behind it.
  cudaError_t err = cudaMemcpyAsync(pid, dst_or_src, bytes, kind,
                                    cudaStreamDefault, pinned_host);
  if (err != cudaError_t::cudaSuccess) return err;
  return cudaStreamSynchronize(pid, cudaStreamDefault);
}

cudaError_t CudaRuntime::cudaMemcpyAsync(ProcessId pid, DevPtr dst_or_src,
                                         std::size_t bytes,
                                         cudaMemcpyKind kind,
                                         cudaStream_t stream,
                                         bool pinned_host) {
  Process* p = find_process(pid);
  if (p == nullptr || bytes == 0) return cudaError_t::cudaErrorInvalidValue;
  Context& ctx = context_for(*p, p->current_device);
  if (!pointer_valid(ctx.allocations, dst_or_src, bytes)) {
    return fail(*p, cudaError_t::cudaErrorInvalidDevicePointer);
  }
  PendingOp op;
  if (kind == cudaMemcpyKind::cudaMemcpyDeviceToDevice) {
    // Device-internal copy: model as a short bandwidth-bound kernel (reads
    // and writes device memory once each).
    op.kind = PendingOp::Kind::kKernel;
    op.launch.name = "memcpyD2D";
    op.launch.desc.occupancy = 0.05;
    op.launch.desc.bw_demand_gbps = ctx.dev->props().mem_bandwidth_gbps;
    op.launch.desc.nominal_duration = std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(
               2.0 * static_cast<double>(bytes) /
               ctx.dev->props().mem_bandwidth_gbps));
  } else {
    op.kind = PendingOp::Kind::kCopy;
    op.copy_dir = kind == cudaMemcpyKind::cudaMemcpyHostToDevice
                      ? gpu::GpuDevice::OpKind::kH2D
                      : gpu::GpuDevice::OpKind::kD2H;
    op.bytes = bytes;
    op.pinned = pinned_host;
  }
  return enqueue(pid, stream, std::move(op));
}

// ----------------------------------------------------------------- kernels

cudaError_t CudaRuntime::cudaConfigureCall(ProcessId pid,
                                           cudaStream_t stream) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  p->pending_config_stream = stream;
  p->has_pending_config = true;
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaLaunch(ProcessId pid, const KernelLaunch& launch) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  const cudaStream_t stream =
      p->has_pending_config ? p->pending_config_stream : cudaStreamDefault;
  p->has_pending_config = false;
  return cudaLaunchKernel(pid, launch, stream);
}

cudaError_t CudaRuntime::cudaLaunchKernel(ProcessId pid,
                                          const KernelLaunch& launch,
                                          cudaStream_t stream) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  if (launch.desc.nominal_duration <= 0) {
    return fail(*p, cudaError_t::cudaErrorLaunchFailure);
  }
  PendingOp op;
  op.kind = PendingOp::Kind::kKernel;
  op.launch = launch;
  return enqueue(pid, stream, std::move(op));
}

// ----------------------------------------------------------------- streams

cudaError_t CudaRuntime::cudaStreamCreate(ProcessId pid,
                                          cudaStream_t* stream) {
  Process* p = find_process(pid);
  if (p == nullptr || stream == nullptr) return cudaError_t::cudaErrorInvalidValue;
  Context& ctx = context_for(*p, p->current_device);
  *stream = p->next_stream++;
  ctx.streams[*stream];  // default-construct
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaStreamDestroy(ProcessId pid,
                                           cudaStream_t stream) {
  Process* p = find_process(pid);
  if (p == nullptr || stream == cudaStreamDefault) {
    return cudaError_t::cudaErrorInvalidValue;
  }
  Context& ctx = context_for(*p, p->current_device);
  auto it = ctx.streams.find(stream);
  if (it == ctx.streams.end()) {
    return fail(*p, cudaError_t::cudaErrorInvalidResourceHandle);
  }
  // CUDA semantics: outstanding work completes, then the stream goes away.
  // Our ops reference the stream only through completion callbacks that
  // tolerate a missing entry, so erasing immediately is equivalent.
  it->second.count(-static_cast<int>(it->second.pending.size()) -
                   it->second.in_flight);
  ctx.streams.erase(it);
  p->stream_counters.erase({p->current_device, stream});
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaStreamQuery(ProcessId pid, cudaStream_t stream) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  Context& ctx = context_for(*p, p->current_device);
  auto it = ctx.streams.find(stream);
  if (it == ctx.streams.end() && stream != cudaStreamDefault) {
    return fail(*p, cudaError_t::cudaErrorInvalidResourceHandle);
  }
  if (it == ctx.streams.end()) return cudaError_t::cudaSuccess;
  return (it->second.pending.empty() && it->second.in_flight == 0)
             ? cudaError_t::cudaSuccess
             : cudaError_t::cudaErrorNotReady;
}

cudaError_t CudaRuntime::cudaStreamSynchronize(ProcessId pid,
                                               cudaStream_t stream) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  // Record an internal marker event behind everything currently enqueued and
  // wait for it — exactly the CUDA definition of stream synchronization.
  cudaEvent_t marker = 0;
  cudaError_t err = cudaEventCreate(pid, &marker);
  if (err != cudaError_t::cudaSuccess) return err;
  err = cudaEventRecord(pid, marker, stream);
  if (err != cudaError_t::cudaSuccess) {
    cudaEventDestroy(pid, marker);
    return err;
  }
  err = cudaEventSynchronize(pid, marker);
  cudaEventDestroy(pid, marker);
  return err;
}

cudaError_t CudaRuntime::cudaDeviceSynchronize(ProcessId pid) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  Context& ctx = context_for(*p, p->current_device);
  auto fully_drained = [&ctx] {
    if (ctx.total_in_flight != 0) return false;
    for (const auto& [id, st] : ctx.streams) {
      if (!st.pending.empty() || st.in_flight != 0) return false;
    }
    return true;
  };
  while (!fully_drained()) ctx.drained->wait();
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaThreadExit(ProcessId pid) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  // Synchronize and destroy every context this process owns.
  const int saved_device = p->current_device;
  for (auto& [dev_index, ctx] : p->contexts) {
    p->current_device = dev_index;
    cudaDeviceSynchronize(pid);
    ctx->dev->release_all(ctx->ctx_id);
  }
  p->contexts.clear();
  p->current_device = saved_device;
  p->has_pending_config = false;
  return cudaError_t::cudaSuccess;
}

// ------------------------------------------------------------------ events

cudaError_t CudaRuntime::cudaEventCreate(ProcessId pid, cudaEvent_t* event) {
  Process* p = find_process(pid);
  if (p == nullptr || event == nullptr) return cudaError_t::cudaErrorInvalidValue;
  *event = p->next_event++;
  EventState& st = p->events[*event];
  st.done = std::make_unique<sim::Event>(sim_);
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaEventRecord(ProcessId pid, cudaEvent_t event,
                                         cudaStream_t stream) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  auto it = p->events.find(event);
  if (it == p->events.end()) {
    return fail(*p, cudaError_t::cudaErrorInvalidResourceHandle);
  }
  // Mark before enqueueing (the pump may consume the record synchronously),
  // but roll back on failure — otherwise a later cudaEventSynchronize would
  // wait forever on a record that never entered any stream.
  it->second.recorded = true;
  it->second.completed = false;
  PendingOp op;
  op.kind = PendingOp::Kind::kEventRecord;
  op.event = event;
  const cudaError_t err = enqueue(pid, stream, std::move(op));
  if (err != cudaError_t::cudaSuccess) it->second.recorded = false;
  return err;
}

cudaError_t CudaRuntime::cudaEventSynchronize(ProcessId pid,
                                              cudaEvent_t event) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  auto it = p->events.find(event);
  if (it == p->events.end()) {
    return fail(*p, cudaError_t::cudaErrorInvalidResourceHandle);
  }
  if (!it->second.recorded) return cudaError_t::cudaSuccess;
  // The events table is flat: a concurrent cudaEventCreate from another
  // worker fiber moves entries while this one blocks, so re-find after every
  // wake instead of holding the iterator. The sim::Event is heap-owned and
  // pointer-stable for the life of the entry.
  sim::Event* done = it->second.done.get();
  for (;;) {
    auto cur = p->events.find(event);
    if (cur == p->events.end() || cur->second.completed) break;
    done->wait();
  }
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaEventElapsedTime(ProcessId pid, double* ms,
                                              cudaEvent_t start,
                                              cudaEvent_t end) {
  Process* p = find_process(pid);
  if (p == nullptr || ms == nullptr) return cudaError_t::cudaErrorInvalidValue;
  auto s = p->events.find(start);
  auto e = p->events.find(end);
  if (s == p->events.end() || e == p->events.end()) {
    return fail(*p, cudaError_t::cudaErrorInvalidResourceHandle);
  }
  if (!s->second.completed || !e->second.completed) {
    return fail(*p, cudaError_t::cudaErrorNotReady);
  }
  *ms = sim::to_millis(e->second.completed_at - s->second.completed_at);
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaEventDestroy(ProcessId pid, cudaEvent_t event) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  p->events.erase(event);
  return cudaError_t::cudaSuccess;
}

cudaError_t CudaRuntime::cudaGetLastError(ProcessId pid) {
  Process* p = find_process(pid);
  if (p == nullptr) return cudaError_t::cudaErrorInvalidValue;
  const cudaError_t err = p->last_error;
  p->last_error = cudaError_t::cudaSuccess;
  return err;
}

void CudaRuntime::count_stream_ops(ProcessId pid, int device,
                                   cudaStream_t stream,
                                   sim::Backlog* backlog) {
  Process* p = find_process(pid);
  if (p == nullptr) return;
  p->stream_counters.insert_or_assign({device, stream}, backlog);
  auto cit = p->contexts.find(device);
  if (cit == p->contexts.end()) return;
  auto sit = cit->second->streams.find(stream);
  if (sit == cit->second->streams.end()) return;
  sit->second.counter = backlog;
  sit->second.count(static_cast<int>(sit->second.pending.size()) +
                    sit->second.in_flight);
}

int CudaRuntime::outstanding_ops(ProcessId pid, int device) const {
  auto pit = processes_.find(pid);
  if (pit == processes_.end()) return 0;
  auto cit = pit->second->contexts.find(device);
  if (cit == pit->second->contexts.end()) return 0;
  int n = cit->second->total_in_flight;
  for (const auto& [id, st] : cit->second->streams) {
    n += static_cast<int>(st.pending.size());
  }
  return n;
}

// ------------------------------------------------------- stream machinery

bool CudaRuntime::stream_may_submit(const Context& ctx,
                                    cudaStream_t stream) const {
  auto dit = ctx.streams.find(cudaStreamDefault);
  const StreamState* def =
      dit == ctx.streams.end() ? nullptr : &dit->second;
  if (stream == cudaStreamDefault) {
    // Legacy default stream: full-context barrier.
    return ctx.total_in_flight == 0;
  }
  // Other streams stall while default-stream work is pending or in flight.
  return def == nullptr || (def->pending.empty() && def->in_flight == 0);
}

cudaError_t CudaRuntime::enqueue(ProcessId pid, cudaStream_t stream,
                                 PendingOp op) {
  Process* p = find_process(pid);
  assert(p != nullptr);
  Context& ctx = context_for(*p, p->current_device);
  if (stream != cudaStreamDefault && !ctx.streams.contains(stream)) {
    return fail(*p, cudaError_t::cudaErrorInvalidResourceHandle);
  }
  auto [sit, created] = ctx.streams.emplace(stream);
  StreamState& st = sit->second;
  if (created) {
    auto counter = p->stream_counters.find({p->current_device, stream});
    if (counter != p->stream_counters.end()) st.counter = counter->second;
  }
  st.pending.push_back(std::move(op));
  st.count(1);
  pump_after(ctx, stream);
  return cudaError_t::cudaSuccess;
}

bool CudaRuntime::default_stream_busy(const Context& ctx) const {
  auto dit = ctx.streams.find(cudaStreamDefault);
  return dit != ctx.streams.end() &&
         (!dit->second.pending.empty() || dit->second.in_flight != 0);
}

void CudaRuntime::pump_after(Context& ctx, cudaStream_t stream) {
  // After every pump, each stream is in flight, empty, or blocked behind the
  // default stream. An enqueue or completion on a private stream therefore
  // makes no stream but its own admissible — unless the default stream has
  // work, whose draining may release all of them.
  if (stream != cudaStreamDefault && !default_stream_busy(ctx)) {
    pump_stream(ctx, stream);
    return;
  }
  // Default stream first (it gates the others), then the rest in ascending
  // id — none of which may submit while the default stream stays busy.
  pump_stream(ctx, cudaStreamDefault);
  if (default_stream_busy(ctx)) return;
  for (auto& [id, st] : ctx.streams) {
    if (id != cudaStreamDefault) pump_stream(ctx, id);
  }
}

void CudaRuntime::pump_stream(Context& ctx, cudaStream_t stream) {
  auto sit = ctx.streams.find(stream);
  if (sit == ctx.streams.end()) return;
  StreamState& st = sit->second;
  while (st.in_flight == 0 && !st.pending.empty() &&
         stream_may_submit(ctx, stream)) {
    PendingOp op = std::move(st.pending.front());
    st.pending.pop_front();
    if (op.kind == PendingOp::Kind::kEventRecord) {
      st.count(-1);
      // All prior work in this stream has completed (FIFO + in_flight == 0),
      // so the event completes immediately.
      if (Process* owner = find_process(ctx.owner)) {
        auto eit = owner->events.find(op.event);
        if (eit != owner->events.end() && eit->second.recorded &&
            !eit->second.completed) {
          eit->second.completed = true;
          eit->second.completed_at = sim_.now();
          eit->second.done->notify_all();
        }
      }
      // Record may unblock a cudaDeviceSynchronize-style waiter.
      if (ctx.total_in_flight == 0) ctx.drained->notify_all();
      continue;
    }
    gpu::GpuDevice::OpRef dev_op;
    if (op.kind == PendingOp::Kind::kCopy) {
      dev_op = ctx.dev->submit_copy(ctx.ctx_id, op.copy_dir, op.bytes,
                                    op.pinned);
    } else {
      dev_op = ctx.dev->submit_kernel(ctx.ctx_id, op.launch.desc);
    }
    st.in_flight = 1;
    ++ctx.total_in_flight;
    const ProcessId owner = ctx.owner;
    dev_op->on_done = [this, &ctx, stream, owner, op_ptr = dev_op.get()] {
      op_finished(ctx, stream);
      if (op_observer_) op_observer_(owner, stream, *op_ptr);
    };
  }
}

void CudaRuntime::op_finished(Context& ctx, cudaStream_t stream) {
  auto sit = ctx.streams.find(stream);
  if (sit != ctx.streams.end()) {
    sit->second.count(-sit->second.in_flight);
    sit->second.in_flight = 0;
  }
  --ctx.total_in_flight;
  if (ctx.total_in_flight == 0) ctx.drained->notify_all();
  pump_after(ctx, stream);
}

}  // namespace strings::cuda
