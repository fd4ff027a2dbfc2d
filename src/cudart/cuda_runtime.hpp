// Simulated CUDA runtime for one node.
//
// Owns the node's GpuDevices and implements the intercepted API subset with
// CUDA 5.0 semantics on top of them:
//   - one GPU context per host process per device (lazily created),
//   - per-stream FIFO ordering; ops in different streams of one context may
//     overlap on the device's three engines,
//   - legacy default-stream semantics: an op on stream 0 waits until the
//     whole context drains, and no other stream submits while stream-0 work
//     is pending or in flight,
//   - synchronous cudaMemcpy blocks the caller; cudaMemcpyAsync returns
//     immediately,
//   - cudaDeviceSynchronize blocks until every stream of the context on the
//     current device drains (the blocking call Strings' SST rewrites),
//   - cudaThreadExit synchronizes and destroys all of the process's contexts.
//
// Blocking entry points must be called from a simulation process. Async
// entry points may be called from any context.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cudart/cuda_types.hpp"
#include "gpu/gpu_device.hpp"
#include "simcore/backlog.hpp"
#include "simcore/flat_map.hpp"
#include "simcore/simulation.hpp"

namespace strings::cuda {

class CudaRuntime {
 public:
  CudaRuntime(sim::Simulation& sim, std::vector<gpu::GpuDevice*> devices);

  /// Registers a new host process and returns its id.
  ProcessId create_process();

  /// Tears a host process down (implicit cudaThreadExit at app exit).
  /// Must be called from process context if any work may be outstanding.
  void destroy_process(ProcessId pid);

  // --- device management ----------------------------------------------
  cudaError_t cudaGetDeviceCount(ProcessId pid, int* count);
  cudaError_t cudaGetDeviceProperties(ProcessId pid, gpu::DeviceProps* props,
                                      int device);
  cudaError_t cudaSetDevice(ProcessId pid, int device);
  cudaError_t cudaGetDevice(ProcessId pid, int* device);

  // --- memory -----------------------------------------------------------
  cudaError_t cudaMalloc(ProcessId pid, DevPtr* ptr, std::size_t bytes);
  cudaError_t cudaFree(ProcessId pid, DevPtr ptr);

  /// Synchronous copy: enqueues on the default stream and blocks until done.
  /// `pinned_host` marks the host buffer as page-locked (full PCIe speed);
  /// pageable buffers pay DeviceProps::pageable_factor.
  cudaError_t cudaMemcpy(ProcessId pid, DevPtr dst_or_src, std::size_t bytes,
                         cudaMemcpyKind kind, bool pinned_host = false);

  /// Asynchronous copy on `stream`; returns immediately.
  cudaError_t cudaMemcpyAsync(ProcessId pid, DevPtr dst_or_src,
                              std::size_t bytes, cudaMemcpyKind kind,
                              cudaStream_t stream, bool pinned_host = false);

  // --- kernels ---------------------------------------------------------
  /// Stores the launch configuration (stream) for the next cudaLaunch, as
  /// the CUDA 5 runtime does internally. This is the call the paper's Auto
  /// Stream Translator rewrites.
  cudaError_t cudaConfigureCall(ProcessId pid, cudaStream_t stream);

  /// Launches a kernel using the pending configuration (default stream if
  /// none). Asynchronous.
  cudaError_t cudaLaunch(ProcessId pid, const KernelLaunch& launch);

  /// Convenience: configure + launch on `stream`.
  cudaError_t cudaLaunchKernel(ProcessId pid, const KernelLaunch& launch,
                               cudaStream_t stream);

  // --- streams & synchronization ----------------------------------------
  cudaError_t cudaStreamCreate(ProcessId pid, cudaStream_t* stream);
  cudaError_t cudaStreamDestroy(ProcessId pid, cudaStream_t stream);
  cudaError_t cudaStreamSynchronize(ProcessId pid, cudaStream_t stream);
  cudaError_t cudaStreamQuery(ProcessId pid, cudaStream_t stream);
  cudaError_t cudaDeviceSynchronize(ProcessId pid);
  cudaError_t cudaThreadExit(ProcessId pid);

  // --- events ------------------------------------------------------------
  cudaError_t cudaEventCreate(ProcessId pid, cudaEvent_t* event);
  cudaError_t cudaEventRecord(ProcessId pid, cudaEvent_t event,
                              cudaStream_t stream);
  cudaError_t cudaEventSynchronize(ProcessId pid, cudaEvent_t event);
  /// Elapsed virtual time between two completed events, in milliseconds.
  cudaError_t cudaEventElapsedTime(ProcessId pid, double* ms,
                                   cudaEvent_t start, cudaEvent_t end);
  cudaError_t cudaEventDestroy(ProcessId pid, cudaEvent_t event);

  cudaError_t cudaGetLastError(ProcessId pid);

  /// Device backing a (process, device) context, for instrumentation.
  gpu::GpuDevice* device(int index) const;
  int device_count() const { return static_cast<int>(devices_.size()); }

  /// Keeps `*backlog` counting the ops queued or in flight on one stream of
  /// the process's context on `device` (Strings workers share a process;
  /// backlog is per stream): adds the stream's current count, then +1 per
  /// op enqueued and -1 per op leaving it — a device op at completion, an
  /// event record when it fires, every op when the stream is destroyed. A
  /// stream created later under that id (a default stream is created by
  /// its first op) is counted too. One backlog per stream.
  void count_stream_ops(ProcessId pid, int device, cudaStream_t stream,
                        sim::Backlog* backlog);

  /// Observer invoked on every device-op completion with the owning process,
  /// the stream it ran on, and the op's timing — the Request Monitor's food.
  using OpObserver = std::function<void(
      ProcessId, cudaStream_t, const gpu::GpuDevice::Op&)>;
  void set_op_observer(OpObserver obs) { op_observer_ = std::move(obs); }

 private:
  struct PendingOp {
    enum class Kind { kCopy, kKernel, kEventRecord } kind;
    gpu::GpuDevice::OpKind copy_dir = gpu::GpuDevice::OpKind::kH2D;
    std::size_t bytes = 0;
    bool pinned = false;
    KernelLaunch launch;
    cudaEvent_t event = 0;
  };
  struct StreamState {
    std::deque<PendingOp> pending;
    int in_flight = 0;  // 0 or 1: stream order is FIFO
    sim::Backlog* counter = nullptr;  // count_stream_ops(), if any
    void count(int delta) {
      if (counter != nullptr) counter->add(delta);
    }
  };
  struct EventState {
    bool recorded = false;   // recorded into some stream
    bool completed = false;
    sim::SimTime completed_at = -1;
    std::unique_ptr<sim::Event> done;
  };
  struct Context {
    ProcessId owner = 0;
    gpu::ContextId ctx_id;
    gpu::GpuDevice* dev;
    sim::FlatMap<cudaStream_t, StreamState> streams;
    sim::FlatMap<DevPtr, std::size_t> allocations;
    int total_in_flight = 0;
    std::unique_ptr<sim::Event> drained;  // notified when total drains to 0
  };
  struct Process {
    ProcessId self = 0;
    int current_device = 0;
    cudaStream_t pending_config_stream = cudaStreamDefault;
    bool has_pending_config = false;
    std::uint64_t next_stream = 1;
    std::uint64_t next_event = 1;
    // Kept as std::map: cudaThreadExit iterates while blocking, and
    // concurrent workers may lazily create contexts — node-based iterators
    // survive that, flat-vector ones would not.
    std::map<int, std::unique_ptr<Context>> contexts;  // by device index
    // Flat table: entries move on insert, so blocking waiters must re-find
    // (see cudaEventSynchronize) instead of holding iterators.
    sim::FlatMap<cudaEvent_t, EventState> events;
    cudaError_t last_error = cudaError_t::cudaSuccess;
    /// count_stream_ops() counters by (device, stream), for streams that
    /// do not exist yet.
    sim::FlatMap<std::pair<int, cudaStream_t>, sim::Backlog*> stream_counters;
  };

  Process* find_process(ProcessId pid);
  Context& context_for(Process& p, int device);
  cudaError_t enqueue(ProcessId pid, cudaStream_t stream, PendingOp op);
  // Tries to hand the next admissible op of `stream` to the device.
  void pump_stream(Context& ctx, cudaStream_t stream);
  // Pumps the streams an enqueue or completion on `stream` can have made
  // admissible, in the order the default-stream rule requires.
  void pump_after(Context& ctx, cudaStream_t stream);
  bool default_stream_busy(const Context& ctx) const;
  bool stream_may_submit(const Context& ctx, cudaStream_t stream) const;
  void op_finished(Context& ctx, cudaStream_t stream);
  cudaError_t fail(Process& p, cudaError_t err);

  sim::Simulation& sim_;
  std::vector<gpu::GpuDevice*> devices_;
  /// unique_ptr values keep Process* stable while the flat table's vector
  /// reallocates on process arrival/departure (workers hold Process* across
  /// blocking waits).
  sim::FlatMap<ProcessId, std::unique_ptr<Process>> processes_;
  ProcessId next_pid_ = 1;
  gpu::ContextId next_ctx_ = 1;
  DevPtr next_ptr_ = 0x1000;
  OpObserver op_observer_;
};

}  // namespace strings::cuda
