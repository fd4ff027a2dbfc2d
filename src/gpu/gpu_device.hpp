// Simulated GPU device with three hardware engines.
//
// A GpuDevice executes three kinds of operations in virtual time:
//   - H2D copies on a host-to-device copy engine (FIFO, PCIe bandwidth),
//   - D2H copies on a device-to-host copy engine (FIFO, PCIe bandwidth),
//   - kernels on a compute engine that space-shares co-resident kernels with
//     a fluid contention model over SM occupancy and memory bandwidth.
//
// The device multiplexes GPU *contexts* the way the CUDA driver does: only
// operations of the active context may run; switching costs
// DeviceProps::ctx_switch and happens only when the device drains, with a
// minimum residency quantum so waiting contexts are not starved. Operations
// of a single context overlap freely across the three engines (CUDA streams)
// — this asymmetry is what the Strings context packer exploits.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "gpu/device_props.hpp"
#include "gpu/utilization.hpp"
#include "simcore/flat_map.hpp"
#include "simcore/simulation.hpp"
#include "simcore/small_fn.hpp"

namespace strings::gpu {

/// Identifies a GPU context (one per host process per device, CUDA >= 4.0).
using ContextId = std::uint64_t;

/// Timing/resource demand of one kernel launch.
struct KernelDesc {
  /// Standalone duration on the reference device (Tesla C2050).
  sim::SimTime nominal_duration = 0;
  /// Fraction of the device's SMs the kernel occupies, in (0, 1].
  double occupancy = 1.0;
  /// Device-memory bandwidth demand at full speed, GB/s.
  double bw_demand_gbps = 0.0;
};

/// Aggregate counters kept by the device (monotonic).
struct DeviceCounters {
  std::int64_t kernels_completed = 0;
  std::int64_t copies_completed = 0;
  std::int64_t context_switches = 0;
  sim::SimTime context_switch_time = 0;
  sim::SimTime compute_busy_time = 0;  // >=1 kernel resident
  sim::SimTime h2d_busy_time = 0;
  sim::SimTime d2h_busy_time = 0;
};

class GpuDevice {
 public:
  enum class OpKind { kH2D, kD2H, kKernel };

  /// One queued/running/completed device operation. Shared with callers so a
  /// completed op can be inspected after the device forgets it.
  ///
  /// Completing an op allocates nothing: its one completion callback lives
  /// inline in a SmallFn, and the Event that wait() blocks on is made by the
  /// first wait() that finds the op still running. Most ops are never waited
  /// on directly (the CUDA runtime chains stream successors through
  /// on_done), so most never get one; completion notifies it only if it
  /// exists, which wakes exactly the waiters an eager Event would have.
  struct Op {
    OpKind kind;
    ContextId ctx;
    std::size_t bytes = 0;   // copies
    bool pinned = false;     // copies: pinned host memory (full PCIe speed)
    KernelDesc kernel;       // kernels
    sim::SimTime submitted = -1;
    sim::SimTime started = -1;
    sim::SimTime completed = -1;
    bool done = false;
    std::uint64_t seq = 0;  // global arrival order, for context FIFO
    std::unique_ptr<sim::Event> done_event;  // made by the first wait()
    /// Invoked once (in kernel context) when the op completes, before
    /// waiters are woken. Used by the CUDA-runtime layer to chain stream
    /// successors.
    sim::SmallFn on_done;
  };
  using OpRef = std::shared_ptr<Op>;

  GpuDevice(sim::Simulation& sim, int id, DeviceProps props,
            bool trace = false);

  int id() const { return id_; }
  const DeviceProps& props() const { return props_; }

  /// Enqueues a host-to-device or device-to-host transfer of `bytes`.
  /// Pinned host buffers transfer at full PCIe speed; pageable ones pay
  /// DeviceProps::pageable_factor.
  OpRef submit_copy(ContextId ctx, OpKind dir, std::size_t bytes,
                    bool pinned = false);

  /// Enqueues a kernel launch.
  OpRef submit_kernel(ContextId ctx, const KernelDesc& desc);

  /// Blocks the calling process until `op` completes.
  void wait(const OpRef& op);

  /// Device-memory accounting. Returns false when the allocation does not
  /// fit (cudaErrorMemoryAllocation upstream).
  bool try_alloc(ContextId ctx, std::size_t bytes);
  void release(ContextId ctx, std::size_t bytes);
  /// Frees everything a context owns (context teardown).
  void release_all(ContextId ctx);
  std::size_t memory_used() const { return memory_used_; }
  std::size_t memory_used(ContextId ctx) const;

  /// Number of ops currently queued or running (all engines).
  int ops_in_flight() const;

  const DeviceCounters& counters() const { return counters_; }
  /// Fig. 1/2 utilization statistics; records only when built with trace.
  const UtilizationAccumulator& utilization() const { return util_; }

  /// Effective standalone duration of `desc` on this device.
  sim::SimTime kernel_duration(const KernelDesc& desc) const;

  /// Duration of a copy of `bytes` on this device's copy engine.
  sim::SimTime copy_duration(std::size_t bytes, bool pinned = true) const;

 private:
  struct CopyEngine {
    OpRef current;
    std::deque<OpRef> queue;
    std::uint64_t completion_gen = 0;
  };
  struct ResidentKernel {
    OpRef op;
    double remaining_ns;  // at full speed on this device
  };

  void reschedule();
  // Fluid-model bookkeeping for the compute engine.
  void advance_compute();
  double kernel_rate(const ResidentKernel& rk, double occ_sum,
                     double bw_sum) const;
  void schedule_compute_completion();
  void start_copy(CopyEngine& eng, OpKind kind);
  void complete_op(const OpRef& op);
  // Context multiplexing.
  bool admissible(ContextId ctx) const;
  std::optional<ContextId> next_waiting_context() const;
  bool device_drained() const;
  void begin_context_switch(ContextId target);
  void record_sample();

  sim::Simulation& sim_;
  int id_;
  DeviceProps props_;

  CopyEngine h2d_;
  CopyEngine d2h_;
  std::deque<OpRef> compute_queue_;
  std::vector<ResidentKernel> resident_;
  /// Scratch for the kernels one compute completion detaches; kept so the
  /// completion event allocates nothing.
  std::vector<OpRef> finished_;
  sim::SimTime last_compute_advance_ = 0;
  std::uint64_t compute_gen_ = 0;

  std::optional<ContextId> active_ctx_;
  sim::SimTime active_since_ = 0;
  bool switching_ = false;

  sim::FlatMap<ContextId, std::size_t> memory_by_ctx_;
  std::size_t memory_used_ = 0;

  DeviceCounters counters_;
  // Busy-time accounting bookmarks.
  sim::SimTime compute_busy_since_ = -1;
  sim::SimTime h2d_busy_since_ = -1;
  sim::SimTime d2h_busy_since_ = -1;

  UtilizationAccumulator util_;
};

}  // namespace strings::gpu
