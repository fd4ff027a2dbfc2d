// Context Packer (paper §III-C): packs the GPU components of every
// application sharing a GPU into one GPU context, on the fly.
//
//   Stream Creator (SC)            — a private CUDA stream per application,
//     created on its first GPU request, torn down on cudaThreadExit.
//   Auto Stream Translator (AST)   — every default-stream operation is
//     retargeted onto the application's private stream.
//   Sync Stream Translator (SST)   — cudaDeviceSynchronize becomes
//     cudaStreamSynchronize on the app's stream, so one app's barrier never
//     stalls the others packed into the context.
//   Memory Operation Translator (MOT) — synchronous H2D copies are staged
//     into pinned host memory (tracked in the Pinned Memory Table) and
//     issued as cudaMemcpyAsync; the pinned buffer is released on the app's
//     next synchronization point, D2H copy, or exit.
//
// One ContextPacker exists per GPU and operates within the per-GPU backend
// process (Design III), so all packed applications share one GPU context.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cudart/cuda_runtime.hpp"
#include "simcore/flat_map.hpp"
#include "simcore/simulation.hpp"

namespace strings::backend {

class ContextPacker {
 public:
  struct Config {
    /// Host-side memcpy rate into the pinned staging buffer (GB/s); the
    /// backend thread pays this before issuing the async copy. Host DRAM
    /// copies run well above PCIe speed, which is why MOT's staging wins.
    double staging_gbps = 20.0;
    /// MOT: convert synchronous H2D copies to staged async copies.
    bool convert_sync_to_async = true;
    /// SST: convert device synchronization to stream synchronization.
    bool convert_device_sync = true;
  };

  /// `device_pid` is the per-GPU backend process, already bound to its GPU.
  /// `gid` is the packed context's global GPU id — it names this packer's
  /// streams and tables in analysis reports (ProcessIds restart per node
  /// runtime, so they cannot identify a context deployment-wide).
  ContextPacker(sim::Simulation& sim, cuda::CudaRuntime& rt,
                cuda::ProcessId device_pid, Config config, int gid = -1);

  /// SC: creates (once) and returns the application's private stream.
  cuda::cudaStream_t stream_for(std::uint64_t app_id);

  /// MOT + AST: a synchronous cudaMemcpy from the app. H2D returns as soon
  /// as the staged async copy is issued; D2H synchronizes the stream first
  /// (output data), then performs the blocking copy and trims the PMT.
  cuda::cudaError_t memcpy_sync(std::uint64_t app_id, cuda::DevPtr ptr,
                                std::size_t bytes, cuda::cudaMemcpyKind kind);

  /// AST: an already-asynchronous copy, retargeted to the app's stream.
  cuda::cudaError_t memcpy_async(std::uint64_t app_id, cuda::DevPtr ptr,
                                 std::size_t bytes, cuda::cudaMemcpyKind kind);

  /// AST: kernel launch on the app's stream.
  cuda::cudaError_t launch(std::uint64_t app_id,
                           const cuda::KernelLaunch& kl);

  /// SST: app-level cudaDeviceSynchronize -> stream synchronize; frees the
  /// app's completed pinned staging buffers.
  cuda::cudaError_t device_synchronize(std::uint64_t app_id);

  /// Tear-down on cudaThreadExit: synchronize, release PMT entries, destroy
  /// the stream.
  cuda::cudaError_t thread_exit(std::uint64_t app_id);

  // ---- introspection ----
  /// The Pinned Memory Table (paper Fig. 6 "PMT"): bytes each app has
  /// staged since its last synchronization point.
  const sim::FlatMap<std::uint64_t, std::size_t>& pmt() const { return pmt_; }
  std::size_t pinned_bytes() const { return pinned_bytes_; }
  cuda::ProcessId device_pid() const { return device_pid_; }
  int packed_apps() const { return static_cast<int>(streams_.size()); }

 private:
  void release_pmt_entries(std::uint64_t app_id);
  void stage_into_pinned(std::size_t bytes);

  sim::Simulation& sim_;
  cuda::CudaRuntime& rt_;
  cuda::ProcessId device_pid_;
  Config config_;
  int gid_;
  sim::FlatMap<std::uint64_t, cuda::cudaStream_t> streams_;
  sim::FlatMap<std::uint64_t, std::size_t> pmt_;
  std::size_t pinned_bytes_ = 0;
};

}  // namespace strings::backend
