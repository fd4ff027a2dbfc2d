#include "backend/context_packer.hpp"

#include <cassert>

#include "analysis/access.hpp"

namespace strings::backend {

using cuda::cudaError_t;
using cuda::cudaMemcpyKind;

namespace {
std::string pmt_name(int gid) {
  return "gpu" + std::to_string(gid) + "/pmt";
}
std::string streams_name(int gid) {
  return "gpu" + std::to_string(gid) + "/streams";
}
}  // namespace

ContextPacker::ContextPacker(sim::Simulation& sim, cuda::CudaRuntime& rt,
                             cuda::ProcessId device_pid, Config config,
                             int gid)
    : sim_(sim), rt_(rt), device_pid_(device_pid), config_(config), gid_(gid) {}

cuda::cudaStream_t ContextPacker::stream_for(std::uint64_t app_id) {
  auto it = streams_.find(app_id);
  if (it != streams_.end()) return it->second;
  cuda::cudaStream_t stream = 0;
  const cudaError_t err = rt_.cudaStreamCreate(device_pid_, &stream);
  assert(err == cudaError_t::cudaSuccess);
  (void)err;
  ANALYSIS_WRITE(&streams_, streams_name(gid_));
  streams_.emplace(app_id, stream);
  return stream;
}

void ContextPacker::stage_into_pinned(std::size_t bytes) {
  if (config_.staging_gbps <= 0) return;
  // Host memcpy into the pinned buffer: bytes / GBps is nanoseconds.
  sim_.wait_for(static_cast<sim::SimTime>(static_cast<double>(bytes) /
                                          config_.staging_gbps));
}

cudaError_t ContextPacker::memcpy_sync(std::uint64_t app_id, cuda::DevPtr ptr,
                                       std::size_t bytes,
                                       cudaMemcpyKind kind) {
  const cuda::cudaStream_t stream = stream_for(app_id);
  if (analysis::enabled()) {
    analysis::inv_stream_op(static_cast<std::uint64_t>(gid_), stream, app_id,
                            ANALYSIS_SITE);
  }
  if (kind == cudaMemcpyKind::cudaMemcpyHostToDevice &&
      config_.convert_sync_to_async) {
    // MOT: host buffer -> pinned staging buffer, then async copy; the app
    // regains the CPU immediately.
    stage_into_pinned(bytes);
    ANALYSIS_WRITE(&pmt_, pmt_name(gid_));
    pmt_[app_id] += bytes;
    pinned_bytes_ += bytes;
    return rt_.cudaMemcpyAsync(device_pid_, ptr, bytes, kind, stream,
                               /*pinned_host=*/true);
  }
  if (kind == cudaMemcpyKind::cudaMemcpyDeviceToHost) {
    // Output data: must complete before the app continues; received into
    // the backend's pinned buffers. Also the point where MOT releases this
    // app's staged entries (paper §III-C MOT).
    const cudaError_t err = rt_.cudaMemcpyAsync(
        device_pid_, ptr, bytes, kind, stream,
        /*pinned_host=*/config_.convert_sync_to_async);
    if (err != cudaError_t::cudaSuccess) return err;
    const cudaError_t sync = rt_.cudaStreamSynchronize(device_pid_, stream);
    release_pmt_entries(app_id);
    return sync;
  }
  // Conversion disabled (or D2D): synchronous behaviour on the app stream.
  const cudaError_t err =
      rt_.cudaMemcpyAsync(device_pid_, ptr, bytes, kind, stream);
  if (err != cudaError_t::cudaSuccess) return err;
  return rt_.cudaStreamSynchronize(device_pid_, stream);
}

cudaError_t ContextPacker::memcpy_async(std::uint64_t app_id,
                                        cuda::DevPtr ptr, std::size_t bytes,
                                        cudaMemcpyKind kind) {
  const cuda::cudaStream_t stream = stream_for(app_id);
  if (analysis::enabled()) {
    analysis::inv_stream_op(static_cast<std::uint64_t>(gid_), stream, app_id,
                            ANALYSIS_SITE);
  }
  return rt_.cudaMemcpyAsync(device_pid_, ptr, bytes, kind, stream);
}

cudaError_t ContextPacker::launch(std::uint64_t app_id,
                                  const cuda::KernelLaunch& kl) {
  const cuda::cudaStream_t stream = stream_for(app_id);
  if (analysis::enabled()) {
    analysis::inv_stream_op(static_cast<std::uint64_t>(gid_), stream, app_id,
                            ANALYSIS_SITE);
  }
  // AST: the app targeted the default stream; retarget via configure+launch.
  rt_.cudaConfigureCall(device_pid_, stream);
  return rt_.cudaLaunch(device_pid_, kl);
}

cudaError_t ContextPacker::device_synchronize(std::uint64_t app_id) {
  const cuda::cudaStream_t stream = stream_for(app_id);
  cudaError_t err;
  if (config_.convert_device_sync) {
    // SST: the device-wide sync narrows to the app's private stream; the
    // translation is only legal if that stream really is the app's own.
    if (analysis::enabled()) {
      analysis::inv_sst_sync(static_cast<std::uint64_t>(gid_), stream, app_id,
                           ANALYSIS_SITE);
    }
    err = rt_.cudaStreamSynchronize(device_pid_, stream);
  } else {
    err = rt_.cudaDeviceSynchronize(device_pid_);
  }
  release_pmt_entries(app_id);
  return err;
}

cudaError_t ContextPacker::thread_exit(std::uint64_t app_id) {
  auto it = streams_.find(app_id);
  if (it == streams_.end()) return cudaError_t::cudaSuccess;
  // Copy the stream handle out: the synchronize below blocks this fiber, and
  // another app packing into this context meanwhile moves the flat table's
  // entries, so the iterator must not be held across it.
  const cuda::cudaStream_t stream = it->second;
  const cudaError_t err = rt_.cudaStreamSynchronize(device_pid_, stream);
  release_pmt_entries(app_id);
  if (analysis::enabled()) {
    analysis::inv_stream_destroyed(static_cast<std::uint64_t>(gid_), stream);
  }
  ANALYSIS_WRITE(&streams_, streams_name(gid_));
  rt_.cudaStreamDestroy(device_pid_, stream);
  streams_.erase(app_id);
  return err;
}

void ContextPacker::release_pmt_entries(std::uint64_t app_id) {
  ANALYSIS_WRITE(&pmt_, pmt_name(gid_));
  auto it = pmt_.find(app_id);
  if (it == pmt_.end()) return;
  pinned_bytes_ -= it->second;
  pmt_.erase(it);
}

}  // namespace strings::backend
