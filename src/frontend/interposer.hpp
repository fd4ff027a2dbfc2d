// The Strings frontend: a CUDA-runtime interposer library (paper Fig. 3).
//
// Intercepts the application's CUDA calls and:
//   1. overrides cudaSetDevice(): the requested ordinal is ignored; the GPU
//      Affinity Mapper picks a GID, the gMap resolves it to a (node, local
//      device) pair, and the interposer binds to that node's backend daemon
//      over an RPC channel (shared memory locally, the network for remote
//      GPUs — "GPU remoting");
//   2. marshals every subsequent call into an RPC packet for the bound
//      backend worker;
//   3. optionally posts calls without output parameters one-way
//      (non-blocking RPC), hiding interposition and marshalling overhead;
//   4. on cudaThreadExit(), decodes the piggybacked Feedback Engine record
//      and forwards it to the Affinity Mapper's Policy Arbiter.
#pragma once

#include <memory>
#include <optional>

#include "backend/backend_daemon.hpp"
#include "backend/protocol.hpp"
#include "core/tables.hpp"
#include "frontend/gpu_api.hpp"
#include "rpc/channel.hpp"

namespace strings::frontend {

/// How a frontend reaches the scheduling infrastructure: device selection,
/// gMap resolution, backend daemons, and the feedback path. Implemented by
/// the experiment testbed, which routes every call through the origin
/// node's MapperAgent — so all three carry the caller's node and may cost
/// simulated control-plane time.
class SchedulerDirectory {
 public:
  virtual ~SchedulerDirectory() = default;
  virtual core::Gid select_device(const std::string& app_type,
                                  core::NodeId origin) = 0;
  virtual const core::GpuEntry& resolve(core::Gid gid) = 0;
  virtual backend::BackendDaemon& daemon(core::NodeId node) = 0;
  virtual void unbind(core::Gid gid, const std::string& app_type,
                      core::NodeId origin) = 0;
  virtual void report_feedback(const core::FeedbackRecord& rec,
                               core::NodeId origin) = 0;
  /// Link model between `origin` and `node` (shared memory vs network).
  virtual rpc::LinkModel link_between(core::NodeId origin,
                                      core::NodeId node) = 0;
  /// Physical wires (per direction) the binding must contend on; return
  /// nullptrs for dedicated/idealized links. Default: dedicated.
  virtual std::pair<std::shared_ptr<rpc::SharedLink>,
                    std::shared_ptr<rpc::SharedLink>>
  wires_between(core::NodeId /*origin*/, core::NodeId /*node*/) {
    return {nullptr, nullptr};
  }
};

struct InterposerConfig {
  /// Post output-free calls one-way instead of waiting for a reply.
  bool nonblocking_rpc = true;
  /// Observability hooks: when both are set, the interposer records
  /// request-lifecycle phases and per-call spans on the request's track.
  /// Left null (the default) the instrumentation compiles down to a single
  /// pointer test per call.
  sim::Simulation* sim = nullptr;
  obs::Tracer* tracer = nullptr;
};

class Interposer final : public GpuApi {
 public:
  Interposer(SchedulerDirectory& directory, backend::AppDescriptor app,
             InterposerConfig config);
  ~Interposer() override;
  Interposer(const Interposer&) = delete;
  Interposer& operator=(const Interposer&) = delete;

  cuda::cudaError_t cudaSetDevice(int device) override;
  cuda::cudaError_t cudaMalloc(cuda::DevPtr* ptr, std::size_t bytes) override;
  cuda::cudaError_t cudaFree(cuda::DevPtr ptr) override;
  cuda::cudaError_t cudaMemcpy(cuda::DevPtr ptr, std::size_t bytes,
                               cuda::cudaMemcpyKind kind) override;
  cuda::cudaError_t cudaMemcpyAsync(cuda::DevPtr ptr, std::size_t bytes,
                                    cuda::cudaMemcpyKind kind) override;
  cuda::cudaError_t cudaLaunch(const cuda::KernelLaunch& kl) override;
  cuda::cudaError_t cudaDeviceSynchronize() override;
  cuda::cudaError_t cudaEventCreate(cuda::cudaEvent_t* event) override;
  cuda::cudaError_t cudaEventRecord(cuda::cudaEvent_t event) override;
  cuda::cudaError_t cudaEventSynchronize(cuda::cudaEvent_t event) override;
  cuda::cudaError_t cudaEventElapsedTime(double* ms, cuda::cudaEvent_t start,
                                         cuda::cudaEvent_t end) override;
  cuda::cudaError_t cudaEventDestroy(cuda::cudaEvent_t event) override;
  cuda::cudaError_t cudaThreadExit() override;

  /// The GID the workload balancer assigned (after cudaSetDevice).
  std::optional<core::Gid> bound_gid() const { return gid_; }
  /// Feedback decoded from the cudaThreadExit response, if any.
  const std::optional<core::FeedbackRecord>& last_feedback() const {
    return feedback_;
  }

 private:
  /// Binds lazily: apps that skip cudaSetDevice still get balanced on
  /// their first real GPU call (the interposer owns device selection).
  cuda::cudaError_t ensure_bound();

  bool tracing() const {
    return config_.tracer != nullptr && config_.sim != nullptr;
  }
  /// Records a lifecycle phase transition (no-op without a tracer).
  void phase(obs::ReqPhase p);
  /// client_->call with marshal/transit phases and a span on the request
  /// track covering the full blocking round trip.
  std::vector<std::byte> traced_call(rpc::CallId id, rpc::Marshal&& args,
                                     std::uint64_t payload_bytes = 0);
  /// client_->post with phases and an instant marker (one-way, no span).
  void traced_post(rpc::CallId id, rpc::Marshal&& args,
                   std::uint64_t payload_bytes = 0);
  /// The request's trace track, looked up once.
  int track();

  SchedulerDirectory& directory_;
  backend::AppDescriptor app_;
  InterposerConfig config_;
  std::optional<core::Gid> gid_;
  /// The daemon and channel of the current binding, remembered so
  /// cudaThreadExit() can hand the drained connection back for reclamation
  /// (daemon owns the channel; both outlive this interposer).
  backend::BackendDaemon* daemon_ = nullptr;
  rpc::DuplexChannel* channel_ = nullptr;
  std::unique_ptr<rpc::RpcClient> client_;
  std::optional<core::FeedbackRecord> feedback_;
  bool exited_ = false;
  int track_ = -1;
  rpc::CallNames call_names_;
  rpc::CallNames post_names_{"post "};
};

}  // namespace strings::frontend
