#include "frontend/interposer.hpp"

#include <cassert>

namespace strings::frontend {

using cuda::cudaError_t;
using rpc::CallId;

Interposer::Interposer(SchedulerDirectory& directory,
                       backend::AppDescriptor app, InterposerConfig config)
    : directory_(directory), app_(std::move(app)), config_(config) {}

Interposer::~Interposer() {
  // Apps should call cudaThreadExit(); the binding is released there. An
  // interposer destroyed without exit simply drops the channel — the worker
  // keeps the binding until teardown, mirroring a killed frontend process.
}

void Interposer::phase(obs::ReqPhase p) {
  if (tracing()) {
    config_.tracer->request_phase(app_.app_id, p, config_.sim->now());
  }
}

std::vector<std::byte> Interposer::traced_call(rpc::CallId id,
                                               rpc::Marshal&& args,
                                               std::uint64_t payload_bytes) {
  if (!tracing()) return client_->call(id, std::move(args), payload_bytes);
  const sim::SimTime t0 = config_.sim->now();
  phase(obs::ReqPhase::kMarshal);
  phase(obs::ReqPhase::kTransit);
  auto out = client_->call(id, std::move(args), payload_bytes);
  config_.tracer->complete(track(), call_names_.get(*config_.tracer, id), t0,
                           config_.sim->now());
  return out;
}

void Interposer::traced_post(rpc::CallId id, rpc::Marshal&& args,
                             std::uint64_t payload_bytes) {
  if (!tracing()) {
    client_->post(id, std::move(args), payload_bytes);
    return;
  }
  phase(obs::ReqPhase::kMarshal);
  phase(obs::ReqPhase::kTransit);
  client_->post(id, std::move(args), payload_bytes);
  config_.tracer->instant(track(), post_names_.get(*config_.tracer, id),
                          config_.sim->now());
}

int Interposer::track() {
  if (track_ < 0) track_ = config_.tracer->request_track(app_.app_id);
  return track_;
}

cuda::cudaError_t Interposer::ensure_bound() {
  if (client_ != nullptr) return cudaError_t::cudaSuccess;
  // (i) forward device selection to the workload balancer; (ii) receive the
  // GID; (iii) resolve node/local ids via the gMap; (iv) bind to the backend
  // over GPU remoting.
  const sim::SimTime bind_start = tracing() ? config_.sim->now() : 0;
  phase(obs::ReqPhase::kBind);
  const core::Gid gid =
      directory_.select_device(app_.app_type, app_.origin_node);
  gid_ = gid;
  const core::GpuEntry& entry = directory_.resolve(gid);
  auto [tx, rx] = directory_.wires_between(app_.origin_node, entry.node);
  backend::BackendDaemon& daemon = directory_.daemon(entry.node);
  rpc::DuplexChannel& ch = daemon.connect(
      app_, entry.local_device,
      directory_.link_between(app_.origin_node, entry.node), std::move(tx),
      std::move(rx));
  daemon_ = &daemon;
  channel_ = &ch;
  client_ = std::make_unique<rpc::RpcClient>(ch);
  if (tracing()) {
    // Stamp the placement decision on the lifecycle record so the profiler
    // blames the right device, dispatcher and link.
    config_.tracer->request_bound(app_.app_id, gid, entry.node);
    using obs::TraceArg;
    config_.tracer->complete(track(), obs::Tracer::kBind, bind_start,
                             config_.sim->now(),
                             {TraceArg::num(obs::Tracer::kGid, gid),
                              TraceArg::num(obs::Tracer::kNode, entry.node)});
  }
  return cudaError_t::cudaSuccess;
}

cuda::cudaError_t Interposer::cudaSetDevice(int /*device*/) {
  // The application's target GPU selection is overridden: Strings, not the
  // programmer, decides the placement.
  return ensure_bound();
}

cuda::cudaError_t Interposer::cudaMalloc(cuda::DevPtr* ptr,
                                         std::size_t bytes) {
  if (ptr == nullptr) return cudaError_t::cudaErrorInvalidValue;
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  rpc::Unmarshal u(traced_call(CallId::kMalloc,
                                 backend::encode_malloc(bytes)));
  const auto err = u.get_enum<cudaError_t>();
  *ptr = u.get_u64();
  return err;
}

cuda::cudaError_t Interposer::cudaFree(cuda::DevPtr ptr) {
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  if (config_.nonblocking_rpc) {
    // No output parameters: fire and forget.
    traced_post(CallId::kFree, backend::encode_free(ptr));
    return cudaError_t::cudaSuccess;
  }
  rpc::Unmarshal u(traced_call(CallId::kFree, backend::encode_free(ptr)));
  return u.get_enum<cudaError_t>();
}

cuda::cudaError_t Interposer::cudaMemcpy(cuda::DevPtr ptr, std::size_t bytes,
                                         cuda::cudaMemcpyKind kind) {
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  // H2D requests ship the buffer with the packet; D2H data rides the
  // response (the backend sets the payload there).
  const std::uint64_t up_bytes =
      kind == cuda::cudaMemcpyKind::cudaMemcpyHostToDevice ? bytes : 0;
  if (kind == cuda::cudaMemcpyKind::cudaMemcpyHostToDevice &&
      config_.nonblocking_rpc) {
    // The backend's MOT turns this into a staged asynchronous copy, so no
    // output flows back; the RPC itself can be one-way too, hiding the
    // interposition + marshalling overhead (paper §III-B-2).
    traced_post(CallId::kMemcpy, backend::encode_memcpy(ptr, bytes, kind),
                  up_bytes);
    return cudaError_t::cudaSuccess;
  }
  rpc::Unmarshal u(client_->call(
      CallId::kMemcpy, backend::encode_memcpy(ptr, bytes, kind), up_bytes));
  return u.get_enum<cudaError_t>();
}

cuda::cudaError_t Interposer::cudaMemcpyAsync(cuda::DevPtr ptr,
                                              std::size_t bytes,
                                              cuda::cudaMemcpyKind kind) {
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  const std::uint64_t up_bytes =
      kind == cuda::cudaMemcpyKind::cudaMemcpyHostToDevice ? bytes : 0;
  if (config_.nonblocking_rpc) {
    traced_post(CallId::kMemcpyAsync,
                  backend::encode_memcpy(ptr, bytes, kind), up_bytes);
    return cudaError_t::cudaSuccess;
  }
  rpc::Unmarshal u(traced_call(CallId::kMemcpyAsync,
                                 backend::encode_memcpy(ptr, bytes, kind),
                                 up_bytes));
  return u.get_enum<cudaError_t>();
}

cuda::cudaError_t Interposer::cudaLaunch(const cuda::KernelLaunch& kl) {
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  if (config_.nonblocking_rpc) {
    traced_post(CallId::kLaunch, backend::encode_launch(kl));
    return cudaError_t::cudaSuccess;
  }
  rpc::Unmarshal u(traced_call(CallId::kLaunch, backend::encode_launch(kl)));
  return u.get_enum<cudaError_t>();
}

cuda::cudaError_t Interposer::cudaDeviceSynchronize() {
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  rpc::Unmarshal u(traced_call(CallId::kDeviceSynchronize, rpc::Marshal{}));
  return u.get_enum<cudaError_t>();
}

cuda::cudaError_t Interposer::cudaEventCreate(cuda::cudaEvent_t* event) {
  if (event == nullptr) return cudaError_t::cudaErrorInvalidValue;
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  rpc::Unmarshal u(traced_call(CallId::kEventCreate, rpc::Marshal{}));
  const auto err = u.get_enum<cudaError_t>();
  *event = u.get_u64();
  return err;
}

cuda::cudaError_t Interposer::cudaEventRecord(cuda::cudaEvent_t event) {
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  rpc::Marshal m;
  m.put_u64(event);
  if (config_.nonblocking_rpc) {
    // Record has no output parameters: fire and forget.
    traced_post(CallId::kEventRecord, std::move(m));
    return cudaError_t::cudaSuccess;
  }
  rpc::Unmarshal u(traced_call(CallId::kEventRecord, std::move(m)));
  return u.get_enum<cudaError_t>();
}

cuda::cudaError_t Interposer::cudaEventSynchronize(cuda::cudaEvent_t event) {
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  rpc::Marshal m;
  m.put_u64(event);
  rpc::Unmarshal u(traced_call(CallId::kEventSynchronize, std::move(m)));
  return u.get_enum<cudaError_t>();
}

cuda::cudaError_t Interposer::cudaEventElapsedTime(double* ms,
                                                   cuda::cudaEvent_t start,
                                                   cuda::cudaEvent_t end) {
  if (ms == nullptr) return cudaError_t::cudaErrorInvalidValue;
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  rpc::Marshal m;
  m.put_u64(start);
  m.put_u64(end);
  rpc::Unmarshal u(traced_call(CallId::kEventElapsedTime, std::move(m)));
  const auto err = u.get_enum<cudaError_t>();
  *ms = u.get_double();
  return err;
}

cuda::cudaError_t Interposer::cudaEventDestroy(cuda::cudaEvent_t event) {
  const cudaError_t bind_err = ensure_bound();
  if (bind_err != cudaError_t::cudaSuccess) return bind_err;
  rpc::Marshal m;
  m.put_u64(event);
  if (config_.nonblocking_rpc) {
    traced_post(CallId::kEventDestroy, std::move(m));
    return cudaError_t::cudaSuccess;
  }
  rpc::Unmarshal u(traced_call(CallId::kEventDestroy, std::move(m)));
  return u.get_enum<cudaError_t>();
}

cuda::cudaError_t Interposer::cudaThreadExit() {
  if (exited_) return cudaError_t::cudaSuccess;
  if (client_ == nullptr) return cudaError_t::cudaSuccess;  // never bound
  rpc::Unmarshal u(traced_call(CallId::kThreadExit, rpc::Marshal{}));
  const auto err = u.get_enum<cudaError_t>();
  if (u.get_bool()) {
    // Feedback Engine record piggybacked on the response: forward it to
    // the Policy Arbiter.
    feedback_ = backend::decode_feedback(u);
    directory_.report_feedback(*feedback_, app_.origin_node);
  }
  assert(gid_.has_value());
  directory_.unbind(*gid_, app_.app_type, app_.origin_node);
  exited_ = true;
  if (tracing()) {
    config_.tracer->end_request(app_.app_id, config_.sim->now());
  }
  // The exit response we just consumed was the connection's final delivery:
  // the worker fiber has ended and nothing references the Conn anymore.
  // Drop our client first (it borrows the channel), then let the daemon
  // reclaim the binding — without this, tenant churn leaks one connection
  // per short-lived request.
  client_.reset();
  daemon_->release_binding(*channel_);
  channel_ = nullptr;
  daemon_ = nullptr;
  return err;
}

}  // namespace strings::frontend
