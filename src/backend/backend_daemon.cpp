#include "backend/backend_daemon.hpp"

#include <cassert>

namespace strings::backend {

using cuda::cudaError_t;
using cuda::cudaMemcpyKind;
using policies::Phase;
using rpc::CallId;

BackendDaemon::BackendDaemon(sim::Simulation& sim, core::NodeId node,
                             cuda::CudaRuntime& rt,
                             std::vector<core::Gid> gids,
                             BackendConfig config)
    : sim_(sim), node_(node), rt_(rt), gids_(std::move(gids)),
      config_(std::move(config)) {
  assert(static_cast<int>(gids_.size()) == rt_.device_count());
  for (int dev = 0; dev < rt_.device_count(); ++dev) {
    schedulers_.push_back(std::make_unique<core::GpuScheduler>(
        sim_, gids_[static_cast<std::size_t>(dev)],
        policies::make_device_policy(config_.device_policy, config_.mqfq),
        config_.sched));
    // The per-GPU backend process hosting the shared GPU context
    // (Designs II and III), bound to its GPU for life.
    device_pids_.push_back(rt_.create_process());
    rt_.cudaSetDevice(device_pids_.back(), dev);
    packers_.push_back(std::make_unique<ContextPacker>(
        sim_, rt_, device_pids_.back(), config_.packer,
        gids_[static_cast<std::size_t>(dev)]));
    master_inbox_.push_back(
        std::make_unique<sim::Mailbox<std::pair<Conn*, rpc::Packet>>>(sim_));
    master_started_.push_back(false);
  }
  rt_.set_op_observer(
      [this](cuda::ProcessId pid, cuda::cudaStream_t stream,
             const gpu::GpuDevice::Op& op) { route_op(pid, stream, op); });
}

BackendDaemon::~BackendDaemon() = default;

void BackendDaemon::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  be_names_.reset();
  daemon_resource_ = "node" + std::to_string(node_) + ".daemon";
}

void BackendDaemon::release_binding(const rpc::DuplexChannel& ch) {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i]->channel.get() != &ch) continue;
    // Only a drained connection may be reclaimed; a live one still has a
    // worker fiber parked on the channel.
    if (!conns_[i]->done) return;
    // Take the entry by value before mutating the vector (DL009 spirit:
    // destruction must not run mid-reshuffle).
    std::unique_ptr<Conn> victim = std::move(conns_[i]);
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

void BackendDaemon::route_op(cuda::ProcessId pid, cuda::cudaStream_t stream,
                             const gpu::GpuDevice::Op& op) {
  auto it = routes_.find({pid, stream});
  if (it == routes_.end()) return;
  it->second.first->on_op_complete(it->second.second, op);
}

rpc::DuplexChannel& BackendDaemon::connect(
    const AppDescriptor& app, int local_dev, rpc::LinkModel link,
    std::shared_ptr<rpc::SharedLink> tx,
    std::shared_ptr<rpc::SharedLink> rx) {
  assert(local_dev >= 0 && local_dev < rt_.device_count());
  ++connections_;
  auto conn = std::make_unique<Conn>();
  conn->app = app;
  conn->local_dev = local_dev;
  conn->channel = std::make_unique<rpc::DuplexChannel>(
      sim_, link, std::move(tx), std::move(rx));
  conn->channel->request.count_pending(&conn->backlog);
  conn->channel->request.count_wire(&wire_);
  conn->channel->response.count_wire(&wire_);
  // Design II's single master thread cannot be gated per application (one
  // of its documented shortcomings), so only per-app workers get a gate.
  if (config_.design != Design::kSingleMaster) {
    conn->gate = std::make_unique<core::WakeGate>(sim_);
  }
  if (tracer_ != nullptr) {
    // Frontend->backend traffic renders on the directed network tracks.
    conn->channel->request.set_tracer(tracer_,
                                      tracer_->link_track(app.origin_node,
                                                          node_));
    conn->channel->response.set_tracer(tracer_,
                                       tracer_->link_track(node_,
                                                           app.origin_node));
    if (tracer_->forensics_enabled()) {
      // Label the request wire with this app's tenant so transit blame can
      // name who held it. The naming must match prof::resource_for's
      // transit scheme exactly. Response traffic never appears in a transit
      // interval (those pair sends with deliveries), so only the request
      // channel is labelled.
      const std::string link_res =
          app.origin_node == node_
              ? "link.local"
              : "link.n" + std::to_string(app.origin_node) + "-n" +
                    std::to_string(node_);
      conn->channel->request.set_occupant(link_res, app.tenant);
    }
  }
  Conn& c = *conn;
  conns_.push_back(std::move(conn));

  const std::string name = "be/n" + std::to_string(node_) + "/d" +
                           std::to_string(local_dev) + "/app" +
                           std::to_string(app.app_id);
  if (config_.design == Design::kSingleMaster) {
    const auto dev_index = static_cast<std::size_t>(local_dev);
    if (!master_started_[dev_index]) {
      master_started_[dev_index] = true;
      sim_.spawn_daemon(
          "be-master/n" + std::to_string(node_) + "/d" +
              std::to_string(local_dev),
          [this, local_dev] {
            auto& inbox = *master_inbox_[static_cast<std::size_t>(local_dev)];
            while (true) {
              auto [conn_ptr, pkt] = inbox.receive();
              if (handle_request(*conn_ptr, pkt)) retire(*conn_ptr);
            }
          });
    }
    // Forwarder: pumps this app's channel into the master's single inbox.
    sim_.spawn_daemon(name + "/fwd", [this, &c, local_dev] {
      while (!c.done) {
        rpc::Packet p = c.channel->request.receive();
        const bool is_exit = p.call == CallId::kThreadExit;
        master_inbox_[static_cast<std::size_t>(local_dev)]->send(
            {&c, std::move(p)});
        if (is_exit) break;
      }
    });
    // Design II has no per-app worker, so the app is admitted here.
    admit(c, device_pids_[dev_index],
          packers_[dev_index]->stream_for(app.app_id));
  } else {
    sim_.spawn(name, [this, &c] { worker_loop(c); });
  }
  return *c.channel;
}

void BackendDaemon::admit(Conn& conn, cuda::ProcessId pid,
                          cuda::cudaStream_t stream) {
  auto& sched = *schedulers_[static_cast<std::size_t>(conn.local_dev)];
  // Three-way handshake with the Request Manager (paper Fig. 7a):
  // (1) register stream/tenant -> (2) RM returns the signal id ->
  // (3) worker installs its handler (the WakeGate, if any) and acks.
  core::GpuScheduler::RcbInit init;
  init.app_type = conn.app.app_type;
  init.tenant = conn.app.tenant;
  init.tenant_weight = conn.app.tenant_weight;
  init.gate = conn.gate.get();
  init.backlog = &conn.backlog;
  rt_.count_stream_ops(pid, conn.local_dev, stream, &conn.backlog);
  conn.pid = pid;
  conn.stream = stream;
  conn.signal_id = sched.register_app(init);
  assert(conn.signal_id > 0);
  sched.ack(conn.signal_id);
  routes_[{pid, stream}] = {&sched, conn.signal_id};
}

void BackendDaemon::retire(Conn& conn) {
  routes_.erase({conn.pid, conn.stream});
  if (config_.design == Design::kProcessPerApp) rt_.destroy_process(conn.pid);
  conn.done = true;
}

void BackendDaemon::worker_loop(Conn& conn) {
  const auto dev_index = static_cast<std::size_t>(conn.local_dev);
  if (config_.design == Design::kThreadPerApp) {
    // Strings: join the per-GPU backend process; private stream via SC.
    admit(conn, device_pids_[dev_index],
          packers_[dev_index]->stream_for(conn.app.app_id));
  } else {
    // Rain: a fresh backend process — its own GPU context, bound to the
    // app's GPU for life.
    const cuda::ProcessId pid = rt_.create_process();
    rt_.cudaSetDevice(pid, conn.local_dev);
    admit(conn, pid, cuda::cudaStreamDefault);
  }

  bool exit = false;
  while (!exit) {
    rpc::Packet req = conn.channel->request.receive();
    conn.backlog.add(1);  // the request being handled
    exit = handle_request(conn, req);
    conn.backlog.add(-1);
  }
  retire(conn);
}

bool BackendDaemon::handle_request(Conn& conn, const rpc::Packet& req) {
  const cuda::ProcessId pid = conn.pid;
  const int signal_id = conn.signal_id;
  const auto dev_index = static_cast<std::size_t>(conn.local_dev);
  auto& sched = *schedulers_[dev_index];
  ContextPacker& packer = *packers_[dev_index];
  const bool packed = config_.design != Design::kProcessPerApp;
  std::uint64_t response_payload = 0;  // D2H data riding the response

  const int req_track =
      tracer_ != nullptr ? tracer_->request_track(conn.app.app_id) : -1;
  const sim::SimTime handle_start = sim_.now();
  if (tracer_ != nullptr && req.delivered_at >= 0) {
    // Time the packet spent in the worker's inbox before being picked up.
    tracer_->request_phase(conn.app.app_id, obs::ReqPhase::kBackendQueue,
                           req.delivered_at);
    if (handle_start > req.delivered_at) {
      tracer_->complete(req_track, obs::Tracer::kQueue, req.delivered_at,
                        handle_start);
    }
  }
  if (tracer_ != nullptr) {
    // Delimits the backend visit for the profiler: queue wait ends here,
    // service time runs until the matching kBackendDone below.
    tracer_->request_phase(conn.app.app_id, obs::ReqPhase::kBackendStart,
                           handle_start);
  }

  auto gate_gpu_work = [&] {
    // The dispatcher's RT-signal analog: a sleeping backend worker does not
    // issue new GPU work. Only the per-app workers of Designs I
    // (processes, Rain) and III (threads, Strings) have a gate.
    if (conn.gate) {
      const sim::SimTime t0 = sim_.now();
      if (tracer_ != nullptr) {
        tracer_->request_phase(conn.app.app_id, obs::ReqPhase::kDispatchWait,
                               t0);
      }
      conn.gate->wait_until_awake();
      if (tracer_ != nullptr && sim_.now() > t0) {
        tracer_->complete(req_track, obs::Tracer::kGateWait, t0, sim_.now());
      }
    }
    // The worker is past its gate and about to issue GPU work — the
    // protocol point the analysis layer checks against the three-way
    // handshake (INV-HSK-1).
    sched.notify_dispatch(signal_id);
    if (tracer_ != nullptr) {
      tracer_->request_phase(conn.app.app_id, obs::ReqPhase::kExecute,
                             sim_.now());
    }
  };

  rpc::Unmarshal u(req.body);
  rpc::Marshal reply;
  bool exit = false;

  switch (req.call) {
    case CallId::kGetDeviceCount: {
      int count = 0;
      const cudaError_t err = rt_.cudaGetDeviceCount(pid, &count);
      reply.put_enum(err);
      reply.put_i32(count);
      break;
    }
    case CallId::kMalloc: {
      const std::size_t bytes = u.get_u64();
      cuda::DevPtr ptr = 0;
      const cudaError_t err = rt_.cudaMalloc(pid, &ptr, bytes);
      if (err == cudaError_t::cudaSuccess) conn.allocations[ptr] = bytes;
      reply.put_enum(err);
      reply.put_u64(ptr);
      break;
    }
    case CallId::kFree: {
      const cuda::DevPtr ptr = u.get_u64();
      const cudaError_t err = rt_.cudaFree(pid, ptr);
      if (err == cudaError_t::cudaSuccess) conn.allocations.erase(ptr);
      reply.put_enum(err);
      break;
    }
    case CallId::kMemcpy: {
      const cuda::DevPtr ptr = u.get_u64();
      const std::size_t bytes = u.get_u64();
      const auto kind = u.get_enum<cudaMemcpyKind>();
      if (kind == cudaMemcpyKind::cudaMemcpyDeviceToHost) {
        response_payload = bytes;
      }
      gate_gpu_work();
      sched.set_phase(signal_id,
                      kind == cudaMemcpyKind::cudaMemcpyHostToDevice
                          ? Phase::kH2D
                          : Phase::kD2H);
      cudaError_t err;
      if (packed) {
        err = packer.memcpy_sync(conn.app.app_id, ptr, bytes, kind);
      } else {
        err = rt_.cudaMemcpy(pid, ptr, bytes, kind);
      }
      reply.put_enum(err);
      break;
    }
    case CallId::kMemcpyAsync: {
      const cuda::DevPtr ptr = u.get_u64();
      const std::size_t bytes = u.get_u64();
      const auto kind = u.get_enum<cudaMemcpyKind>();
      gate_gpu_work();
      sched.set_phase(signal_id,
                      kind == cudaMemcpyKind::cudaMemcpyHostToDevice
                          ? Phase::kH2D
                          : Phase::kD2H);
      cudaError_t err;
      if (packed) {
        err = packer.memcpy_async(conn.app.app_id, ptr, bytes, kind);
      } else {
        err = rt_.cudaMemcpyAsync(pid, ptr, bytes, kind,
                                  cuda::cudaStreamDefault);
      }
      reply.put_enum(err);
      break;
    }
    case CallId::kLaunch: {
      const cuda::KernelLaunch kl = decode_launch(u);
      gate_gpu_work();
      sched.set_phase(signal_id, Phase::kKernelLaunch);
      cudaError_t err;
      if (packed) {
        err = packer.launch(conn.app.app_id, kl);
      } else {
        err = rt_.cudaLaunchKernel(pid, kl, cuda::cudaStreamDefault);
      }
      reply.put_enum(err);
      break;
    }
    case CallId::kDeviceSynchronize: {
      cudaError_t err;
      if (packed) {
        // SST: stream-synchronize so other packed apps are unaffected.
        err = packer.device_synchronize(conn.app.app_id);
      } else {
        err = rt_.cudaDeviceSynchronize(pid);
      }
      sched.set_phase(signal_id, Phase::kDefault);
      reply.put_enum(err);
      break;
    }
    case CallId::kEventCreate: {
      cuda::cudaEvent_t ev = 0;
      const cudaError_t err = rt_.cudaEventCreate(pid, &ev);
      reply.put_enum(err);
      reply.put_u64(ev);
      break;
    }
    case CallId::kEventRecord: {
      const cuda::cudaEvent_t ev = u.get_u64();
      // AST: the record lands on the app's private stream in packed designs.
      reply.put_enum(rt_.cudaEventRecord(pid, ev, conn.stream));
      break;
    }
    case CallId::kEventSynchronize: {
      const cuda::cudaEvent_t ev = u.get_u64();
      reply.put_enum(rt_.cudaEventSynchronize(pid, ev));
      break;
    }
    case CallId::kEventElapsedTime: {
      const cuda::cudaEvent_t start = u.get_u64();
      const cuda::cudaEvent_t end = u.get_u64();
      double ms = 0.0;
      const cudaError_t err = rt_.cudaEventElapsedTime(pid, &ms, start, end);
      reply.put_enum(err);
      reply.put_double(ms);
      break;
    }
    case CallId::kEventDestroy: {
      const cuda::cudaEvent_t ev = u.get_u64();
      reply.put_enum(rt_.cudaEventDestroy(pid, ev));
      break;
    }
    case CallId::kThreadExit: {
      cudaError_t err = cudaError_t::cudaSuccess;
      if (packed) {
        err = packer.thread_exit(conn.app.app_id);
        // Free whatever the app left behind in the shared context.
        for (const auto& [ptr, bytes] : conn.allocations) {
          rt_.cudaFree(pid, ptr);
        }
        conn.allocations.clear();
      } else {
        err = rt_.cudaThreadExit(pid);
      }
      reply.put_enum(err);
      // Feedback Engine: piggyback the app's record on the response. The
      // has-feedback byte is always true now; it stays so response sizes,
      // and with them wire times, do not move.
      reply.put_bool(true);
      encode_feedback(reply, sched.unregister_app(signal_id));
      exit = true;
      break;
    }
    default: {
      reply.put_enum(cudaError_t::cudaErrorUnknown);
      break;
    }
  }

  if (tracer_ != nullptr) {
    tracer_->request_phase(conn.app.app_id, obs::ReqPhase::kBackendDone,
                           sim_.now());
    if (sim_.now() > handle_start) {
      tracer_->complete(req_track, be_names_.get(*tracer_, req.call),
                        handle_start, sim_.now());
    }
    // Forensics: while this worker handled the call it occupied the node's
    // daemon — the resource backend_queue waits are blamed on.
    if (tracer_->forensics_enabled()) {
      tracer_->occupant(daemon_resource_, conn.app.tenant, handle_start,
                        sim_.now());
    }
  }
  if (!req.oneway) {
    rpc::Packet resp;
    resp.seq = req.seq;
    resp.body = std::move(reply).take();
    resp.payload_bytes = response_payload;
    conn.channel->response.send(std::move(resp));
  }
  return exit;
}

}  // namespace strings::backend
