// Backend daemon: the per-node server side of GPU remoting (paper Fig. 3/5).
//
// Accepts frontend bindings and serves their marshalled CUDA calls against
// the node's (simulated) CUDA runtime under one of the three designs of
// paper Fig. 5:
//
//   Design I   (kProcessPerApp, "Rain")   — a backend *process* per frontend
//     application: isolated GPU contexts, so co-located apps pay context
//     switches and cannot space-share the GPU.
//   Design II  (kSingleMaster)            — one master thread per GPU hosting
//     every app in one context over CUDA streams; a blocking call made for
//     one app stalls all others.
//   Design III (kThreadPerApp, "Strings") — a backend *thread* per app inside
//     the per-GPU backend process; apps share one GPU context via the
//     Context Packer and are dispatched per-app through the GPU scheduler's
//     wake gates.
//
// The daemon also runs the per-device GPU Scheduler and routes device-op
// completions to the right Request Control Block entry (Request Monitor).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/context_packer.hpp"
#include "backend/protocol.hpp"
#include "core/gpu_scheduler.hpp"
#include "cudart/cuda_runtime.hpp"
#include "rpc/channel.hpp"
#include "simcore/flat_map.hpp"
#include "simcore/simulation.hpp"

namespace strings::backend {

enum class Design {
  kProcessPerApp,  // Design I: Rain
  kSingleMaster,   // Design II
  kThreadPerApp,   // Design III: Strings
};

struct BackendConfig {
  Design design = Design::kThreadPerApp;
  /// Device-level dispatcher policy: "AllAwake", "TFS", "LAS", "PS", "MQFQ".
  std::string device_policy = "AllAwake";
  /// MQFQ-Sticky knobs, applied when device_policy selects MQFQ.
  policies::MqfqConfig mqfq;
  core::GpuScheduler::Config sched;
  ContextPacker::Config packer;
};

class BackendDaemon {
 public:
  /// `gids[i]` is the global id of local device i (from the gPool Creator).
  BackendDaemon(sim::Simulation& sim, core::NodeId node,
                cuda::CudaRuntime& rt, std::vector<core::Gid> gids,
                BackendConfig config);
  ~BackendDaemon();

  /// Accepts a frontend binding to local device `local_dev` over a link of
  /// the given model; spawns the worker and returns the app's channel.
  /// Optional SharedLink handles make several bindings contend for one
  /// physical wire per direction.
  rpc::DuplexChannel& connect(const AppDescriptor& app, int local_dev,
                              rpc::LinkModel link,
                              std::shared_ptr<rpc::SharedLink> tx = nullptr,
                              std::shared_ptr<rpc::SharedLink> rx = nullptr);

  core::GpuScheduler& scheduler(int local_dev) {
    return *schedulers_.at(static_cast<std::size_t>(local_dev));
  }
  int device_count() const { return static_cast<int>(schedulers_.size()); }
  ContextPacker& packer(int local_dev) {
    return *packers_.at(static_cast<std::size_t>(local_dev));
  }
  core::NodeId node() const { return node_; }
  const BackendConfig& config() const { return config_; }
  std::int64_t connections_accepted() const { return connections_; }

  /// Attaches the observability tracer: connection channels get transmit
  /// spans on the network tracks and every request gets queue / gate-wait /
  /// handling spans plus lifecycle phases. Must be set before connect().
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Total bytes / packets this daemon's connections have put on the wire
  /// (both directions), for the metrics registry. Every connection's
  /// channels add into one daemon-level total as they send, so a released
  /// binding stays counted and a read walks nothing.
  std::uint64_t wire_bytes() const { return wire_.bytes; }
  std::uint64_t wire_packets() const { return wire_.packets; }

  /// Reclaims a finished binding once the frontend has consumed its
  /// cudaThreadExit response: at that point the Conn is quiescent (worker
  /// fiber ended, routes erased, every channel delivery event fired), so
  /// keeping it would only leak — under open-loop churn, one Conn per
  /// short-lived request for the lifetime of the run. No-op if no done
  /// connection owns `ch`.
  void release_binding(const rpc::DuplexChannel& ch);
  /// Bindings currently held (accepted minus released), for churn tests.
  std::size_t live_connections() const { return conns_.size(); }

 private:
  struct Conn {
    AppDescriptor app;
    int local_dev = 0;
    std::unique_ptr<rpc::DuplexChannel> channel;
    std::unique_ptr<core::WakeGate> gate;
    /// The RCB entry's backlog: requests delivered but not yet received
    /// (counted by the request channel), plus one while the worker handles
    /// a request (Designs I and III), plus the ops outstanding on the app's
    /// stream (counted by cudart).
    int backlog = 0;
    bool done = false;
    int signal_id = -1;
    cuda::cudaStream_t exit_stream = 0;
    /// Packed designs share one context per GPU, so the daemon must free an
    /// exiting app's leftover allocations itself.
    sim::FlatMap<cuda::DevPtr, std::size_t> allocations;
  };

  void worker_loop(Conn& conn);
  /// Executes one request; returns true when the connection should close.
  bool handle_request(Conn& conn, cuda::ProcessId pid, int signal_id,
                      const rpc::Packet& req);
  void route_op(cuda::ProcessId pid, cuda::cudaStream_t stream,
                const gpu::GpuDevice::Op& op);

  sim::Simulation& sim_;
  core::NodeId node_;
  cuda::CudaRuntime& rt_;
  std::vector<core::Gid> gids_;
  BackendConfig config_;
  std::vector<std::unique_ptr<core::GpuScheduler>> schedulers_;
  std::vector<std::unique_ptr<ContextPacker>> packers_;
  /// Per-GPU backend process of Design II/III (shared GPU context).
  std::vector<cuda::ProcessId> device_pids_;
  std::vector<std::unique_ptr<Conn>> conns_;
  /// Request Monitor routing: (pid, stream) -> (scheduler, signal id).
  sim::FlatMap<std::pair<cuda::ProcessId, cuda::cudaStream_t>,
               std::pair<core::GpuScheduler*, int>>
      routes_;
  obs::Tracer* tracer_ = nullptr;
  std::int64_t connections_ = 0;
  /// What every connection's channels have sent (see wire_bytes()).
  rpc::WireTotals wire_;
  /// Design II: per-device master inbox of (conn index, packet).
  std::vector<std::unique_ptr<sim::Mailbox<std::pair<Conn*, rpc::Packet>>>>
      master_inbox_;
  std::vector<bool> master_started_;
};

}  // namespace strings::backend
