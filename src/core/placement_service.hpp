// PlacementService: the authoritative half of the distributed GPU Affinity
// Mapper (paper §III-C, Fig. 6, split into a control plane).
//
//   gPool Creator (GC)      — report_node()/finalize(): collects device
//     info from every backend daemon, assigns GIDs, builds the gMap, and
//     assigns static device weights into the Device Status Table.
//   Target GPU Selector (TGS) — select_device(): answers each intercepted
//     cudaSetDevice() with a GID chosen by the active policy over DST + SFT.
//   Policy Arbiter (PA)     — on_feedback(): folds Feedback Engine records
//     into the SFT and switches from the static policy to the feedback
//     policy for an app type once enough history exists ("dynamic policy
//     switching").
//
// The service is hosted on one node and owns the authoritative DST/SFT
// (kept as a versioned DstSnapshot). Per-node MapperAgents reach it two
// ways: the direct C++ API below (the zero-cost oracle, also the seam unit
// tests use), or over timed rpc::Channels via connect_agent(), which spawns
// a daemon serve loop per agent connection handling the control-plane
// CallIds (kSelectDevice / kUnbindDevice / kDstSync / kBindReport /
// kFeedbackBatch).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/control_plane.hpp"
#include "core/dst_snapshot.hpp"
#include "core/gpool.hpp"
#include "core/tables.hpp"
#include "rpc/channel.hpp"
#include "simcore/simulation.hpp"

namespace strings::core {

class PlacementService {
 public:
  struct Config {
    /// Policy used when no feedback history exists for an app type.
    std::string static_policy = "GWtMin";
    /// Feedback policy the Arbiter switches to; empty disables switching.
    std::string feedback_policy;
    /// Completed-run records required before switching for an app type.
    int min_feedback_samples = 1;
  };

  explicit PlacementService(Config config);

  // ---- gPool Creator ----
  /// Registers one node's devices; returns their GIDs. Call once per node
  /// during system initialization, then finalize().
  std::vector<Gid> report_node(NodeId node,
                               const std::vector<gpu::DeviceProps>& devices);
  /// Builds the DST from the completed gMap ("broadcasts" it).
  void finalize();

  // ---- Target GPU Selector (authoritative / oracle path) ----
  /// Picks a GID for an arriving application and records the binding.
  Gid select_device(const std::string& app_type, NodeId origin_node);
  /// Releases a binding (application exit / cudaThreadExit). `applied_by`
  /// names the agent whose cache already holds the mutation (push
  /// subscribers skip their own echo); -1 = applied at the service only.
  void unbind(Gid gid, const std::string& app_type, NodeId applied_by = -1);
  /// Installs a binding decided remotely by a distributed MapperAgent
  /// (kBindReport); also records it in the placement log.
  void apply_bind(Gid gid, const std::string& app_type,
                  NodeId applied_by = -1);

  // ---- Policy Arbiter ----
  void on_feedback(const FeedbackRecord& rec);

  // ---- replication ----
  /// A self-consistent copy of the authoritative state, stamped with the
  /// current version and `now` (what kDstSync ships to agents).
  DstSnapshot snapshot(sim::SimTime now) const;
  /// Bumped on every bind/unbind/feedback mutation.
  std::uint64_t version() const { return state_.version; }

  /// Accepts a MapperAgent connection over a link of the given model;
  /// spawns the per-connection daemon serve loop and returns the channel
  /// the agent should attach its RpcClient to. Optional SharedLink handles
  /// make control traffic contend with data-plane wires.
  rpc::DuplexChannel& connect_agent(
      sim::Simulation& sim, NodeId agent_node, rpc::LinkModel link,
      std::shared_ptr<rpc::SharedLink> tx = nullptr,
      std::shared_ptr<rpc::SharedLink> rx = nullptr);

  /// Creates the service->agent push channel for an already-connected
  /// agent. The agent drains kDstDelta packets from it; fan-out starts
  /// once the agent sends kDstSubscribe on its duplex channel. Throws
  /// std::logic_error if `agent_node` has no connection yet.
  rpc::Channel& connect_push(sim::Simulation& sim, NodeId agent_node,
                             rpc::LinkModel link,
                             std::shared_ptr<rpc::SharedLink> wire = nullptr);

  /// Fault-injection seam for push fan-out (loss/reorder stress tests).
  /// Called per subscriber per delta; returns the extra delay to impose on
  /// that delivery: 0 = deliver normally, < 0 = drop the delta (the agent
  /// must gap-detect and pull), > 0 = delay by that much virtual time
  /// (later deltas overtake it on the wire — reordering).
  using PushFaultHook = std::function<sim::SimTime(NodeId agent,
                                                   const DstDelta& delta)>;
  void set_push_fault(PushFaultHook hook) { push_fault_ = std::move(hook); }

  /// kDstDelta messages actually sent (fault-dropped ones excluded).
  std::int64_t deltas_sent() const { return deltas_sent_; }
  /// Deltas suppressed by the fault hook.
  std::int64_t deltas_dropped() const { return deltas_dropped_; }
  /// Push subscribers currently armed.
  int subscriber_count() const;

  // ---- introspection ----
  const Config& config() const { return config_; }
  const GMap& gmap() const { return gmap_; }
  const DeviceStatusTable& dst() const { return state_.dst; }
  const SchedulerFeedbackTable& sft() const { return state_.sft; }
  const std::vector<std::vector<std::string>>& bound_types() const {
    return state_.bound_types;
  }
  /// Every placement in decision order: (app type, chosen GID). Includes
  /// remote binds applied via kBindReport, so two deployments of the same
  /// workload can be compared bit-for-bit.
  const std::vector<std::pair<std::string, Gid>>& placements() const {
    return placements_;
  }
  /// How many selections used the feedback policy vs the static one
  /// (selections made *at the service*; distributed agents decide locally).
  std::int64_t feedback_selections() const { return feedback_selections_; }
  std::int64_t static_selections() const { return static_selections_; }
  /// The policy that would be used for `app_type` right now.
  const char* active_policy_name(const std::string& app_type) const;
  /// Control-plane requests served over channels, by kind.
  std::int64_t rpcs_served() const { return rpcs_served_; }

  /// Observability tracer: control-plane channels created by subsequent
  /// connect_agent() calls emit transmit spans on the network tracks
  /// between each agent's node and `service_node`.
  void set_tracer(obs::Tracer* tracer, NodeId service_node) {
    tracer_ = tracer;
    service_node_ = service_node;
  }

 private:
  struct AgentConn {
    NodeId node = -1;
    std::unique_ptr<rpc::DuplexChannel> channel;
    /// Service->agent delta channel (push sync mode).
    std::unique_ptr<rpc::Channel> push;
    /// Set when the agent's kDstSubscribe arrives; deltas fan out only to
    /// subscribed connections.
    bool subscribed = false;
    std::uint64_t push_seq = 0;
  };

  void serve_loop(sim::Simulation& sim, AgentConn& conn);
  /// Versions one mutation already applied to state_ and fans it out to
  /// every subscribed agent.
  void publish(DeltaOp op);

  Config config_;
  GMap gmap_;
  /// Authoritative DST + bound-app lists + SFT; `version` bumped per
  /// mutation, `taken_at` stamped only on copies handed to agents.
  DstSnapshot state_;
  std::vector<std::pair<std::string, Gid>> placements_;
  PolicyArbiter arbiter_;
  std::vector<std::unique_ptr<AgentConn>> conns_;
  std::int64_t feedback_selections_ = 0;
  std::int64_t static_selections_ = 0;
  std::int64_t rpcs_served_ = 0;
  std::int64_t deltas_sent_ = 0;
  std::int64_t deltas_dropped_ = 0;
  PushFaultHook push_fault_;
  /// Encode scratch for publish: the delta body is encoded once per
  /// mutation and copied into each subscriber's packet, so the marshal
  /// buffer itself can be reused across publishes (capacity is retained).
  rpc::Marshal delta_scratch_;
  /// Set by connect_push(); publish needs it to schedule delayed
  /// (fault-injected) deliveries.
  sim::Simulation* sim_ = nullptr;
  bool finalized_ = false;
  obs::Tracer* tracer_ = nullptr;
  NodeId service_node_ = 0;
};

}  // namespace strings::core
