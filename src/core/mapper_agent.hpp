// MapperAgent: the per-node caching half of the distributed Affinity Mapper.
//
// Frontends/interposers on a node call their local agent instead of a
// global mapper object. Depending on the deployment the agent either
// forwards every call to the PlacementService over a timed rpc::Channel
// (centralized placement), or decides locally over a cached gMap replica
// and a staleness-bounded DstSnapshot, reporting binds back one-way and
// batching feedback records before shipping them (distributed placement).
//
// Two escape hatches keep the agent usable everywhere the old monolithic
// mapper was:
//   - ControlTransport::kDirect skips channels entirely and calls the
//     service as a plain C++ object (the pre-refactor oracle).
//   - Calls arriving in kernel context (no sim process to block in) always
//     take the direct path, since a blocking RPC needs a process.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/control_plane.hpp"
#include "core/dst_snapshot.hpp"
#include "core/gpool.hpp"
#include "core/placement_service.hpp"
#include "core/tables.hpp"
#include "obs/registry.hpp"
#include "rpc/channel.hpp"
#include "simcore/simulation.hpp"

namespace strings::core {

class MapperAgent {
 public:
  /// `channel` is the duplex pair returned by
  /// PlacementService::connect_agent, or nullptr for kDirect transport.
  /// `push_channel` is the one-way service->agent delta channel returned by
  /// PlacementService::connect_push (push sync mode; nullptr keeps the
  /// agent pull-only regardless of `config.sync_mode`).
  /// Construct only after the service is finalized (the agent copies the
  /// gMap replica the gPool Creator "broadcasts").
  MapperAgent(sim::Simulation& sim, NodeId node, PlacementService& service,
              ControlPlaneConfig config, rpc::DuplexChannel* channel,
              rpc::Channel* push_channel = nullptr);
  // The channels count into wire_ and timers capture `this`: not movable.
  MapperAgent(const MapperAgent&) = delete;
  MapperAgent& operator=(const MapperAgent&) = delete;

  /// Picks a GID for an app arriving on this node.
  Gid select_device(const std::string& app_type);
  /// Releases a binding (application exit).
  void unbind(Gid gid, const std::string& app_type);
  /// Buffers a Feedback Engine record; ships a kFeedbackBatch when
  /// `feedback_batch_size` records accumulate or `feedback_max_delay`
  /// passes since the first buffered record.
  void report_feedback(const FeedbackRecord& rec);
  /// Ships any buffered feedback immediately.
  void flush_feedback();

  NodeId node() const { return node_; }
  /// The node-local gMap replica (immutable after the gPool broadcast).
  const GMap& gmap() const { return gmap_; }
  /// The cached snapshot the last distributed decision used (test seam).
  const DstSnapshot& cached_snapshot() const { return snapshot_; }
  /// Test-only seam: installs `s` as the cached snapshot exactly as a
  /// kDstSync reply would, running the same analysis checks (INV-DST-1/2).
  /// Negative-path tests use it to inject stale or future-versioned
  /// snapshots; production code must go through refresh_snapshot_if_stale.
  void debug_install_snapshot(DstSnapshot s) { install_snapshot(std::move(s)); }
  /// Test-only seam: runs the gap-detect / suffix-apply state machine on
  /// `d` exactly as a drained kDstDelta would (including INV-DST-3).
  void debug_apply_delta(const DstDelta& d) { apply_delta(d); }
  /// Drains any already-delivered kDstDelta packets now. Production drains
  /// at every select/unbind; tests call this to observe convergence at
  /// quiescent points.
  void poll_push() { drain_deltas(); }
  /// True once kDstSubscribe has armed the service's fan-out to this agent.
  bool subscribed() const { return subscribed_; }
  /// Counters including this agent's channel byte/packet totals.
  ControlPlaneStats stats() const;
  /// The counters of stats() by reference, without its copies of the
  /// latency and placement vectors; bytes_sent and packets_sent read 0
  /// here (use the accessors below). Registry gauges read single fields.
  const ControlPlaneStats& counters() const { return stats_; }
  /// This agent's channel traffic: request, response and delta push.
  std::uint64_t bytes_sent() const { return wire_.bytes; }
  std::uint64_t packets_sent() const { return wire_.packets; }

  /// Optional registry histogram: every placement decision's latency is
  /// additionally observed into it (milliseconds).
  void set_latency_histogram(obs::Histogram* h) { latency_hist_ = h; }

 private:
  bool use_rpc() const;
  bool push_enabled() const;
  void ensure_subscribed();
  void drain_deltas();
  void apply_delta(const DstDelta& d);
  void refresh_snapshot_if_stale();
  void install_snapshot(DstSnapshot s);
  void arm_flush_timer();

  sim::Simulation& sim_;
  NodeId node_;
  PlacementService& service_;
  ControlPlaneConfig config_;
  rpc::DuplexChannel* channel_ = nullptr;
  rpc::Channel* push_channel_ = nullptr;
  bool subscribed_ = false;
  std::unique_ptr<rpc::RpcClient> client_;
  GMap gmap_;
  DstSnapshot snapshot_;
  bool snapshot_valid_ = false;
  /// Distributed mode: this node's own policy instances, evaluated over
  /// the cached snapshot.
  PolicyArbiter arbiter_;
  std::vector<FeedbackRecord> pending_feedback_;
  /// High-water mark of encoded batch size; pre-sizes the next flush.
  std::size_t feedback_body_hint_ = 0;
  bool flush_armed_ = false;
  ControlPlaneStats stats_;
  /// What this agent's channels have sent (see bytes_sent()).
  rpc::WireTotals wire_;
  obs::Histogram* latency_hist_ = nullptr;
};

}  // namespace strings::core
