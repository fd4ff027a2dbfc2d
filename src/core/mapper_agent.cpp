#include "core/mapper_agent.hpp"

#include <algorithm>
#include <cassert>

#include "analysis/access.hpp"
#include "rpc/call_ids.hpp"
#include "rpc/marshal.hpp"

namespace strings::core {

namespace {
std::string snapshot_name(NodeId node) {
  return "agent" + std::to_string(node) + "/snapshot";
}
}  // namespace

MapperAgent::MapperAgent(sim::Simulation& sim, NodeId node,
                         PlacementService& service, ControlPlaneConfig config,
                         rpc::DuplexChannel* channel,
                         rpc::Channel* push_channel)
    : sim_(sim),
      node_(node),
      service_(service),
      config_(config),
      channel_(channel),
      push_channel_(push_channel),
      gmap_(service.gmap()),
      arbiter_(service.config().static_policy,
               service.config().feedback_policy,
               service.config().min_feedback_samples) {
  if (channel_ != nullptr) {
    client_ = std::make_unique<rpc::RpcClient>(*channel_);
    channel_->request.count_wire(&wire_);
    channel_->response.count_wire(&wire_);
  }
  // Delta fan-out lands on this agent's link too, so push is not free: it
  // scales with change rate instead of decision rate.
  if (push_channel_ != nullptr) push_channel_->count_wire(&wire_);
  if (config_.placement == PlacementMode::kDistributed) {
    // Concurrent deciders: stripe stateful cursors (GRR) by agent id so the
    // union of all nodes' picks still covers the pool round-robin instead
    // of every node starting at GID 0 (see ROADMAP: striped counters).
    int deciders = 1;
    for (const auto& e : gmap_.entries()) {
      deciders = std::max(deciders, e.node + 1);
    }
    arbiter_.configure_striping(node_, deciders);
  }
}

bool MapperAgent::use_rpc() const {
  // A blocking RPC needs a process to suspend; kernel-context calls (and
  // the kDirect oracle transport) go straight to the service object.
  return client_ != nullptr &&
         config_.transport != ControlTransport::kDirect &&
         sim_.current() != nullptr;
}

bool MapperAgent::push_enabled() const {
  return push_channel_ != nullptr &&
         config_.placement == PlacementMode::kDistributed &&
         config_.sync_mode == SyncMode::kPush;
}

void MapperAgent::ensure_subscribed() {
  if (subscribed_) return;
  // One round trip arms the service's fan-out and ships the snapshot the
  // subsequent deltas build on (counted as a sync: it carries one).
  ++stats_.sync_rpcs;
  rpc::Unmarshal u(client_->call(rpc::CallId::kDstSubscribe, rpc::Marshal{}));
  install_snapshot(decode_snapshot(u));
  subscribed_ = true;
}

void MapperAgent::drain_deltas() {
  if (push_channel_ == nullptr) return;
  while (auto p = push_channel_->try_receive()) {
    rpc::Unmarshal u(std::move(p->body));
    apply_delta(decode_delta(u));
  }
}

void MapperAgent::apply_delta(const DstDelta& d) {
  // Deltas delivered before the subscribe reply installed a base snapshot
  // carry nothing to apply onto; the snapshot will already cover them.
  if (!snapshot_valid_) return;
  if (d.new_version <= snapshot_.version) {
    // Duplicate or reordered straggler: its range is already covered.
    ++stats_.deltas_stale;
    return;
  }
  if (d.base_version > snapshot_.version) {
    // Gap: an earlier delta was dropped or is still in flight. Replaying
    // this one would corrupt the cache, so self-heal with a full pull.
    ++stats_.delta_gap_syncs;
    if (client_ != nullptr && sim_.current() != nullptr) {
      ++stats_.sync_rpcs;
      rpc::Unmarshal u(client_->call(rpc::CallId::kDstSync, rpc::Marshal{}));
      install_snapshot(decode_snapshot(u));
    }
    return;
  }
  if (analysis::enabled()) {
    analysis::inv_delta_apply(node_, snapshot_.version, d.base_version,
                              d.new_version, ANALYSIS_SITE);
  }
  ANALYSIS_WRITE(&snapshot_, snapshot_name(node_));
  // Suffix apply: ops below the cached version are already reflected. An op
  // this agent applied optimistically (its own bind or unbind) is the echo:
  // applying it again would double-count. Feedback ops are never echoes.
  for (std::size_t i =
           static_cast<std::size_t>(snapshot_.version - d.base_version);
       i < d.ops.size(); ++i) {
    if (d.ops[i].applied_by != node_) apply(snapshot_, d.ops[i]);
  }
  snapshot_.version = d.new_version;
  snapshot_.taken_at = std::max(snapshot_.taken_at, d.taken_at);
  ++stats_.deltas_applied;
}

Gid MapperAgent::select_device(const std::string& app_type) {
  const sim::SimTime t0 = sim_.now();
  Gid gid = -1;
  if (!use_rpc()) {
    ++stats_.direct_calls;
    gid = service_.select_device(app_type, node_);
  } else if (config_.placement == PlacementMode::kCentralized) {
    ++stats_.select_rpcs;
    rpc::Marshal m;
    m.put_string(app_type);
    m.put_i32(node_);
    rpc::Unmarshal u(client_->call(rpc::CallId::kSelectDevice, std::move(m)));
    gid = u.get_i32();
  } else {
    if (push_enabled()) {
      ensure_subscribed();
      drain_deltas();
      // Push serves every select from the cache; deltas (not a refresh
      // epoch) bound its age, so only record what it was.
      stats_.max_snapshot_age = std::max(stats_.max_snapshot_age,
                                         sim_.now() - snapshot_.taken_at);
    } else {
      refresh_snapshot_if_stale();
    }
    ANALYSIS_READ(&snapshot_, snapshot_name(node_));
    gid = arbiter_.select(gmap_, snapshot_, app_type, node_).gid;
    assert(gid >= 0 && gid < gmap_.size());
    // Optimistic local bind: later local decisions within the same epoch
    // must see this node's own placements even before the next sync.
    ANALYSIS_WRITE(&snapshot_, snapshot_name(node_));
    snapshot_.bind(gid, app_type);
    ++stats_.oneway_msgs;
    rpc::Marshal m;
    m.put_i32(gid);
    m.put_string(app_type);
    client_->post(rpc::CallId::kBindReport, std::move(m));
  }
  stats_.placement_latencies.push_back(sim_.now() - t0);
  if (latency_hist_ != nullptr) {
    latency_hist_->observe(sim::to_millis(sim_.now() - t0));
  }
  return gid;
}

void MapperAgent::refresh_snapshot_if_stale() {
  const sim::SimTime age = sim_.now() - snapshot_.taken_at;
  if (snapshot_valid_ && age < config_.refresh_epoch) {
    ++stats_.stale_hits;
    stats_.max_snapshot_age = std::max(stats_.max_snapshot_age, age);
    return;
  }
  ++stats_.sync_rpcs;
  rpc::Unmarshal u(client_->call(rpc::CallId::kDstSync, rpc::Marshal{}));
  install_snapshot(decode_snapshot(u));
}

void MapperAgent::install_snapshot(DstSnapshot s) {
  if (analysis::enabled()) {
    analysis::inv_snapshot_install(node_, s.version, service_.version(),
                                   ANALYSIS_SITE);
  }
  ANALYSIS_WRITE(&snapshot_, snapshot_name(node_));
  snapshot_ = std::move(s);
  snapshot_valid_ = true;
}

void MapperAgent::unbind(Gid gid, const std::string& app_type) {
  if (!use_rpc()) {
    ++stats_.direct_calls;
    service_.unbind(gid, app_type);
    return;
  }
  if (push_enabled() && subscribed_) drain_deltas();
  if (snapshot_valid_) {
    // Keep the cache coherent with this node's own lifecycle events.
    ANALYSIS_WRITE(&snapshot_, snapshot_name(node_));
    snapshot_.unbind(gid, app_type);
  }
  ++stats_.unbind_rpcs;
  rpc::Marshal m;
  m.put_i32(gid);
  m.put_string(app_type);
  client_->call(rpc::CallId::kUnbindDevice, std::move(m));
}

void MapperAgent::report_feedback(const FeedbackRecord& rec) {
  if (!use_rpc()) {
    ++stats_.direct_calls;
    service_.on_feedback(rec);
    return;
  }
  ++stats_.feedback_records;
  pending_feedback_.push_back(rec);
  if (static_cast<int>(pending_feedback_.size()) >=
      config_.feedback_batch_size) {
    flush_feedback();
  } else {
    arm_flush_timer();
  }
}

void MapperAgent::arm_flush_timer() {
  if (flush_armed_) return;
  flush_armed_ = true;
  // One-shot: re-armed by the next buffered record, so an idle agent adds
  // no events and the simulation still drains to completion.
  sim_.schedule(config_.feedback_max_delay, [this] {
    flush_armed_ = false;
    flush_feedback();
  });
}

void MapperAgent::flush_feedback() {
  if (pending_feedback_.empty() || client_ == nullptr) return;
  ++stats_.feedback_batches;
  ++stats_.oneway_msgs;
  rpc::Marshal m;
  // The batch body moves into the packet, so the buffer itself cannot be a
  // reused member — instead size it up front from the last flush so the
  // encode loop never reallocates mid-batch.
  m.reserve(feedback_body_hint_);
  m.put_u32(static_cast<std::uint32_t>(pending_feedback_.size()));
  for (const auto& rec : pending_feedback_) encode_feedback(m, rec);
  pending_feedback_.clear();
  feedback_body_hint_ = std::max(feedback_body_hint_, m.size());
  client_->post(rpc::CallId::kFeedbackBatch, std::move(m));
}

ControlPlaneStats MapperAgent::stats() const {
  ControlPlaneStats s = stats_;
  s.bytes_sent = wire_.bytes;
  s.packets_sent = wire_.packets;
  return s;
}

}  // namespace strings::core
