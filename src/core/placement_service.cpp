#include "core/placement_service.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "analysis/access.hpp"
#include "rpc/call_ids.hpp"
#include "rpc/marshal.hpp"

namespace strings::core {

PlacementService::PlacementService(Config config)
    : config_(std::move(config)),
      static_policy_(policies::make_balancing_policy(config_.static_policy)) {
  if (!config_.feedback_policy.empty()) {
    feedback_policy_ =
        policies::make_balancing_policy(config_.feedback_policy);
  }
}

std::vector<Gid> PlacementService::report_node(
    NodeId node, const std::vector<gpu::DeviceProps>& devices) {
  if (finalized_) {
    throw std::logic_error("report_node after gPool finalization");
  }
  return gmap_.add_node(node, devices);
}

void PlacementService::finalize() {
  if (finalized_) return;
  if (gmap_.size() == 0) throw std::logic_error("gPool has no devices");
  state_.dst = DeviceStatusTable(gmap_);
  state_.bound_types.assign(static_cast<std::size_t>(gmap_.size()), {});
  finalized_ = true;
}

bool PlacementService::use_feedback_for(const std::string& app_type) const {
  return feedback_policy_ != nullptr &&
         state_.sft.samples(app_type) >= config_.min_feedback_samples;
}

const char* PlacementService::active_policy_name(
    const std::string& app_type) const {
  return use_feedback_for(app_type) ? feedback_policy_->name()
                                    : static_policy_->name();
}

Gid PlacementService::select_device(const std::string& app_type,
                                    NodeId origin_node) {
  assert(finalized_ && "select_device before finalize()");
  ANALYSIS_READ(&state_.dst, "service/dst");
  ANALYSIS_READ(&state_.sft, "service/sft");
  policies::BalanceInput in;
  in.gmap = &gmap_;
  in.view = &state_;
  in.app_type = app_type;
  in.origin_node = origin_node;

  Gid gid = -1;
  if (use_feedback_for(app_type)) {
    gid = feedback_policy_->select(in);
    ++feedback_selections_;
  } else {
    gid = static_policy_->select(in);
    ++static_selections_;
  }
  assert(gid >= 0 && gid < gmap_.size());
  apply_bind(gid, app_type);
  return gid;
}

void PlacementService::apply_bind(Gid gid, const std::string& app_type,
                                  NodeId applied_by) {
  assert(finalized_);
  ANALYSIS_WRITE(&state_.dst, "service/dst");
  state_.dst.on_bind(gid);
  state_.bound_types[static_cast<std::size_t>(gid)].push_back(app_type);
  ++state_.version;
  placements_.emplace_back(app_type, gid);
  // The authoritative DST sees every bind (local selects and kBindReport),
  // so this is where round-robin divergence becomes observable.
  if (analysis::enabled() && feedback_policy_ == nullptr &&
      config_.static_policy == "GRR") {
    std::vector<std::int64_t> totals;
    totals.reserve(state_.dst.rows().size());
    for (const auto& r : state_.dst.rows()) totals.push_back(r.total_bound);
    analysis::inv_grr_bind(totals, ANALYSIS_SITE);
  }
  DeltaOp op;
  op.kind = DeltaOp::Kind::kBind;
  op.gid = gid;
  op.app_type = app_type;
  op.applied_by = applied_by;
  publish_delta(std::move(op));
}

void PlacementService::unbind(Gid gid, const std::string& app_type,
                              NodeId applied_by) {
  assert(finalized_);
  ANALYSIS_WRITE(&state_.dst, "service/dst");
  state_.dst.on_unbind(gid);
  auto& bound = state_.bound_types[static_cast<std::size_t>(gid)];
  auto it = std::find(bound.begin(), bound.end(), app_type);
  if (it != bound.end()) bound.erase(it);
  ++state_.version;
  DeltaOp op;
  op.kind = DeltaOp::Kind::kUnbind;
  op.gid = gid;
  op.app_type = app_type;
  op.applied_by = applied_by;
  publish_delta(std::move(op));
}

void PlacementService::on_feedback(const FeedbackRecord& rec) {
  ANALYSIS_WRITE(&state_.sft, "service/sft");
  state_.sft.update(rec);
  ++state_.version;
  DeltaOp op;
  op.kind = DeltaOp::Kind::kFeedback;
  op.feedback = rec;
  publish_delta(std::move(op));
}

void PlacementService::publish_delta(DeltaOp op) {
  // Every mutation bumps version by exactly one, so a single-op delta covers
  // [version-1, version). Subscribers that miss one see a base gap and pull.
  bool any = false;
  for (const auto& conn : conns_) {
    if (conn->subscribed && conn->push != nullptr) {
      any = true;
      break;
    }
  }
  if (!any) return;

  DstDelta delta;
  delta.base_version = state_.version - 1;
  delta.new_version = state_.version;
  delta.taken_at = sim_ != nullptr ? sim_->now() : 0;
  delta.ops.push_back(std::move(op));

  delta_scratch_.clear();
  encode_delta(delta_scratch_, delta);
  const std::vector<std::byte>& body = delta_scratch_.buffer();

  for (const auto& conn : conns_) {
    if (!conn->subscribed || conn->push == nullptr) continue;
    sim::SimTime delay = 0;
    if (push_fault_) delay = push_fault_(conn->node, delta);
    if (delay < 0) {
      ++deltas_dropped_;
      continue;
    }
    rpc::Packet pkt;
    pkt.call = rpc::CallId::kDstDelta;
    pkt.seq = conn->push_seq++;
    pkt.oneway = true;
    pkt.body = body;
    ++deltas_sent_;
    if (delay == 0) {
      conn->push->send(std::move(pkt));
    } else {
      // A delayed send enters the wire later than deltas published after
      // it, so it arrives out of order — the reordering fault.
      rpc::Channel* ch = conn->push.get();
      sim_->schedule(delay, [ch, pkt = std::move(pkt)]() mutable {
        ch->send(std::move(pkt));
      });
    }
  }
}

int PlacementService::subscriber_count() const {
  int n = 0;
  for (const auto& conn : conns_) {
    if (conn->subscribed) ++n;
  }
  return n;
}

DstSnapshot PlacementService::snapshot(sim::SimTime now) const {
  assert(finalized_ && "snapshot before finalize()");
  ANALYSIS_READ(&state_.dst, "service/dst");
  ANALYSIS_READ(&state_.sft, "service/sft");
  DstSnapshot s = state_;
  s.taken_at = now;
  return s;
}

rpc::DuplexChannel& PlacementService::connect_agent(
    sim::Simulation& sim, NodeId agent_node, rpc::LinkModel link,
    std::shared_ptr<rpc::SharedLink> tx, std::shared_ptr<rpc::SharedLink> rx) {
  auto conn = std::make_unique<AgentConn>();
  conn->node = agent_node;
  conn->channel = std::make_unique<rpc::DuplexChannel>(sim, link,
                                                       std::move(tx),
                                                       std::move(rx));
  if (tracer_ != nullptr) {
    conn->channel->request.set_tracer(
        tracer_, tracer_->link_track(agent_node, service_node_));
    conn->channel->response.set_tracer(
        tracer_, tracer_->link_track(service_node_, agent_node));
  }
  AgentConn& c = *conn;
  conns_.push_back(std::move(conn));
  sim.spawn_daemon("placement/agent" + std::to_string(agent_node),
                   [this, &sim, &c] { serve_loop(sim, c); });
  return *c.channel;
}

rpc::Channel& PlacementService::connect_push(
    sim::Simulation& sim, NodeId agent_node, rpc::LinkModel link,
    std::shared_ptr<rpc::SharedLink> wire) {
  for (const auto& conn : conns_) {
    if (conn->node != agent_node) continue;
    if (conn->push != nullptr) {
      throw std::logic_error("push channel already connected for node " +
                             std::to_string(agent_node));
    }
    conn->push = std::make_unique<rpc::Channel>(sim, link, std::move(wire));
    if (tracer_ != nullptr) {
      conn->push->set_tracer(tracer_,
                             tracer_->link_track(service_node_, agent_node));
    }
    sim_ = &sim;
    return *conn->push;
  }
  throw std::logic_error("connect_push before connect_agent for node " +
                         std::to_string(agent_node));
}

void PlacementService::serve_loop(sim::Simulation& sim, AgentConn& conn) {
  for (;;) {
    rpc::Packet req = conn.channel->request.receive();
    ++rpcs_served_;
    rpc::Marshal reply;
    switch (req.call) {
      case rpc::CallId::kSelectDevice: {
        rpc::Unmarshal u(req.body);
        const std::string app_type = u.get_string();
        const NodeId origin = u.get_i32();
        reply.put_i32(select_device(app_type, origin));
        break;
      }
      case rpc::CallId::kUnbindDevice: {
        rpc::Unmarshal u(req.body);
        const Gid gid = u.get_i32();
        // The requesting agent already unbound its cache optimistically,
        // so its own echo delta must be skippable: tag with its node.
        unbind(gid, u.get_string(), conn.node);
        break;
      }
      case rpc::CallId::kDstSync: {
        encode_snapshot(reply, snapshot(sim.now()));
        break;
      }
      case rpc::CallId::kDstSubscribe: {
        // Arm push fan-out and reply with a full snapshot so the agent
        // starts version-aligned; deltas published after this instant all
        // have base >= the shipped version.
        conn.subscribed = true;
        encode_snapshot(reply, snapshot(sim.now()));
        break;
      }
      case rpc::CallId::kBindReport: {
        rpc::Unmarshal u(req.body);
        const Gid gid = u.get_i32();
        apply_bind(gid, u.get_string(), conn.node);
        break;
      }
      case rpc::CallId::kFeedbackBatch: {
        rpc::Unmarshal u(req.body);
        const std::uint32_t n = u.get_u32();
        for (std::uint32_t i = 0; i < n; ++i) {
          on_feedback(decode_feedback(u));
        }
        break;
      }
      default:
        throw std::logic_error("placement service: unexpected call " +
                               std::string(rpc::call_name(req.call)));
    }
    if (!req.oneway) {
      rpc::Packet resp;
      resp.call = rpc::CallId::kResponse;
      resp.seq = req.seq;
      resp.body = std::move(reply).take();
      conn.channel->response.send(std::move(resp));
    }
  }
}

}  // namespace strings::core
