#include "core/placement_service.hpp"

#include <cassert>
#include <stdexcept>

#include "analysis/access.hpp"
#include "rpc/call_ids.hpp"
#include "rpc/marshal.hpp"

namespace strings::core {

PlacementService::PlacementService(Config config)
    : config_(std::move(config)),
      arbiter_(config_.static_policy, config_.feedback_policy,
               config_.min_feedback_samples) {}

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

const char* PlacementService::active_policy_name(
    const std::string& app_type) const {
  return arbiter_.policy_name(state_, app_type);
}

Gid PlacementService::select_device(const std::string& app_type,
                                    NodeId origin_node) {
  assert(finalized_ && "select_device before finalize()");
  ANALYSIS_READ(&state_.dst, "service/dst");
  ANALYSIS_READ(&state_.sft, "service/sft");
  const PolicyArbiter::Pick pick =
      arbiter_.select(gmap_, state_, app_type, origin_node);
  ++(pick.feedback ? feedback_selections_ : static_selections_);
  assert(pick.gid >= 0 && pick.gid < gmap_.size());
  apply_bind(pick.gid, app_type);
  return pick.gid;
}

void PlacementService::apply_bind(Gid gid, const std::string& app_type,
                                  NodeId applied_by) {
  assert(finalized_);
  ANALYSIS_WRITE(&state_.dst, "service/dst");
  DeltaOp op{.kind = DeltaOp::Kind::kBind, .gid = gid, .app_type = app_type,
             .feedback = {}, .applied_by = applied_by};
  apply(state_, op);
  placements_.emplace_back(app_type, gid);
  // The authoritative DST sees every bind (local selects and kBindReport),
  // so this is where round-robin divergence becomes observable.
  if (analysis::enabled() && config_.feedback_policy.empty() &&
      config_.static_policy == "GRR") {
    std::vector<std::int64_t> totals;
    totals.reserve(state_.dst.rows().size());
    for (const auto& r : state_.dst.rows()) totals.push_back(r.total_bound);
    analysis::inv_grr_bind(totals, ANALYSIS_SITE);
  }
  publish(std::move(op));
}

void PlacementService::unbind(Gid gid, const std::string& app_type,
                              NodeId applied_by) {
  assert(finalized_);
  ANALYSIS_WRITE(&state_.dst, "service/dst");
  DeltaOp op{.kind = DeltaOp::Kind::kUnbind, .gid = gid, .app_type = app_type,
             .feedback = {}, .applied_by = applied_by};
  apply(state_, op);
  publish(std::move(op));
}

void PlacementService::on_feedback(const FeedbackRecord& rec) {
  ANALYSIS_WRITE(&state_.sft, "service/sft");
  DeltaOp op{.kind = DeltaOp::Kind::kFeedback, .gid = -1, .app_type = {},
             .feedback = rec, .applied_by = -1};
  apply(state_, op);
  publish(std::move(op));
}

void PlacementService::publish(DeltaOp op) {
  // Every mutation bumps version by exactly one, so a single-op delta covers
  // [version-1, version). Subscribers that miss one see a base gap and pull.
  ++state_.version;
  if (subscriber_count() == 0) return;

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
      case rpc::CallId::kDstSubscribe:
        // Arm push fan-out and reply with a full snapshot so the agent
        // starts version-aligned; deltas published after this instant all
        // have base >= the shipped version.
        conn.subscribed = true;
        [[fallthrough]];
      case rpc::CallId::kDstSync:
        encode_snapshot(reply, snapshot(sim.now()));
        break;
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
