#include "core/control_plane.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace strings::core {

namespace {
std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}
}  // namespace

PolicyArbiter::PolicyArbiter(const std::string& static_policy,
                             const std::string& feedback_policy,
                             int min_feedback_samples)
    : static_policy_(policies::make_balancing_policy(static_policy)),
      min_feedback_samples_(min_feedback_samples) {
  if (!feedback_policy.empty()) {
    feedback_policy_ = policies::make_balancing_policy(feedback_policy);
  }
}

void PolicyArbiter::configure_striping(int rank, int deciders) {
  static_policy_->configure_striping(rank, deciders);
  if (feedback_policy_ != nullptr) {
    feedback_policy_->configure_striping(rank, deciders);
  }
}

bool PolicyArbiter::use_feedback(const DstSnapshot& view,
                                 const std::string& app_type) const {
  return feedback_policy_ != nullptr &&
         view.sft.samples(app_type) >= min_feedback_samples_;
}

const char* PolicyArbiter::policy_name(const DstSnapshot& view,
                                       const std::string& app_type) const {
  return use_feedback(view, app_type) ? feedback_policy_->name()
                                      : static_policy_->name();
}

PolicyArbiter::Pick PolicyArbiter::select(const GMap& gmap,
                                          const DstSnapshot& view,
                                          const std::string& app_type,
                                          NodeId origin_node) {
  policies::BalanceInput in;
  in.gmap = &gmap;
  in.view = &view;
  in.app_type = app_type;
  in.origin_node = origin_node;
  Pick pick;
  pick.feedback = use_feedback(view, app_type);
  pick.gid = (pick.feedback ? *feedback_policy_ : *static_policy_).select(in);
  return pick;
}

PlacementMode parse_placement_mode(const std::string& s) {
  const std::string l = lower(s);
  if (l == "centralized") return PlacementMode::kCentralized;
  if (l == "distributed") return PlacementMode::kDistributed;
  throw std::invalid_argument("unknown placement mode: " + s);
}

ControlTransport parse_control_transport(const std::string& s) {
  const std::string l = lower(s);
  if (l == "direct") return ControlTransport::kDirect;
  if (l == "zero_cost" || l == "zerocost") return ControlTransport::kZeroCost;
  if (l == "data_plane" || l == "dataplane") {
    return ControlTransport::kDataPlane;
  }
  throw std::invalid_argument("unknown control transport: " + s);
}

SyncMode parse_sync_mode(const std::string& s) {
  const std::string l = lower(s);
  if (l == "pull") return SyncMode::kPull;
  if (l == "push") return SyncMode::kPush;
  throw std::invalid_argument("unknown sync mode: " + s);
}

}  // namespace strings::core
