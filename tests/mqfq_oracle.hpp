// Test oracle: the string-keyed MQFQ-Sticky decision procedure, kept as
// the reference the id-indexed MqfqStickyPolicy must match decision for
// decision. It regroups the snapshot into a name-ordered std::map of
// tenants on every call and breaks ties by stable-sorting tenant names —
// slow, but obviously in name order. It ignores RcbSnapshot::tenant_id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "policies/device_policies.hpp"

namespace strings::testing_oracle {

class StringKeyedMqfq {
 public:
  explicit StringKeyedMqfq(policies::MqfqConfig cfg = {}) : cfg_(cfg) {}

  std::vector<std::uint64_t> pick_awake(
      const std::vector<policies::RcbSnapshot>& rcb, sim::SimTime now) {
    struct TenantView {
      sim::SimTime attained = 0;
      double weight = 1.0;
      bool backlogged = false;
    };
    std::map<std::string, TenantView> tenants;
    for (const auto& r : rcb) {
      auto& t = tenants[std::string(r.tenant)];
      t.attained = std::max(t.attained, r.tenant_attained);
      t.weight = r.tenant_weight > 0.0 ? r.tenant_weight : 1.0;
      t.backlogged = t.backlogged || r.backlogged;
    }
    for (auto& [name, view] : tenants) {
      auto [it, inserted] = flows_.try_emplace(name);
      Flow& f = it->second;
      if (inserted) {
        f.vt = global_vt_;
        f.last_attained = view.attained;
      }
      if (view.backlogged && !f.was_backlogged) {
        f.vt = std::max(f.vt, global_vt_);
      }
      const sim::SimTime delta = view.attained - f.last_attained;
      if (delta > 0) f.vt += static_cast<double>(delta) / view.weight;
      f.last_attained = view.attained;
      f.was_backlogged = view.backlogged;
    }
    for (auto& [name, f] : flows_) {
      if (tenants.find(name) == tenants.end()) f.was_backlogged = false;
    }

    std::vector<std::string> backlogged;
    for (const auto& [name, view] : tenants) {
      if (view.backlogged) backlogged.push_back(name);
    }
    last_throttled_.clear();
    if (backlogged.empty()) return {};
    double min_vt = flows_[backlogged.front()].vt;
    for (const auto& name : backlogged) {
      min_vt = std::min(min_vt, flows_[name].vt);
    }
    global_vt_ = min_vt;
    const double throttle_at =
        global_vt_ + static_cast<double>(cfg_.throttle_T);

    std::vector<std::string> runnable;
    for (const auto& name : backlogged) {
      if (flows_[name].vt > throttle_at) {
        last_throttled_.push_back(name);
      } else {
        runnable.push_back(name);
      }
    }
    std::stable_sort(runnable.begin(), runnable.end(),
                     [&](const std::string& a, const std::string& b) {
                       const Flow& fa = flows_[a];
                       const Flow& fb = flows_[b];
                       const bool sa = fa.sticky_until > now;
                       const bool sb = fb.sticky_until > now;
                       if (sa != sb) return sa;
                       return fa.vt < fb.vt;
                     });
    if (cfg_.slots > 0 &&
        runnable.size() > static_cast<std::size_t>(cfg_.slots)) {
      runnable.resize(static_cast<std::size_t>(cfg_.slots));
    }

    std::vector<std::uint64_t> awake;
    for (const auto& name : runnable) {
      flows_[name].sticky_until = now + cfg_.sticky_window;
      const policies::RcbSnapshot* head = nullptr;
      for (const auto& r : rcb) {
        if (r.tenant != name || !r.backlogged) continue;
        if (head == nullptr || r.key < head->key) head = &r;
      }
      if (head != nullptr) awake.push_back(head->key);
    }
    return awake;
  }

  std::vector<std::pair<std::string, double>> vtimes() const {
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [name, f] : flows_) out.emplace_back(name, f.vt);
    return out;
  }
  double global_vtime() const { return global_vt_; }
  const std::vector<std::string>& last_throttled() const {
    return last_throttled_;
  }

 private:
  struct Flow {
    double vt = 0.0;
    sim::SimTime last_attained = 0;
    sim::SimTime sticky_until = -1;
    bool was_backlogged = false;
  };
  policies::MqfqConfig cfg_;
  std::map<std::string, Flow> flows_;
  double global_vt_ = 0.0;
  std::vector<std::string> last_throttled_;
};

}  // namespace strings::testing_oracle
