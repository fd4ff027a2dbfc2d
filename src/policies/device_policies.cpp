#include "policies/device_policies.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>

namespace strings::policies {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kKernelLaunch: return "KL";
    case Phase::kH2D: return "H2D";
    case Phase::kD2H: return "D2H";
    case Phase::kDefault: return "DFL";
  }
  return "?";
}

std::vector<std::uint64_t> AllAwakePolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb) {
  std::vector<std::uint64_t> out;
  out.reserve(rcb.size());
  for (const auto& r : rcb) out.push_back(r.key);
  return out;
}

std::vector<std::uint64_t> TfsPolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb) {
  // Wake the backlogged thread with the largest deficit (entitlement minus
  // attained service). A thread that overshot its share in earlier epochs
  // carries a negative deficit and is automatically penalized; unused shares
  // of idle tenants flow to backlogged ones (work conservation).
  const RcbSnapshot* best = nullptr;
  double best_deficit = 0.0;
  int backlogged = 0;
  for (const auto& r : rcb) {
    if (!r.backlogged) continue;
    ++backlogged;
    const double deficit =
        static_cast<double>(r.entitled) - static_cast<double>(r.total_service);
    if (best == nullptr || deficit > best_deficit) {
      best = &r;
      best_deficit = deficit;
    }
  }
  quiescence_ = backlogged <= 1 ? Quiescence::kUntilBacklogChanges
                                : Quiescence::kEveryEpoch;
  if (best == nullptr) return {};
  return {best->key};
}

namespace {

/// The first three entries of a stable sort by `key`: inserts `r` behind
/// every kept entry whose key is not greater, dropping what falls past the
/// third. Equal keys therefore keep snapshot order, as std::stable_sort
/// would, without allocating.
struct Top3 {
  std::array<const RcbSnapshot*, 3> at{};
  std::size_t size = 0;

  template <class Key>
  void offer(const RcbSnapshot* r, Key key) {
    std::size_t i = size;
    while (i > 0 && key(*r) < key(*at[i - 1])) {
      if (i < at.size()) at[i] = at[i - 1];
      --i;
    }
    if (i == at.size()) return;
    at[i] = r;
    if (size < at.size()) ++size;
  }
};

}  // namespace

std::vector<std::uint64_t> LasPolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb) {
  // Greedy: raise the priority of threads with the least decayed cumulative
  // service by admitting only the top-k of them each epoch (k matches PS's
  // three engine slots, so LAS forgoes no overlap). Short-episode jobs
  // finish sooner, minimizing total CPU stall time — at the cost of starving
  // long-episode jobs outside the window (the paper calls LAS "extremely
  // greedy" and unfair). Ties keep snapshot (key) order.
  Top3 least;
  std::size_t backlogged = 0;
  for (const auto& r : rcb) {
    if (!r.backlogged) continue;
    ++backlogged;
    least.offer(&r, [](const RcbSnapshot& s) { return s.cgs; });
  }
  std::vector<std::uint64_t> awake;
  awake.reserve(least.size);
  std::uint64_t top_picked = 0;
  for (std::size_t i = 0; i < least.size; ++i) {
    awake.push_back(least.at[i]->key);
    top_picked = std::max(top_picked, least.at[i]->key);
  }
  // Every backlogged thread picked: only the backlog can change that.
  // Otherwise the pick stands iff the picks are the lowest backlogged keys.
  quiescence_ =
      backlogged == least.size ? Quiescence::kUntilBacklogChanges
      : std::count_if(rcb.begin(), rcb.end(),
                      [&](const RcbSnapshot& r) {
                        return r.backlogged && r.key <= top_picked;
                      }) == static_cast<std::ptrdiff_t>(least.size)
          ? Quiescence::kUntilInputChanges
          : Quiescence::kEveryEpoch;
  return awake;
}

std::vector<std::uint64_t> PsPolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb) {
  // One thread per GPU phase so kernel + H2D + D2H engines run concurrently.
  // Within a phase, prefer least attained service (fairness inside the
  // relaxed TFS invariant; ties keep snapshot order). If a phase has no
  // candidate, fill remaining slots by phase priority KL > H2D = D2H > DFL.
  // At most three threads wake, so each phase's three least-served
  // candidates are all a decision can reach.
  std::array<Top3, 4> by_phase;  // indexed by Phase
  for (const auto& r : rcb) {
    if (!r.backlogged) continue;
    by_phase[static_cast<std::size_t>(r.phase)].offer(
        &r, [](const RcbSnapshot& s) { return s.total_service; });
  }
  std::array<std::size_t, 4> taken{};
  std::vector<std::uint64_t> awake;
  auto take_phase = [&](Phase p) -> bool {
    const auto i = static_cast<std::size_t>(p);
    if (taken[i] == by_phase[i].size) return false;
    awake.push_back(by_phase[i].at[taken[i]++]->key);
    return true;
  };
  int slots = 3;
  if (take_phase(Phase::kKernelLaunch)) --slots;
  if (take_phase(Phase::kH2D)) --slots;
  if (take_phase(Phase::kD2H)) --slots;
  // Fill leftover slots by priority order (more kernel work first, then
  // transfers, then default-phase threads).
  const Phase priority[] = {Phase::kKernelLaunch, Phase::kH2D, Phase::kD2H,
                            Phase::kDefault};
  for (Phase p : priority) {
    while (slots > 0 && take_phase(p)) --slots;
    if (slots == 0) break;
  }
  return awake;
}

MqfqStickyPolicy::MqfqStickyPolicy(MqfqConfig cfg) : cfg_(cfg) {}

std::vector<std::uint64_t> MqfqStickyPolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb) {
  // Timeless entry point (direct unit-test use): reuse the last clock the
  // dispatcher handed us, which degrades stickiness to "until re-evaluated".
  return pick_awake(rcb, last_now_);
}

MqfqStickyPolicy::Flow& MqfqStickyPolicy::flow_of(const RcbSnapshot& r) {
  if (r.tenant_id >= flows_.size()) flows_.resize(r.tenant_id + 1);
  Flow& f = flows_[r.tenant_id];
  if (!f.known) {
    // A new tenant: the only point where names are copied or compared.
    // Its rank slots it into name order, which the tie-breaks below use.
    f.known = true;
    f.fresh = true;
    f.name.assign(r.tenant);
    const auto pos = std::lower_bound(
        by_name_.begin(), by_name_.end(), f.name,
        [this](std::uint32_t id, const std::string& name) {
          return flows_[id].name < name;
        });
    const auto from = static_cast<std::size_t>(pos - by_name_.begin());
    by_name_.insert(pos, r.tenant_id);
    for (std::size_t i = from; i < by_name_.size(); ++i) {
      flows_[by_name_[i]].rank = static_cast<std::uint32_t>(i);
    }
  }
  return f;
}

std::vector<std::uint64_t> MqfqStickyPolicy::pick_awake(
    const std::vector<RcbSnapshot>& rcb, sim::SimTime now) {
  last_now_ = now;
  ++decision_;

  // Group the per-thread snapshots by tenant in one pass: MQFQ queues are
  // tenant-level, one flow per tenant regardless of how many threads it has
  // registered. A flow's head of line is its lowest backlogged key.
  prev_present_.swap(present_);
  present_.clear();
  for (const auto& r : rcb) {
    Flow& f = flow_of(r);
    if (f.seen != decision_) {
      f.seen = decision_;
      f.attained = 0;
      f.backlogged = false;
      present_.push_back(r.tenant_id);
    }
    f.attained = std::max(f.attained, r.tenant_attained);
    f.weight = r.tenant_weight > 0.0 ? r.tenant_weight : 1.0;
    if (r.backlogged && (!f.backlogged || r.key < f.head)) f.head = r.key;
    f.backlogged = f.backlogged || r.backlogged;
  }

  // Advance each flow's virtual clock by the service its tenant attained
  // since the last decision, normalized by weight. A flow transitioning
  // idle -> backlogged is lifted to the global virtual time first: idling
  // must never bank credit against active tenants (start-time fair queueing
  // arrival rule).
  for (const std::uint32_t id : present_) {
    Flow& f = flows_[id];
    if (f.fresh) {
      f.fresh = false;
      f.vt = global_vt_;
      f.last_attained = f.attained;
    }
    if (f.backlogged && !f.was_backlogged) f.vt = std::max(f.vt, global_vt_);
    const sim::SimTime delta = f.attained - f.last_attained;
    if (delta > 0) f.vt += static_cast<double>(delta) / f.weight;
    f.last_attained = f.attained;
    f.was_backlogged = f.backlogged;
  }
  // Flows for tenants with no registered threads left keep their virtual
  // time (so a detach/re-attach cycle cannot reset history) but drop out of
  // the backlogged set and the global-vt computation below. Only a flow of
  // the previous snapshot can still be marked backlogged.
  for (const std::uint32_t id : prev_present_) {
    Flow& f = flows_[id];
    if (f.seen != decision_) f.was_backlogged = false;
  }

  // Global virtual time = minimum over backlogged flows; throttle flows more
  // than T ahead of it. The minimum flow is never throttled, so whenever any
  // queue is backlogged at least one tenant is runnable (work conservation).
  throttled_.clear();
  runnable_.clear();
  sticky_ranked_ = false;
  bool any_backlogged = false;
  double min_vt = 0.0;
  for (const std::uint32_t id : present_) {
    const Flow& f = flows_[id];
    if (!f.backlogged) continue;
    min_vt = any_backlogged ? std::min(min_vt, f.vt) : f.vt;
    any_backlogged = true;
  }
  if (!any_backlogged) return {};
  global_vt_ = min_vt;
  const double throttle_at = global_vt_ + static_cast<double>(cfg_.throttle_T);
  for (const std::uint32_t id : present_) {
    const Flow& f = flows_[id];
    if (!f.backlogged) continue;
    if (f.vt > throttle_at) {
      throttled_.push_back(id);
    } else {
      runnable_.push_back(id);
      sticky_ranked_ = sticky_ranked_ || f.sticky_until > now;
    }
  }

  // Stickiness: tenants still inside their window keep their slots first;
  // remaining slots go to the lowest virtual times. Ties break on tenant
  // name (rank), which is unique, so the order is total and selecting the
  // first `slots` gives exactly the prefix of a full sort.
  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    const Flow& fa = flows_[a];
    const Flow& fb = flows_[b];
    const bool sa = fa.sticky_until > now;
    const bool sb = fb.sticky_until > now;
    if (sa != sb) return sa;
    if (fa.vt != fb.vt) return fa.vt < fb.vt;
    return fa.rank < fb.rank;
  };
  if (cfg_.slots > 0 &&
      runnable_.size() > static_cast<std::size_t>(cfg_.slots)) {
    const auto keep = runnable_.begin() + cfg_.slots;
    std::partial_sort(runnable_.begin(), keep, runnable_.end(), before);
    runnable_.erase(keep, runnable_.end());
  } else {
    std::sort(runnable_.begin(), runnable_.end(), before);
  }

  // Each flow is a FIFO: only its head-of-line thread dispatches (lowest
  // key = registration order). Waking a tenant's whole thread set would let
  // a deep backlog flood the engine queues past the throttle's reach.
  std::vector<std::uint64_t> awake;
  awake.reserve(runnable_.size());
  for (const std::uint32_t id : runnable_) {
    Flow& f = flows_[id];
    f.sticky_until = now + cfg_.sticky_window;
    awake.push_back(f.head);
  }
  return awake;
}

std::vector<std::pair<std::string, double>> MqfqStickyPolicy::vtimes() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(by_name_.size());
  for (const std::uint32_t id : by_name_) {
    out.emplace_back(flows_[id].name, flows_[id].vt);
  }
  return out;
}

std::vector<std::string> MqfqStickyPolicy::last_throttled() const {
  // Kept unsorted by the decision; name order is only needed here. Ranks
  // only shift as new tenants slot in, which preserves the relative order
  // of the flows recorded at that decision.
  std::vector<std::uint32_t> ids = throttled_;
  std::sort(ids.begin(), ids.end(), [this](std::uint32_t a, std::uint32_t b) {
    return flows_[a].rank < flows_[b].rank;
  });
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (const std::uint32_t id : ids) out.push_back(flows_[id].name);
  return out;
}

namespace {
std::map<std::string, std::function<std::unique_ptr<DeviceSchedPolicy>()>>&
custom_device_registry() {
  static std::map<std::string,
                  std::function<std::unique_ptr<DeviceSchedPolicy>()>>
      registry;
  return registry;
}
}  // namespace

void register_device_policy(
    const std::string& name,
    std::function<std::unique_ptr<DeviceSchedPolicy>()> factory) {
  custom_device_registry()[name] = std::move(factory);
}

std::unique_ptr<DeviceSchedPolicy> make_device_policy(const std::string& name,
                                                      const MqfqConfig& mqfq) {
  if (auto it = custom_device_registry().find(name);
      it != custom_device_registry().end()) {
    return it->second();
  }
  if (name == "AllAwake") return std::make_unique<AllAwakePolicy>();
  if (name == "TFS") return std::make_unique<TfsPolicy>();
  if (name == "LAS") return std::make_unique<LasPolicy>();
  if (name == "PS") return std::make_unique<PsPolicy>();
  if (name == "MQFQ" || name == "mqfq") {
    return std::make_unique<MqfqStickyPolicy>(mqfq);
  }
  throw std::invalid_argument("unknown device policy: " + name);
}

}  // namespace strings::policies
