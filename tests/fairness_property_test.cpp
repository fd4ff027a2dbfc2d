// Property-based fairness suite for the device-level queueing policies.
//
// A synthetic epoch harness drives MqfqStickyPolicy / LasPolicy directly:
// open-loop arrival schedules (workloads/arrivals.hpp — the same generator
// the testbed uses) feed per-tenant request queues, each epoch builds the
// RcbSnapshot vector the dispatcher would, asks the policy who runs, and
// grants the epoch's service to the awake threads. Because everything is
// deterministic, each (seed, arrival-kind, policy) triple is a reproducible
// schedule, and the suite sweeps 50+ seeds of both Poisson and bursty
// traffic through both policies.
//
// Pinned invariants:
//   * virtual-time monotonicity — no tenant flow's virtual clock, nor the
//     global virtual time, ever moves backwards (MQFQ);
//   * work conservation — whenever any thread is backlogged, the policy
//     wakes at least one thread (MQFQ: the minimum flow is never throttled);
//   * bounded service gap — a backlogged flow's virtual time never exceeds
//     the global virtual time by more than throttle_T plus one epoch's
//     worth of service (the largest overshoot a single grant can add).
//
// On violation the test prints the seed and the recent event chain (epoch,
// awake set, per-flow virtual times) so the failure replays standalone.
//
// The differential tests drive MqfqStickyPolicy and the string-keyed
// reference (mqfq_oracle.hpp) with the same snapshots and require the same
// awake keys, virtual times, global virtual time and throttled set at every
// decision: over the sweep's schedules, over a randomized churn script
// (tenants with several threads, detach/re-attach, names that sort against
// registration order), and over directed cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mqfq_oracle.hpp"
#include "policies/device_policies.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/testbed.hpp"

namespace strings {
namespace {

using policies::MqfqConfig;
using policies::MqfqStickyPolicy;
using policies::RcbSnapshot;
using testing_oracle::StringKeyedMqfq;
using workloads::ArrivalKind;
using workloads::OpenLoopTenant;

constexpr sim::SimTime kEpoch = sim::msec(1);
constexpr int kSeeds = 50;

struct HarnessTenant {
  std::string name;
  double weight = 1.0;
  std::uint64_t key = 0;            // one RCB per tenant
  std::vector<sim::SimTime> arrivals;
  std::size_t next_arrival = 0;
  int queued = 0;                   // requests arrived, not yet finished
  sim::SimTime remaining = 0;       // service left on the head request
  sim::SimTime service_per_request = sim::msec(5);
  sim::SimTime attained = 0;        // cumulative engine residency
};

/// Ring buffer of recent scheduling events, dumped when an invariant trips.
class EventRing {
 public:
  void push(std::string line) {
    if (lines_.size() >= 50) lines_.pop_front();
    lines_.push_back(std::move(line));
  }
  std::string dump(std::uint64_t seed) const {
    std::ostringstream os;
    os << "seed=" << seed << " recent events (oldest first):\n";
    for (const auto& l : lines_) os << "  " << l << "\n";
    return os.str();
  }

 private:
  std::deque<std::string> lines_;
};

std::vector<HarnessTenant> make_tenants(std::uint64_t seed, ArrivalKind kind) {
  // Three tenants with distinct weights and demand: a steady light flow, a
  // heavier flow, and a double-weight flow that arrives in the middle.
  std::vector<HarnessTenant> out(3);
  const char* names[] = {"alpha", "bravo", "charlie"};
  const double rates[] = {40.0, 120.0, 80.0};
  const double weights[] = {1.0, 1.0, 2.0};
  for (int i = 0; i < 3; ++i) {
    OpenLoopTenant t;
    t.name = names[i];
    t.arrival = kind;
    t.rate_rps = rates[i];
    t.burst_factor = 6.0;
    t.burst_on = sim::msec(40);
    t.burst_off = sim::msec(120);
    t.requests = 60;
    t.seed = seed;
    t.attach_at = i == 2 ? sim::msec(150) : 0;
    out[i].name = t.name;
    out[i].weight = weights[i];
    out[i].key = static_cast<std::uint64_t>(i + 1);
    out[i].arrivals = workloads::arrival_schedule(t);
    out[i].service_per_request = sim::msec(3 + 2 * i);
  }
  return out;
}

std::vector<RcbSnapshot> snapshots(const std::vector<HarnessTenant>& tenants) {
  std::vector<RcbSnapshot> snaps;
  for (const auto& t : tenants) {
    RcbSnapshot s;
    s.key = t.key;
    s.tenant_id = static_cast<std::uint32_t>(t.key - 1);
    s.tenant = t.name;
    s.tenant_weight = t.weight;
    s.total_service = t.attained;
    s.tenant_attained = t.attained;
    s.cgs = static_cast<double>(t.attained);
    s.backlogged = t.queued > 0;
    snaps.push_back(std::move(s));
  }
  return snaps;
}

/// Empty if `got` and `want` made the same decision, else what differs.
std::string decision_mismatch(const MqfqStickyPolicy& got,
                              const std::vector<std::uint64_t>& got_awake,
                              const StringKeyedMqfq& want,
                              const std::vector<std::uint64_t>& want_awake) {
  std::ostringstream os;
  if (got_awake != want_awake) os << "awake keys differ; ";
  if (got.vtimes() != want.vtimes()) os << "vtimes differ; ";
  if (got.global_vtime() != want.global_vtime()) {
    os << "global vtime " << got.global_vtime() << " vs "
       << want.global_vtime() << "; ";
  }
  if (got.last_throttled() != want.last_throttled()) {
    os << "throttled sets differ; ";
  }
  return os.str();
}

/// Runs one deterministic schedule through `policy`, checking MQFQ-specific
/// invariants when `mqfq` is non-null and, when `oracle` is non-null, that
/// `mqfq` decides exactly as the reference; accumulates total service
/// granted into `*granted_out` (gtest ASSERT_* requires a void function).
void run_harness(policies::DeviceSchedPolicy& policy,
                 const MqfqStickyPolicy* mqfq, std::uint64_t seed,
                 ArrivalKind kind, EventRing& ring,
                 sim::SimTime* granted_out,
                 StringKeyedMqfq* oracle = nullptr) {
  std::vector<HarnessTenant> tenants = make_tenants(seed, kind);
  std::map<std::string, double> last_vt;
  double last_global = 0.0;
  sim::SimTime granted = 0;
  const double max_weight = 2.0;  // service/weight overshoot bound per epoch

  for (sim::SimTime now = 0; now < sim::sec(4); now += kEpoch) {
    // Admit arrivals, then let the policy decide who runs this epoch.
    for (auto& t : tenants) {
      while (t.next_arrival < t.arrivals.size() &&
             t.arrivals[t.next_arrival] <= now) {
        if (t.queued == 0) t.remaining = t.service_per_request;
        ++t.queued;
        ++t.next_arrival;
      }
    }
    const std::vector<RcbSnapshot> snaps = snapshots(tenants);
    bool any_backlogged = false;
    for (const auto& s : snaps) any_backlogged = any_backlogged || s.backlogged;

    const std::vector<std::uint64_t> awake = policy.pick_awake(snaps, now);
    {
      std::ostringstream ev;
      ev << "t=" << now / 1000000 << "ms awake={";
      for (const auto k : awake) ev << k << ",";
      ev << "}";
      if (mqfq != nullptr) {
        ev << " gvt=" << mqfq->global_vtime();
        for (const auto& [name, vt] : mqfq->vtimes()) {
          ev << " " << name << ":" << vt;
        }
      }
      ring.push(ev.str());
    }
    if (oracle != nullptr) {
      const auto want = oracle->pick_awake(snaps, now);
      ASSERT_EQ(decision_mismatch(*mqfq, awake, *oracle, want), "")
          << "at t=" << now << "\n" << ring.dump(seed);
    }

    // Work conservation: backlog implies at least one awake thread.
    if (any_backlogged) {
      ASSERT_FALSE(awake.empty())
          << "policy " << policy.name()
          << " left the device idle with backlogged tenants\n"
          << ring.dump(seed);
    }

    if (mqfq != nullptr) {
      const double global = mqfq->global_vtime();
      ASSERT_GE(global + 1e-6, last_global)
          << "global virtual time moved backwards\n" << ring.dump(seed);
      last_global = global;
      const double bound = static_cast<double>(mqfq->config().throttle_T) +
                           static_cast<double>(kEpoch) * max_weight;
      for (const auto& [name, vt] : mqfq->vtimes()) {
        auto it = last_vt.find(name);
        if (it != last_vt.end()) {
          ASSERT_GE(vt + 1e-6, it->second)
              << "flow " << name << " virtual time moved backwards\n"
              << ring.dump(seed);
        }
        last_vt[name] = vt;
        // Bounded service gap: backlogged flows never run away from the
        // global virtual time by more than T plus one epoch's grant.
        for (const auto& s : snaps) {
          if (s.tenant == name && s.backlogged) {
            ASSERT_LE(vt, global + bound)
                << "flow " << name << " exceeded the throttle bound\n"
                << ring.dump(seed);
          }
        }
      }
    }

    // Grant the epoch's service evenly across the awake threads.
    if (awake.empty()) continue;
    const sim::SimTime share =
        kEpoch / static_cast<sim::SimTime>(awake.size());
    for (const auto key : awake) {
      for (auto& t : tenants) {
        if (t.key != key || t.queued == 0) continue;
        const sim::SimTime grant = std::min(share, t.remaining);
        t.attained += grant;
        granted += grant;
        t.remaining -= grant;
        if (t.remaining == 0) {
          --t.queued;
          if (t.queued > 0) t.remaining = t.service_per_request;
        }
      }
    }
  }
  *granted_out = granted;
}

class FairnessProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FairnessProperty, MqfqInvariantsHoldAcrossSeeds) {
  const auto [seed, kind_idx] = GetParam();
  const ArrivalKind kind =
      kind_idx == 0 ? ArrivalKind::kPoisson : ArrivalKind::kBursty;
  MqfqStickyPolicy policy;
  EventRing ring;
  sim::SimTime granted = 0;
  run_harness(policy, &policy, static_cast<std::uint64_t>(seed), kind, ring,
              &granted);
  EXPECT_GT(granted, 0) << ring.dump(static_cast<std::uint64_t>(seed));
}

// The churn script of the differential test: six tenants registered in an
// order their names do not sort in, each attaching with one to three
// threads, adding and dropping threads, detaching and re-attaching with
// fresh keys, with random backlog and service. Both policies see the same
// snapshot every epoch, in key order (as the scheduler builds it) or
// grouped by tenant.
void run_churn_differential(std::uint64_t seed, const MqfqConfig& cfg) {
  struct Tenant {
    const char* name = "";
    double weight = 1.0;
    std::uint32_t id = 0;
    bool registered = false;
    std::vector<std::uint64_t> threads;
    sim::SimTime attained = 0;
  };
  const char* names[] = {"zulu", "mike", "alpha", "kilo", "bravo", "echo"};
  const double weights[] = {1.0, 2.0, 0.0, 0.5, 1.0, 3.0};
  std::vector<Tenant> tenants(6);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].name = names[i];
    tenants[i].weight = weights[i];
  }
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  const auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const auto chance = [&next](int percent) {
    return static_cast<int>(next() % 100) < percent;
  };
  std::uint64_t next_key = 1;
  std::uint32_t next_id = 0;
  MqfqStickyPolicy policy(cfg);
  StringKeyedMqfq oracle(cfg);
  EventRing ring;

  for (sim::SimTime now = 0; now < sim::msec(400); now += kEpoch) {
    for (auto& t : tenants) {
      if (t.threads.empty()) {
        if (!chance(8)) continue;
        if (!t.registered) {  // ids in first-attach order, as interned
          t.registered = true;
          t.id = next_id++;
        }
        const int n = 1 + static_cast<int>(next() % 3);
        for (int i = 0; i < n; ++i) t.threads.push_back(next_key++);
      } else if (chance(3)) {
        t.threads.clear();  // detach
      } else if (chance(5)) {
        t.threads.push_back(next_key++);
      } else if (t.threads.size() > 1 && chance(5)) {
        t.threads.erase(t.threads.begin() +
                        static_cast<std::ptrdiff_t>(next() % t.threads.size()));
      }
    }
    std::vector<RcbSnapshot> snaps;
    for (const auto& t : tenants) {
      for (const auto key : t.threads) {
        RcbSnapshot s;
        s.key = key;
        s.tenant_id = t.id;
        s.tenant = t.name;
        s.tenant_weight = t.weight;
        s.tenant_attained = t.attained;
        s.backlogged = chance(70);
        snaps.push_back(s);
      }
    }
    if (chance(50)) {
      std::sort(snaps.begin(), snaps.end(),
                [](const RcbSnapshot& a, const RcbSnapshot& b) {
                  return a.key < b.key;
                });
    }

    const auto got = policy.pick_awake(snaps, now);
    const auto want = oracle.pick_awake(snaps, now);
    {
      std::ostringstream ev;
      ev << "t=" << now / 1000000 << "ms snaps=" << snaps.size()
         << " awake={";
      for (const auto k : got) ev << k << ",";
      ev << "} gvt=" << policy.global_vtime();
      ring.push(ev.str());
    }
    ASSERT_EQ(decision_mismatch(policy, got, oracle, want), "")
        << "at t=" << now << "\n" << ring.dump(seed);

    // Awake heads earn up to an epoch of service; any attached tenant may
    // also finish an op it started earlier.
    for (auto& t : tenants) {
      const bool runs = std::any_of(
          t.threads.begin(), t.threads.end(), [&got](std::uint64_t key) {
            return std::find(got.begin(), got.end(), key) != got.end();
          });
      if (runs) {
        t.attained += static_cast<sim::SimTime>(next() % (kEpoch + 1));
      } else if (!t.threads.empty() && chance(10)) {
        t.attained += static_cast<sim::SimTime>(next() % sim::usec(300));
      }
    }
  }
}

TEST_P(FairnessProperty, MqfqMatchesStringKeyedOracle) {
  const auto [seed, kind_idx] = GetParam();
  const ArrivalKind kind =
      kind_idx == 0 ? ArrivalKind::kPoisson : ArrivalKind::kBursty;
  MqfqStickyPolicy policy;
  StringKeyedMqfq oracle;
  EventRing ring;
  sim::SimTime granted = 0;
  run_harness(policy, &policy, static_cast<std::uint64_t>(seed), kind, ring,
              &granted, &oracle);
  // The churn script under the default knobs, and under a tight throttle
  // with two slots so throttling and slot truncation decide often.
  MqfqConfig tight;
  tight.throttle_T = sim::msec(2);
  tight.sticky_window = sim::msec(3);
  tight.slots = 2;
  run_churn_differential(static_cast<std::uint64_t>(seed),
                         kind_idx == 0 ? MqfqConfig{} : tight);
}

TEST_P(FairnessProperty, LasStaysWorkConservingAcrossSeeds) {
  const auto [seed, kind_idx] = GetParam();
  const ArrivalKind kind =
      kind_idx == 0 ? ArrivalKind::kPoisson : ArrivalKind::kBursty;
  auto policy = policies::make_device_policy("LAS");
  EventRing ring;
  sim::SimTime granted = 0;
  run_harness(*policy, nullptr, static_cast<std::uint64_t>(seed), kind, ring,
              &granted);
  EXPECT_GT(granted, 0) << ring.dump(static_cast<std::uint64_t>(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FairnessProperty,
    ::testing::Combine(::testing::Range(1, kSeeds + 1),
                       ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return (std::get<1>(info.param) == 0 ? "poisson" : "bursty") +
             std::string("_seed") + std::to_string(std::get<0>(info.param));
    });

// Directed edge cases the sweep may not hit.

TEST(MqfqSticky, IdleFlowIsLiftedToGlobalVirtualTime) {
  MqfqStickyPolicy policy;
  RcbSnapshot a;
  a.key = 1;
  a.tenant = "a";
  a.backlogged = true;
  RcbSnapshot b;
  b.key = 2;
  b.tenant_id = 1;
  b.tenant = "b";
  b.backlogged = false;
  // `a` runs alone and banks service; `b` idles the whole time.
  a.tenant_attained = sim::msec(500);
  (void)policy.pick_awake({a, b}, 0);
  // When `b` finally wakes up it must not carry 500 ms of banked credit:
  // its virtual time starts at the global virtual time, not zero.
  b.backlogged = true;
  (void)policy.pick_awake({a, b}, sim::msec(10));
  double vt_a = -1.0, vt_b = -1.0;
  for (const auto& [name, vt] : policy.vtimes()) {
    if (name == "a") vt_a = vt;
    if (name == "b") vt_b = vt;
  }
  EXPECT_GE(vt_b, policy.global_vtime() - 1e-9);
  EXPECT_GE(vt_a, vt_b);
}

TEST(MqfqSticky, ThrottledFlowIsReportedAndMinFlowRuns) {
  MqfqConfig cfg;
  cfg.throttle_T = sim::msec(10);
  MqfqStickyPolicy policy(cfg);
  RcbSnapshot ahead;
  ahead.key = 1;
  ahead.tenant = "ahead";
  ahead.backlogged = true;
  RcbSnapshot behind;
  behind.key = 2;
  behind.tenant_id = 1;
  behind.tenant = "behind";
  behind.backlogged = true;
  (void)policy.pick_awake({ahead, behind}, 0);
  // `ahead` attains 50 ms while `behind` attains nothing: beyond T=10ms.
  ahead.tenant_attained = sim::msec(50);
  const auto awake = policy.pick_awake({ahead, behind}, sim::msec(1));
  ASSERT_EQ(policy.last_throttled().size(), 1u);
  EXPECT_EQ(policy.last_throttled()[0], "ahead");
  ASSERT_EQ(awake.size(), 1u);
  EXPECT_EQ(awake[0], 2u);  // the minimum flow always runs
}

TEST(MqfqSticky, DetachedTenantKeepsVirtualTimeAcrossReattach) {
  MqfqStickyPolicy policy;
  RcbSnapshot a;
  a.key = 1;
  a.tenant = "a";
  a.backlogged = true;
  RcbSnapshot b;
  b.key = 2;
  b.tenant_id = 1;
  b.tenant = "b";
  b.backlogged = true;
  b.tenant_attained = sim::msec(100);
  (void)policy.pick_awake({a, b}, 0);
  double vt_before = -1.0;
  for (const auto& [name, vt] : policy.vtimes()) {
    if (name == "b") vt_before = vt;
  }
  // `b` detaches (vanishes from the snapshot) and later re-attaches: its
  // virtual time must survive, or churn would reset fairness history.
  (void)policy.pick_awake({a}, sim::msec(5));
  (void)policy.pick_awake({a, b}, sim::msec(10));
  double vt_after = -1.0;
  for (const auto& [name, vt] : policy.vtimes()) {
    if (name == "b") vt_after = vt;
  }
  EXPECT_GE(vt_after, vt_before);
}

TEST(MqfqSticky, HeadOfLineThreadDispatchesPerTenant) {
  MqfqStickyPolicy policy;
  // One tenant with a deep backlog of three threads: only the head-of-line
  // (lowest key) may dispatch, so a deep queue cannot flood the engines.
  RcbSnapshot r1;
  r1.key = 7;
  r1.tenant = "t";
  r1.backlogged = true;
  RcbSnapshot r2 = r1;
  r2.key = 3;
  RcbSnapshot r3 = r1;
  r3.key = 9;
  const auto awake = policy.pick_awake({r1, r2, r3}, 0);
  ASSERT_EQ(awake.size(), 1u);
  EXPECT_EQ(awake[0], 3u);
}

/// Feeds the snapshots to MqfqStickyPolicy and the string-keyed reference,
/// one decision per 1 ms, and requires identical decisions throughout.
/// Returns the id-indexed policy's awake sets.
std::vector<std::vector<std::uint64_t>> expect_same_decisions(
    const std::vector<std::vector<RcbSnapshot>>& script,
    const MqfqConfig& cfg = {}) {
  MqfqStickyPolicy policy(cfg);
  StringKeyedMqfq oracle(cfg);
  std::vector<std::vector<std::uint64_t>> out;
  sim::SimTime now = 0;
  for (const auto& snaps : script) {
    out.push_back(policy.pick_awake(snaps, now));
    const auto want = oracle.pick_awake(snaps, now);
    EXPECT_EQ(decision_mismatch(policy, out.back(), oracle, want), "")
        << "decision " << out.size() - 1;
    now += sim::msec(1);
  }
  return out;
}

RcbSnapshot thread(std::uint64_t key, std::uint32_t tenant_id,
                   const char* tenant, sim::SimTime attained,
                   bool backlogged = true) {
  RcbSnapshot s;
  s.key = key;
  s.tenant_id = tenant_id;
  s.tenant = tenant;
  s.tenant_attained = attained;
  s.backlogged = backlogged;
  return s;
}

TEST(MqfqDifferential, DetachThenReattach) {
  using sim::msec;
  // `b` leaves the device for two decisions and comes back on a new
  // thread; its flow (and virtual time) must be the same one.
  const auto awake = expect_same_decisions({
      {thread(1, 0, "a", 0), thread(2, 1, "b", msec(30))},
      {thread(1, 0, "a", msec(5)), thread(2, 1, "b", msec(40))},
      {thread(1, 0, "a", msec(9))},
      {thread(1, 0, "a", msec(12))},
      {thread(1, 0, "a", msec(14)), thread(5, 1, "b", msec(40))},
      {thread(1, 0, "a", msec(40)), thread(5, 1, "b", msec(41))},
  });
  EXPECT_EQ(awake[4], (std::vector<std::uint64_t>{1, 5}));
}

TEST(MqfqDifferential, TenantWithSeveralThreads) {
  using sim::msec;
  // Tenant `t` has three threads: the lowest backlogged key is its head,
  // and its attained service is the max any thread reports.
  const auto awake = expect_same_decisions({
      {thread(7, 0, "t", 0), thread(3, 0, "t", 0, false),
       thread(9, 0, "t", 0), thread(4, 1, "u", 0)},
      {thread(7, 0, "t", msec(6)), thread(3, 0, "t", msec(6)),
       thread(9, 0, "t", msec(2)), thread(4, 1, "u", msec(1))},
      {thread(7, 0, "t", msec(30)), thread(3, 0, "t", msec(30), false),
       thread(9, 0, "t", msec(30)), thread(4, 1, "u", msec(2))},
  });
  EXPECT_EQ(awake[0], (std::vector<std::uint64_t>{7, 4}));
}

TEST(MqfqDifferential, TiesBreakOnNameNotRegistrationOrder) {
  // Registered "zulu" first, then "mike", then "alpha": with equal virtual
  // times and one slot, name order picks alpha, then mike; once a sticky
  // holder is gone the order is by name again.
  MqfqConfig one_slot;
  one_slot.slots = 1;
  one_slot.sticky_window = 0;
  const auto awake = expect_same_decisions(
      {
          {thread(1, 0, "zulu", 0), thread(2, 1, "mike", 0),
           thread(3, 2, "alpha", 0)},
          {thread(1, 0, "zulu", 0), thread(2, 1, "mike", 0)},
          {thread(1, 0, "zulu", 0), thread(2, 1, "mike", 0),
           thread(3, 2, "alpha", 0)},
      },
      one_slot);
  EXPECT_EQ(awake[0], (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(awake[1], (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(awake[2], (std::vector<std::uint64_t>{3}));
}

// End-to-end: the same invariants hold when the real dispatcher drives the
// policy inside a testbed with open-loop traffic.
TEST(MqfqSticky, EndToEndOpenLoopRunCompletesAllRequests) {
  workloads::TestbedConfig tcfg;
  tcfg.mode = workloads::Mode::kStrings;
  tcfg.device_policy = "MQFQ";
  OpenLoopTenant a;
  a.name = "alpha";
  a.app = "GA";
  a.arrival = ArrivalKind::kPoisson;
  a.rate_rps = 4.0;
  a.requests = 6;
  a.seed = 3;
  OpenLoopTenant b = a;
  b.name = "bravo";
  b.arrival = ArrivalKind::kBursty;
  b.seed = 4;
  b.requests = 5;
  sim::Simulation sim;
  workloads::Testbed bed(sim, tcfg);
  const auto stats = workloads::run_open_loop(bed, {a, b});
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].completed, 6);
  EXPECT_EQ(stats[1].completed, 5);
  EXPECT_EQ(stats[0].errors, 0);
  EXPECT_EQ(stats[1].errors, 0);
  EXPECT_GT(bed.attained_service_s("alpha"), 0.0);
  EXPECT_GT(bed.attained_service_s("bravo"), 0.0);
}

}  // namespace
}  // namespace strings
