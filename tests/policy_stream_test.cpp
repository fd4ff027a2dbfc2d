// Pins the exact stream of device-policy decisions end to end: every
// RcbSnapshot field the dispatcher hands a policy, and the keys the policy
// returns, for every decision of small in-code scenarios under each backend
// design and each built-in device policy.
//
// A recording decorator wraps the real policy under its own registry name
// (BackendDaemon builds MQFQ directly, so a decorated MQFQ must be
// registered, not just looked up) and folds each decision into an FNV-1a
// digest. The scenarios use a slow local link and a 1 ms epoch so that
// epoch ticks land while packets are in flight, and apps that record CUDA
// events, so a backlog that counted a packet at send time, or missed a
// stream's event records, changes the digest.
//
// AllAwake runs no dispatcher: the scheduler recognises the policy by type
// and arms no epoch. The decorator is not AllAwakePolicy, so the AllAwake
// rows pin the decorated, periodic path, and a second test checks that the
// plain, tick-free path leaves every outcome of the same scenarios as the
// periodic path does. Nor does the decorator forward settled(), so every
// row ticks every epoch; a third test checks that the plain policies,
// whose Dispatcher skips the ticks a settled decision makes redundant,
// leave every outcome as the periodic path does.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpu/device_props.hpp"
#include "policies/device_policies.hpp"
#include "workloads/service.hpp"
#include "workloads/testbed.hpp"

namespace strings {
namespace {

using cuda::cudaMemcpyKind;
using workloads::Mode;
using sim::msec;
using sim::usec;

struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  std::uint64_t decisions = 0;
  std::uint64_t entries = 0;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 1099511628211ull;
    }
  }
  template <class T>
  void value(T v) {
    bytes(&v, sizeof v);
  }
};

Digest* g_digest = nullptr;

/// Hashes every field of every snapshot and the returned keys, then
/// forwards the decision unchanged.
class RecordingPolicy final : public policies::DeviceSchedPolicy {
 public:
  explicit RecordingPolicy(std::unique_ptr<policies::DeviceSchedPolicy> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<policies::RcbSnapshot>& rcb) override {
    return record(rcb, -1, inner_->pick_awake(rcb));
  }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<policies::RcbSnapshot>& rcb,
      sim::SimTime now) override {
    return record(rcb, now, inner_->pick_awake(rcb, now));
  }

 private:
  static std::vector<std::uint64_t> record(
      const std::vector<policies::RcbSnapshot>& rcb, sim::SimTime now,
      std::vector<std::uint64_t> keys) {
    Digest& d = *g_digest;
    ++d.decisions;
    d.entries += rcb.size();
    d.value(now);
    d.value(rcb.size());
    for (const auto& s : rcb) {
      d.value(s.key);
      d.value(s.tenant_id);
      d.value(s.tenant.size());
      d.bytes(s.tenant.data(), s.tenant.size());
      d.value(s.tenant_weight);
      d.value(s.total_service);
      d.value(s.epoch_service);
      d.value(s.cgs);
      d.value(s.entitled);
      d.value(static_cast<int>(s.phase));
      d.value(s.backlogged);
      d.value(s.tenant_attained);
    }
    d.value(keys.size());
    for (const std::uint64_t k : keys) d.value(k);
    return keys;
  }
  std::unique_ptr<policies::DeviceSchedPolicy> inner_;
};

/// "MQFQ-short" is MQFQ with sticky slots shorter than the 1 ms epoch.
std::unique_ptr<policies::DeviceSchedPolicy> make_policy(
    const std::string& policy) {
  if (policy.rfind("MQFQ", 0) != 0) {
    return policies::make_device_policy(policy);
  }
  policies::MqfqConfig cfg;
  cfg.throttle_T = msec(4);  // tight, so throttling shows up
  if (policy == "MQFQ-short") cfg.sticky_window = usec(500);
  return std::make_unique<policies::MqfqStickyPolicy>(cfg);
}

std::string recorded_name(const std::string& policy) {
  const std::string name = "policy_stream." + policy;
  policies::register_device_policy(name, [policy] {
    return std::make_unique<RecordingPolicy>(make_policy(policy));
  });
  return name;
}

/// The same policy, unwrapped: it declares its own settledness, so the
/// Dispatcher skips the ticks a settled decision makes redundant.
std::string plain_name(const std::string& policy) {
  const std::string name = "policy_stream.plain." + policy;
  policies::register_device_policy(name,
                                   [policy] { return make_policy(policy); });
  return name;
}

/// An app that times its kernels with CUDA events: records land on its
/// stream between device ops, and it alternates event and device
/// synchronization.
void event_app(sim::Simulation& sim, frontend::GpuApi& api, int iters,
               sim::SimTime kernel, sim::SimTime think) {
  api.cudaSetDevice(0);
  cuda::DevPtr buf = 0;
  api.cudaMalloc(&buf, 1 << 20);
  cuda::cudaEvent_t start = 0, stop = 0;
  api.cudaEventCreate(&start);
  api.cudaEventCreate(&stop);
  for (int i = 0; i < iters; ++i) {
    api.cudaMemcpyAsync(buf, 1 << 18, cudaMemcpyKind::cudaMemcpyHostToDevice);
    api.cudaEventRecord(start);
    api.cudaLaunch({"ev", gpu::KernelDesc{kernel, 0.4, 20.0}});
    api.cudaEventRecord(stop);
    if (i % 2 == 0) {
      api.cudaEventSynchronize(stop);
    } else {
      api.cudaDeviceSynchronize();
    }
    double ms = 0.0;
    api.cudaEventElapsedTime(&ms, start, stop);
    sim.wait_for(think);
  }
  api.cudaMemcpy(buf, 1 << 16, cudaMemcpyKind::cudaMemcpyDeviceToHost);
  api.cudaEventDestroy(start);
  api.cudaEventDestroy(stop);
  api.cudaFree(buf);
  api.cudaThreadExit();
}

/// What a run did that a device policy could change.
struct Outcome {
  /// Each stream's response times, in stream order.
  std::vector<std::vector<sim::SimTime>> responses;
  /// When each event app finished.
  std::vector<sim::SimTime> finished;
  std::vector<std::pair<std::string, core::Gid>> placements;
  std::int64_t wakes = 0;
  std::int64_t sleeps = 0;
  std::uint64_t events = 0;
};

/// Runs the scenario under the registered policy `device_policy`.
Digest run_scenario(Mode mode, const std::string& device_policy,
                    Outcome* outcome = nullptr) {
  Digest digest;
  g_digest = &digest;
  sim::Simulation sim;
  workloads::TestbedConfig tb;
  tb.mode = mode;
  tb.nodes = workloads::small_server();
  tb.device_policy = device_policy;
  tb.sched_epoch = msec(1);
  // Slow enough that epoch ticks see packets on the wire.
  tb.local_link = rpc::LinkModel{usec(300), 1.0};
  workloads::Testbed bed(sim, tb);

  std::vector<workloads::ArrivalConfig> streams;
  const char* apps[] = {"GA", "HI", "MM"};
  const char* tenants[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 3; ++i) {
    workloads::ArrivalConfig a;
    a.app = apps[i];
    a.requests = 2;
    a.lambda_scale = 0.3;
    a.server_threads = 2;
    a.seed = 11 + static_cast<std::uint32_t>(i);
    a.tenant = tenants[i];
    a.tenant_weight = 1.0 + i;
    streams.push_back(a);
  }
  const auto stats = workloads::start_streams(bed, streams);

  std::vector<std::unique_ptr<frontend::GpuApi>> apis;
  std::vector<sim::SimTime> finished(4, -1);
  for (int i = 0; i < 4; ++i) {
    backend::AppDescriptor app;
    app.app_type = "EV";
    app.tenant = i % 2 == 0 ? "beta" : "delta";
    app.tenant_weight = i % 2 == 0 ? 2.0 : 1.0;
    apis.push_back(bed.make_api(app));
    frontend::GpuApi* api = apis.back().get();
    sim.spawn("ev" + std::to_string(i), [&sim, &finished, api, i] {
      sim.wait_for(msec(3 * i));
      event_app(sim, *api, 5 + i, msec(2 + i), usec(700 * (i + 1)));
      finished[static_cast<std::size_t>(i)] = sim.now();
    });
  }
  sim.run();
  for (const auto& s : *stats) EXPECT_EQ(s.errors, 0) << s.app;
  g_digest = nullptr;
  if (outcome != nullptr) {
    for (const auto& s : *stats) outcome->responses.push_back(s.response_times);
    outcome->finished = finished;
    outcome->placements = bed.control_plane_stats().placements;
    for (int node = 0; node < bed.node_count(); ++node) {
      backend::BackendDaemon& daemon = bed.daemon(node);
      for (int dev = 0; dev < daemon.device_count(); ++dev) {
        outcome->wakes += daemon.scheduler(dev).dispatcher_wakes();
        outcome->sleeps += daemon.scheduler(dev).dispatcher_sleeps();
      }
    }
    outcome->events = sim.events_executed();
  }
  return digest;
}

struct Pin {
  Mode mode;
  const char* policy;
  std::uint64_t decisions;
  std::uint64_t digest;
};

// Generated with the dispatcher that probed each entry's backlog through a
// std::function and copied the RCB into a fresh snapshot per decision; the
// Rain and Strings rows of TFS, LAS, PS and MQFQ were re-pinned once when
// epoch ticks began to lead their instant (Simulation::schedule_first).
// Mismatches print the new values in this table's format.
const Pin kPins[] = {
    {Mode::kRain, "TFS", 59520, 0x2a6f8229160bbf45ull},
    {Mode::kRain, "LAS", 59125, 0xea59fa4c1f459af0ull},
    {Mode::kRain, "PS", 59125, 0x5ba28e1bd4e39690ull},
    {Mode::kRain, "MQFQ", 60159, 0xf8ba3f26383b01d0ull},
    {Mode::kRain, "AllAwake", 59106, 0x2365e1e74c05c96full},
    {Mode::kDesign2, "TFS", 59981, 0x9e6e46af7c9b7255ull},
    {Mode::kDesign2, "LAS", 59981, 0x6bed6a9f3e96d56full},
    {Mode::kDesign2, "PS", 59981, 0x86cc9bac83ece74full},
    {Mode::kDesign2, "MQFQ", 59981, 0x4bfd5f3efb5f20a7ull},
    {Mode::kDesign2, "AllAwake", 59981, 0x5fe22658ce176484ull},
    {Mode::kStrings, "TFS", 56636, 0x360149e4b6196f1dull},
    {Mode::kStrings, "LAS", 56462, 0xfc643b87e0048218ull},
    {Mode::kStrings, "PS", 56462, 0x29edae926041fad8ull},
    {Mode::kStrings, "MQFQ", 57235, 0x2439de06ec930fc8ull},
    {Mode::kStrings, "AllAwake", 56442, 0x2a536dfb18e7aa91ull},
};

TEST(PolicyStream, EveryDecisionMatchesThePin) {
  const Mode modes[] = {Mode::kRain, Mode::kDesign2, Mode::kStrings};
  const char* policies[] = {"TFS", "LAS", "PS", "MQFQ", "AllAwake"};
  std::size_t pin = 0;
  for (const Mode mode : modes) {
    for (const char* policy : policies) {
      const Digest d = run_scenario(mode, recorded_name(policy));
      char line[160];
      std::snprintf(line, sizeof line,
                    "    {Mode::k%s, \"%s\", %" PRIu64 ", 0x%016" PRIx64
                    "ull},",
                    mode == Mode::kRain      ? "Rain"
                    : mode == Mode::kDesign2 ? "Design2"
                                             : "Strings",
                    policy, d.decisions, d.h);
      EXPECT_GT(d.decisions, 100u) << line;
      EXPECT_GT(d.entries, d.decisions) << line;
      if (pin >= std::size(kPins)) {
        ADD_FAILURE() << "no pin for\n" << line;
        continue;
      }
      const Pin& p = kPins[pin++];
      EXPECT_EQ(p.mode, mode);
      EXPECT_STREQ(p.policy, policy);
      EXPECT_EQ(p.decisions, d.decisions) << line;
      EXPECT_EQ(p.digest, d.h) << line;
    }
  }
}

TEST(PolicyStream, PlainAllAwakeMatchesThePeriodicPath) {
  std::int64_t admits = 0;  // Design II's master loop has no gates
  for (const Mode mode : {Mode::kRain, Mode::kDesign2, Mode::kStrings}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Outcome periodic, plain;
    EXPECT_GT(run_scenario(mode, recorded_name("AllAwake"), &periodic)
                  .decisions,
              100u);
    EXPECT_EQ(run_scenario(mode, "AllAwake", &plain).decisions, 0u);
    ASSERT_EQ(plain.responses.size(), 3u);
    EXPECT_EQ(plain.responses, periodic.responses);
    EXPECT_EQ(plain.finished, periodic.finished);
    EXPECT_EQ(plain.placements, periodic.placements);
    EXPECT_EQ(plain.wakes, periodic.wakes);
    EXPECT_EQ(plain.sleeps, periodic.sleeps);
    EXPECT_LT(plain.events, periodic.events);
    admits += plain.wakes;
  }
  EXPECT_GT(admits, 0);
}

TEST(PolicyStream, ChangeDrivenMatchesThePeriodicPath) {
  // The recorder does not forward settled(), so it pins the periodic path.
  // MQFQ's default 2 ms sticky slots outlast the 1 ms epoch, so it never
  // settles; MQFQ-short's do not.
  for (const Mode mode : {Mode::kRain, Mode::kDesign2, Mode::kStrings}) {
    for (const std::string policy :
         {"TFS", "LAS", "PS", "MQFQ", "MQFQ-short"}) {
      SCOPED_TRACE(std::string(workloads::mode_name(mode)) + " " + policy);
      Outcome periodic, plain;
      EXPECT_GT(run_scenario(mode, recorded_name(policy), &periodic)
                    .decisions,
                100u);
      EXPECT_EQ(run_scenario(mode, plain_name(policy), &plain).decisions, 0u);
      ASSERT_EQ(plain.responses.size(), 3u);
      EXPECT_EQ(plain.responses, periodic.responses);
      EXPECT_EQ(plain.finished, periodic.finished);
      EXPECT_EQ(plain.placements, periodic.placements);
      EXPECT_EQ(plain.wakes, periodic.wakes);
      EXPECT_EQ(plain.sleeps, periodic.sleeps);
      if (policy == "MQFQ") {
        EXPECT_EQ(plain.events, periodic.events);
      } else {
        EXPECT_LT(plain.events, periodic.events);
      }
    }
  }
}

}  // namespace
}  // namespace strings
