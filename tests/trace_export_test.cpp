// End-to-end observability tests: runs real scenarios through the testbed
// with tracing enabled and checks (a) the request-lifecycle records, (b)
// the exported Chrome trace and metrics CSV, and (c) that instrumentation
// is behavior-neutral — a traced run produces bit-for-bit identical
// scheduling results to an untraced one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/export.hpp"
#include "simcore/hooks.hpp"
#include "workloads/scenario_config.hpp"
#include "workloads/service.hpp"
#include "workloads/testbed.hpp"

namespace strings {
namespace {

// Mirrors scenarios/distributed_mapper.scenario, scaled down for test time.
const char kDistributedScenario[] = R"(
mode = strings
topology = supernode
balancing = GWtMin
feedback = MBF
shared_network = true
placement = distributed
control_transport = data_plane
service_node = 0
refresh_epoch_ms = 10000
trace = true

[stream]
app = MC
origin = 0
requests = 4
lambda_scale = 0.35
server_threads = 4
tenant = pricing-svc

[stream]
app = BS
origin = 1
requests = 4
lambda_scale = 0.35
server_threads = 4
tenant = options-svc
)";

struct TracedScenario {
  TracedScenario() {
    cfg = workloads::parse_scenario(std::string(kDistributedScenario));
    bed = std::make_unique<workloads::Testbed>(sim, cfg.testbed);
    stats = workloads::run_streams(*bed, cfg.streams);
  }
  sim::Simulation sim;
  workloads::ScenarioConfig cfg;
  std::unique_ptr<workloads::Testbed> bed;
  std::vector<workloads::StreamStats> stats;
};

TEST(TraceExport, RequestLifecyclesAreComplete) {
  TracedScenario run;
  obs::Tracer* tracer = run.bed->tracer();
  ASSERT_NE(tracer, nullptr);
  ASSERT_EQ(tracer->requests().size(), 8u);  // 4 MC + 4 BS
  for (const auto& [app_id, r] : tracer->requests()) {
    SCOPED_TRACE("app_id=" + std::to_string(app_id));
    EXPECT_GE(r.issued_at, 0);
    EXPECT_GE(r.completed_at, r.issued_at);
    EXPECT_EQ(r.count(obs::ReqPhase::kIssue), 1);
    EXPECT_EQ(r.count(obs::ReqPhase::kComplete), 1);
    EXPECT_GE(r.count(obs::ReqPhase::kBind), 1);
    EXPECT_GT(r.count(obs::ReqPhase::kMarshal), 0);
    EXPECT_GT(r.count(obs::ReqPhase::kBackendQueue), 0);
    EXPECT_GT(r.count(obs::ReqPhase::kExecute), 0);
    // Steps append in execution order, which under non-blocking RPC is not
    // timestamp order (the frontend pipelines ahead of backend delivery) —
    // but every phase lies within the request's lifetime envelope.
    for (const auto& s : r.steps) {
      EXPECT_GE(s.at, r.issued_at);
      EXPECT_LE(s.at, r.completed_at);
    }
    // First step is issue; last is complete.
    ASSERT_GE(r.steps.size(), 2u);
    EXPECT_EQ(r.steps.front().phase, obs::ReqPhase::kIssue);
    EXPECT_EQ(r.steps.back().phase, obs::ReqPhase::kComplete);
  }
}

TEST(TraceExport, DeviceAndNetworkTracksPopulated) {
  TracedScenario run;
  obs::Tracer* tracer = run.bed->tracer();
  ASSERT_NE(tracer, nullptr);
  // All 4 supernode GPUs registered with compute/copy/dispatch tracks.
  for (int gid = 0; gid < run.bed->gpu_count(); ++gid) {
    EXPECT_TRUE(tracer->has_gpu(gid)) << "gid " << gid;
  }
  int kernels = 0, copies = 0, wakes = 0, net_spans = 0, samples = 0;
  std::ostringstream names;
  for (const auto& t : tracer->tracks()) names << t.name << '\n';
  const std::string track_names = names.str();
  EXPECT_NE(track_names.find("compute"), std::string::npos);
  EXPECT_NE(track_names.find("dispatch"), std::string::npos);
  EXPECT_NE(track_names.find("n0->n1"), std::string::npos);
  for (const auto& e : tracer->events()) {
    const std::string_view name = tracer->name(e.name);
    if (name == "KL") ++kernels;
    if (name == "H2D" || name == "D2H") ++copies;
    if (name == "dispatch.wake") ++wakes;
    if (name == "queue_depth") ++samples;
    if (name.starts_with("strings.") &&
        e.type == obs::Tracer::EventType::kComplete) {
      ++net_spans;
    }
  }
  EXPECT_GT(kernels, 0);
  EXPECT_GT(copies, 0);
  EXPECT_GT(wakes, 0);
  EXPECT_GT(net_spans, 0);  // rpc::Channel packet spans on link tracks
  EXPECT_GT(samples, 0);    // the schedulers wrote each RCB change
}

// After every event and process slice, each GPU's latest queue_depth
// sample must equal its scheduler's registered_count(): a change that wrote
// no sample, or a sample that disagrees with the RCB, shows up at once.
class QueueDepthWatch final : public sim::SimHooks {
 public:
  explicit QueueDepthWatch(workloads::Testbed& bed) : tracer_(*bed.tracer()) {
    for (int n = 0; n < bed.node_count(); ++n) {
      for (std::size_t d = 0; d < bed.config().nodes[n].size(); ++d) {
        core::GpuScheduler& s = bed.daemon(n).scheduler(static_cast<int>(d));
        scheds_[tracer_.gpu_tracks().at(s.gid()).dispatch] = &s;
      }
    }
  }
  int samples = 0;
  int mismatches = 0;

  void on_event_end(sim::Simulation&, std::uint64_t) override { check(); }
  void on_process_yielded(sim::Simulation&, sim::Process&) override {
    check();
  }
  void on_event_scheduled(sim::Simulation&, std::uint64_t) override {}
  void on_event_begin(sim::Simulation&, std::uint64_t) override {}
  void on_process_spawned(sim::Simulation&, sim::Process&) override {}
  void on_process_running(sim::Simulation&, sim::Process&) override {}
  void on_mailbox_send(const void*) override {}
  void on_mailbox_recv(const void*) override {}
  void on_mailbox_destroyed(const void*) override {}

 private:
  void check() {
    const auto& events = tracer_.events();
    for (; seen_ < events.size(); ++seen_) {
      const auto& e = events[seen_];
      if (e.type != obs::Tracer::EventType::kCounter ||
          e.name != obs::Tracer::kQueueDepth) {
        continue;
      }
      last_[e.track] = e.value;
      ++samples;
    }
    for (const auto& [track, sched] : scheds_) {
      const auto it = last_.find(track);
      const double got = it == last_.end() ? 0.0 : it->second;
      if (got != double(sched->registered_count())) ++mismatches;
    }
  }

  obs::Tracer& tracer_;
  std::map<int, core::GpuScheduler*> scheds_;  // by dispatch track
  std::map<int, double> last_;
  std::size_t seen_ = 0;
};

struct HooksGuard {
  explicit HooksGuard(sim::SimHooks* h) { sim::set_sim_hooks(h); }
  ~HooksGuard() { sim::set_sim_hooks(nullptr); }
};

// The device counter tracks are exact: ∫util dt is the length of the union
// of the GPU's KL/H2D/D2H spans, every counter sample is a change, and
// queue_depth tracks registered_count().
TEST(TraceExport, UtilAndQueueDepthAreExact) {
  sim::Simulation sim;
  const auto cfg = workloads::parse_scenario(std::string(kDistributedScenario));
  workloads::Testbed bed(sim, cfg.testbed);
  QueueDepthWatch watch(bed);
  {
    HooksGuard guard(&watch);
    workloads::run_streams(bed, cfg.streams);
  }
  EXPECT_GT(watch.samples, 0);
  EXPECT_EQ(watch.mismatches, 0);

  // Busy time per dispatch track: sweep the op spans' edges.
  const obs::Tracer& tracer = *bed.tracer();
  std::map<int, sim::SimTime> busy;
  for (const auto& [gid, g] : tracer.gpu_tracks()) {
    std::vector<std::pair<sim::SimTime, int>> edges;
    for (const auto& e : tracer.events()) {
      if ((e.track != g.compute && e.track != g.copy) || e.dur == 0) continue;
      edges.emplace_back(e.ts, +1);
      edges.emplace_back(e.ts + e.dur, -1);
    }
    std::sort(edges.begin(), edges.end());
    int open = 0;
    sim::SimTime since = 0;
    for (const auto& [ts, step] : edges) {
      if (open == 0 && step > 0) since = ts;
      open += step;
      if (open == 0) busy[g.dispatch] += ts - since;
    }
  }

  // Counter samples as exported, per (dispatch track, counter name).
  std::ostringstream os;
  obs::write_chrome_trace(tracer, os);
  std::map<std::pair<int, int>, int> track_of;  // (pid, tid) -> track
  for (std::size_t i = 0; i < tracer.tracks().size(); ++i) {
    track_of[{tracer.tracks()[i].pid, tracer.tracks()[i].tid}] = int(i);
  }
  using Samples = std::vector<std::pair<long long, double>>;  // (ns, value)
  std::map<std::pair<int, std::string>, Samples> series;
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    char name[64];
    int pid = 0, tid = 0;
    long long us = 0, frac = 0;
    double value = 0.0;
    if (std::sscanf(line.c_str(),
                    "{\"ph\":\"C\",\"name\":\"%63[^\"]\",\"pid\":%d,"
                    "\"tid\":%d,\"ts\":%lld.%lld,\"args\":{\"value\":%lf}}",
                    name, &pid, &tid, &us, &frac, &value) != 6) {
      continue;
    }
    series[{track_of.at({pid, tid}), name}].emplace_back(us * 1000 + frac,
                                                         value);
  }

  std::map<int, sim::SimTime> util_area;
  for (const auto& [key, samples] : series) {
    SCOPED_TRACE("track " + std::to_string(key.first) + " " + key.second);
    int repeats = 0, same_instant = 0;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      if (samples[i].second == samples[i - 1].second) ++repeats;
      if (samples[i].first == samples[i - 1].first) ++same_instant;
    }
    EXPECT_EQ(repeats, 0);
    if (key.second != "util") continue;
    EXPECT_EQ(same_instant, 0);  // touching spans merge: no 0-width gaps
    EXPECT_EQ(samples.back().second, 0.0);
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const double width = double(samples[i].first - samples[i - 1].first);
      util_area[key.first] +=
          static_cast<sim::SimTime>(samples[i - 1].second * width);
    }
  }
  EXPECT_FALSE(busy.empty());
  EXPECT_EQ(util_area, busy);
}

TEST(TraceExport, RegistryCoversAllSubsystems) {
  TracedScenario run;
  obs::Registry& reg = run.bed->metrics_registry();
  EXPECT_TRUE(reg.contains("control_plane/service/rpcs_served"));
  EXPECT_TRUE(reg.contains("control_plane/agent0/select_rpcs"));
  EXPECT_TRUE(reg.contains("control_plane/agent1/placement_latency_ms"));
  EXPECT_TRUE(reg.contains("node0/daemon/wire_bytes"));
  EXPECT_TRUE(reg.contains("node0/gpu0/sched/wakes"));
  EXPECT_TRUE(reg.contains("node1/gpu2/dev/compute_busy_ms"));
  // The gauges poll live component counters: traffic actually flowed.
  EXPECT_GT(reg.gauge("node0/daemon/wire_bytes").value(), 0.0);
  // Distributed placement decides locally and posts one-way bind reports
  // (select_rpcs stays 0 — that's the centralized path's counter).
  EXPECT_GT(reg.gauge("control_plane/agent0/oneway_msgs").value(), 0.0);
  // Agents observed one placement latency per select.
  const auto& h = reg.histogram("control_plane/agent0/placement_latency_ms",
                                obs::default_latency_buckets_ms());
  EXPECT_GT(h.count(), 0);
}

TEST(TraceExport, FilesWrittenViaRunScenarioConfig) {
  const std::string trace_path = ::testing::TempDir() + "/obs_e2e.trace.json";
  const std::string metrics_path = ::testing::TempDir() + "/obs_e2e.metrics.csv";
  workloads::RunArtifacts art;
  art.trace_path = trace_path;
  art.metrics_path = metrics_path;
  auto cfg = workloads::parse_scenario(std::string(kDistributedScenario));
  cfg.testbed.trace = false;  // a trace path must force it back on
  ASSERT_EQ(workloads::run(cfg, art).streams.size(), 2u);
  std::ifstream tf(trace_path);
  ASSERT_TRUE(tf.good());
  std::stringstream trace;
  trace << tf.rdbuf();
  const std::string json = trace.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("dispatch.wake"), std::string::npos);
  EXPECT_NE(json.find("\"KL\""), std::string::npos);
  EXPECT_NE(json.find("pricing-svc"), std::string::npos);
  std::ifstream mf(metrics_path);
  ASSERT_TRUE(mf.good());
  std::string header;
  std::getline(mf, header);
  EXPECT_EQ(header, "metric,field,value");
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(TraceExport, UnwritablePathThrows) {
  auto cfg = workloads::parse_scenario(std::string(kDistributedScenario));
  workloads::RunArtifacts art;
  art.trace_path = "/nonexistent-dir/x.json";
  EXPECT_THROW(workloads::run(cfg, art), std::runtime_error);
}

// The acceptance pin: instrumentation must not perturb the simulation.
// Identical seeds with tracing on and off must produce identical virtual
// timelines — every response time equal to the nanosecond.
TEST(TraceExport, TracingIsBehaviorNeutral) {
  auto run_with = [](bool trace) {
    auto cfg = workloads::parse_scenario(std::string(kDistributedScenario));
    cfg.testbed.trace = trace;
    return workloads::run(cfg).streams;
  };
  const auto off = run_with(false);
  const auto on = run_with(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].completed, on[i].completed);
    EXPECT_EQ(off[i].errors, on[i].errors);
    EXPECT_EQ(off[i].makespan, on[i].makespan);
    ASSERT_EQ(off[i].response_times.size(), on[i].response_times.size());
    for (std::size_t j = 0; j < off[i].response_times.size(); ++j) {
      EXPECT_EQ(off[i].response_times[j], on[i].response_times[j])
          << "stream " << i << " request " << j;
    }
  }
}

// The scheduler decisions of the paper's protocols, read from the state
// that already records them: the analyzer's handshake invariants, the
// placement log and selection counters, and the Tracer's dispatch track.
struct SequentialRun {
  explicit SequentialRun(int requests, bool analyze = false) {
    workloads::TestbedConfig cfg;
    cfg.mode = workloads::Mode::kStrings;
    cfg.nodes = workloads::small_server();
    cfg.balancing_policy = "GWtMin";
    cfg.device_policy = "TFS";
    cfg.feedback_policy = "MBF";
    cfg.analyze = analyze;
    bed = std::make_unique<workloads::Testbed>(sim, cfg);
    workloads::ArrivalConfig a;
    a.app = "BS";
    a.requests = requests;
    a.lambda_scale = 1.5;  // sequential: feedback lands between requests
    a.seed = 7;
    stats = workloads::run_streams(*bed, {a});
  }
  sim::Simulation sim;
  std::unique_ptr<workloads::Testbed> bed;
  std::vector<workloads::StreamStats> stats;
};

TEST(TracedStack, HandshakeSequencePerRegistration) {
  SequentialRun run(/*requests=*/2, /*analyze=*/true);
  ASSERT_EQ(run.stats.at(0).completed, 2);
  analysis::Analyzer* analyzer = run.bed->analyzer();
  ASSERT_NE(analyzer, nullptr);
  // Fig. 7a: every registration went register -> signal id -> ack before
  // its first dispatch, and unregistered exactly once.
  EXPECT_FALSE(analyzer->report().has("INV-RCB-1"));
  EXPECT_FALSE(analyzer->report().has("INV-HSK-1"));
  EXPECT_EQ(analyzer->report().invariant_violations(), 0);
}

TEST(TracedStack, MapperLogsSelectionsAndArbiterSwitch) {
  SequentialRun run(/*requests=*/3);
  core::PlacementService& mapper = run.bed->mapper();
  ASSERT_EQ(mapper.placements().size(), 3u);
  // The first selection used the static policy; the Arbiter switched to
  // MBF after the first feedback record, so the later ones used MBF.
  EXPECT_EQ(mapper.static_selections(), 1);
  EXPECT_EQ(mapper.feedback_selections(), 2);
  EXPECT_STREQ(mapper.active_policy_name("BS"), "MBF");
}

TEST(TracedStack, TfsDispatcherLogsWakeSleepTransitions) {
  sim::Simulation sim;
  workloads::TestbedConfig cfg;
  cfg.mode = workloads::Mode::kStrings;
  cfg.nodes = {{gpu::tesla_c2050()}};
  cfg.device_policy = "TFS";
  cfg.trace = true;
  workloads::Testbed bed(sim, cfg);
  workloads::ArrivalConfig a;
  a.app = "MC";
  a.requests = 3;
  a.lambda_scale = 0.05;  // pile up: TFS must arbitrate
  a.server_threads = 3;
  a.seed = 3;
  workloads::run_streams(bed, {a});
  obs::Tracer* tracer = bed.tracer();
  ASSERT_NE(tracer, nullptr);
  int wakes = 0, sleeps = 0;
  for (const auto& e : tracer->events()) {
    if (e.type != obs::Tracer::EventType::kInstant) continue;
    wakes += e.name == obs::Tracer::kDispatchWake;
    sleeps += e.name == obs::Tracer::kDispatchSleep;
  }
  EXPECT_GT(sleeps, 0);
  EXPECT_GT(wakes, 0);
}

TEST(TracedStack, TracingOffByDefault) {
  sim::Simulation sim;
  workloads::TestbedConfig cfg;
  cfg.mode = workloads::Mode::kStrings;
  cfg.nodes = workloads::small_server();
  workloads::Testbed bed(sim, cfg);
  EXPECT_EQ(bed.tracer(), nullptr);
}

}  // namespace
}  // namespace strings
