// The streaming layer's zero-overhead contract, pinned in-process:
//
//   1. with --stream off, a run is byte-for-byte identical (trace JSON and
//      metrics CSV) to one built before the telemetry layer existed — no
//      extra instruments, no weak ticks, no perturbation;
//   2. with --stream on, the virtual timeline is still unperturbed: the
//      per-request stats match the stream-off run exactly (sampling rides
//      on schedule_weak and the TimeSeries only reads the registry);
//   3. the streamed .jsonl itself is byte-identical across repeated runs —
//      no wall clock, no randomness anywhere in the pipeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workloads/scenario_config.hpp"

namespace strings {
namespace {

const char kScenario[] = R"(
mode = strings
topology = supernode
balancing = GMin
device_policy = PS
stream_window_ms = 50

[stream]
app = BS
origin = 0
requests = 5
lambda_scale = 0.3
server_threads = 2
tenant = pricing-svc

[stream]
app = MM
origin = 1
requests = 3
lambda_scale = 0.4
server_threads = 2
tenant = batch-train
)";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

void expect_identical_streams(const std::vector<workloads::StreamStats>& a,
                              const std::vector<workloads::StreamStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].completed, b[i].completed);
    EXPECT_EQ(a[i].errors, b[i].errors);
    EXPECT_EQ(a[i].makespan, b[i].makespan);
    ASSERT_EQ(a[i].response_times.size(), b[i].response_times.size());
    for (std::size_t j = 0; j < a[i].response_times.size(); ++j) {
      EXPECT_EQ(a[i].response_times[j], b[i].response_times[j])
          << "stream " << i << " request " << j;
    }
  }
}

// Contract 1: stream off == never built. The exported trace and metrics
// must not mention a single telemetry artifact, and two off-runs agree
// byte for byte (golden_artifacts_* pins the same against committed files).
TEST(StreamZeroOverhead, OffRunHasNoTelemetryFootprint) {
  const std::string dir = ::testing::TempDir();
  auto run = [&](const std::string& tag) {
    auto cfg = workloads::parse_scenario(std::string(kScenario));
    cfg.testbed.stream = false;
    workloads::RunArtifacts art;
    art.trace_path = dir + "/szo_" + tag + ".trace.json";
    art.metrics_path = dir + "/szo_" + tag + ".metrics.csv";
    workloads::run(cfg, art);
    return std::make_pair(slurp(art.trace_path), slurp(art.metrics_path));
  };
  const auto a = run("a");
  const auto b = run("b");
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_FALSE(a.second.empty());
  // No sim/ self-instrumentation, no tenant/ request metrics, no slo/
  // counters: the off run never registers them.
  EXPECT_EQ(a.second.find("sim/"), std::string::npos);
  EXPECT_EQ(a.second.find("tenant/"), std::string::npos);
  EXPECT_EQ(a.second.find("slo/"), std::string::npos);
}

// Contract 2: stream on leaves the virtual timeline untouched.
TEST(StreamZeroOverhead, StreamOnDoesNotPerturbTimeline) {
  auto run = [&](bool stream) {
    auto cfg = workloads::parse_scenario(std::string(kScenario));
    cfg.testbed.stream = stream;
    return workloads::run(cfg).streams;
  };
  expect_identical_streams(run(false), run(true));
}

// Contract 3: the .jsonl artifact is byte-reproducible, and sampling on
// schedule_weak never extends the run — the last window end cannot pass
// the drain time observed by the stream-off run.
TEST(StreamZeroOverhead, StreamFileIsByteIdenticalAcrossRuns) {
  const std::string dir = ::testing::TempDir();
  auto run = [&](const std::string& tag) {
    auto cfg = workloads::parse_scenario(std::string(kScenario));
    workloads::RunArtifacts art;
    art.stream_path = dir + "/szo_stream_" + tag + ".jsonl";
    workloads::run(cfg, art);
    return slurp(art.stream_path);
  };
  const std::string a = run("a");
  EXPECT_EQ(a, run("b"));
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("\"schema\":\"strings.stream.v1\""), std::string::npos);
  // Self-instrumentation rides in the stream.
  EXPECT_NE(a.find("sim/events_executed"), std::string::npos);
  EXPECT_NE(a.find("tenant/pricing-svc/completed"), std::string::npos);
}

}  // namespace
}  // namespace strings
