// The zero-overhead contract, pinned: with analysis off, a run is
// bit-for-bit identical to one that never heard of the analysis layer; and
// because the analyzer is a pure observer, turning it ON must not perturb
// the virtual timeline either. Both are checked on the paper's Fig. 9
// workload-balancing setup and on the distributed-mapper scenario, down to
// the exported trace/metrics artifacts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "workloads/scenario_config.hpp"

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

// A fig9-style centralized balancing run (GMin on the supernode).
const char kFig9Scenario[] = R"(
mode = strings
topology = supernode
balancing = GMin
device_policy = PS

[stream]
app = HI
origin = 0
requests = 5
lambda_scale = 0.3
server_threads = 5
tenant = histogram-svc

[stream]
app = BS
origin = 1
requests = 5
lambda_scale = 0.3
server_threads = 5
tenant = pricing-svc
)";

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

std::vector<workloads::StreamStats> run_with_analyze(const char* scenario,
                                                     bool analyze) {
  auto cfg = workloads::parse_scenario(std::string(scenario));
  cfg.testbed.analyze = analyze;
  return workloads::run(cfg).streams;
}

TEST(AnalysisZeroOverhead, DistributedMapperTimelineIsUnperturbed) {
  const auto off = run_with_analyze(kDistributedScenario, false);
  const auto off_again = run_with_analyze(kDistributedScenario, false);
  const auto on = run_with_analyze(kDistributedScenario, true);
  expect_identical_streams(off, off_again);  // the run is deterministic
  expect_identical_streams(off, on);         // ...and the analyzer passive
}

TEST(AnalysisZeroOverhead, Fig9TimelineIsUnperturbed) {
  const auto off = run_with_analyze(kFig9Scenario, false);
  const auto on = run_with_analyze(kFig9Scenario, true);
  expect_identical_streams(off, on);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

// The strongest form of the contract: the exported artifacts — trace JSON
// and metrics CSV — are byte-identical between an analyzed and an
// unanalyzed run of the same scenario.
TEST(AnalysisZeroOverhead, ExportedArtifactsAreByteIdentical) {
  const std::string dir = ::testing::TempDir();
  auto run = [&](bool analyze, const std::string& tag) {
    auto cfg = workloads::parse_scenario(std::string(kDistributedScenario));
    cfg.testbed.analyze = analyze;
    workloads::RunArtifacts art;
    art.trace_path = dir + "/zo_" + tag + ".trace.json";
    art.metrics_path = dir + "/zo_" + tag + ".metrics.csv";
    workloads::run(cfg, art);
    return std::make_pair(slurp(art.trace_path), slurp(art.metrics_path));
  };
  const auto off = run(false, "off");
  const auto on = run(true, "on");
  EXPECT_EQ(off.first, on.first);    // trace JSON, byte for byte
  EXPECT_EQ(off.second, on.second);  // metrics CSV, byte for byte
  EXPECT_FALSE(off.first.empty());
  EXPECT_FALSE(off.second.empty());
}

}  // namespace
}  // namespace strings
