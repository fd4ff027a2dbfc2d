// Tests for the shared bench machinery (bench/common): bench::run must
// create STRINGS_TRACE_DIR on demand and name its artifacts by the run's
// report key, a key may name only one run, the perf-gate recorder must
// write the BENCH_report.json schema tools/bench_gate consumes, merging
// with entries other bench binaries already wrote, and the control-plane
// table must report the stale-hit rate without dividing by zero.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "obs/json.hpp"

namespace strings {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* key, const std::string& value) : key_(key) {
    ::setenv(key, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(key_); }

 private:
  const char* key_;
};

// Defaults: strings mode on the small server.
workloads::ScenarioConfig tiny_config() {
  workloads::ScenarioConfig cfg;
  workloads::ArrivalConfig s;
  s.app = "MC";
  s.requests = 2;
  s.lambda_scale = 0.8;
  s.tenant = "tenantA";
  cfg.streams = {s};
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchCommon, TraceDirIsCreatedOnDemand) {
  const std::string dir =
      ::testing::TempDir() + "/bct_trace/nested/does_not_exist_yet";
  std::filesystem::remove_all(::testing::TempDir() + "/bct_trace");
  ASSERT_FALSE(std::filesystem::exists(dir));
  ScopedEnv env("STRINGS_TRACE_DIR", dir);
  bench::run("bct-mkdir", tiny_config());
  // The artifacts' base name is the report key, "<binary>/<label>".
  const std::string base = dir + "/bench_common_test/bct-mkdir";
  EXPECT_TRUE(std::filesystem::exists(base + ".trace.json"));
  EXPECT_TRUE(std::filesystem::exists(base + ".metrics.csv"));
}

TEST(BenchCommon, BenchReportRecordsSchemaAndMerges) {
  const std::string path =
      ::testing::TempDir() + "/bct_report/sub/BENCH_report.json";
  std::filesystem::remove(path);
  // Pre-seed an entry "another binary" wrote: the flush must keep it.
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  {
    std::ofstream out(path);
    out << "{\n"
        << "  \"other_bench/foo\": {\"makespan_s\":1.000000000,"
        << "\"p50_s\":0.5,\"p99_s\":0.9,\"jain\":1.0}\n"
        << "}\n";
  }
  ScopedEnv env("STRINGS_BENCH_REPORT", path);
  const workloads::RunResult out = bench::run("bct-report", tiny_config());
  EXPECT_GT(out.makespan, 0);
  bench::flush_bench_report();

  const std::string report = slurp(path);
  EXPECT_NE(report.find("\"other_bench/foo\": {\"makespan_s\":1.000000000,"
                        "\"p50_s\":0.5,\"p99_s\":0.9,\"jain\":1.0}"),
            std::string::npos)
      << "merge dropped or rewrote a foreign entry:\n" << report;
  obs::json::Value doc;
  std::string error;
  EXPECT_TRUE(obs::json::parse(report, &doc, &error)) << error << "\n"
                                                      << report;
  const std::size_t entry = report.find("/bct-report\": {");
  ASSERT_NE(entry, std::string::npos) << report;
  for (const char* metric : {"makespan_s", "p50_s", "p99_s", "jain"}) {
    EXPECT_NE(report.find(std::string("\"") + metric + "\":", entry),
              std::string::npos)
        << metric << " missing:\n" << report;
  }

  // Flushing again must be idempotent.
  bench::flush_bench_report();
  EXPECT_EQ(slurp(path), report);
}

TEST(BenchCommon, UnreadableReportIsReplaced) {
  // A report that is not one JSON object (here a trailing comma, as a
  // line-grepped subset leaves) is replaced by this binary's entries.
  const std::string path =
      ::testing::TempDir() + "/bct_report/BENCH_unreadable.json";
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  {
    std::ofstream out(path);
    out << "{\n  \"other_bench/foo\": {\"wall_s\":1},\n}\n";
  }
  ScopedEnv env("STRINGS_BENCH_REPORT", path);
  bench::run("bct-unreadable", tiny_config());
  bench::flush_bench_report();
  const std::string report = slurp(path);
  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(report, &doc, &error)) << error;
  EXPECT_EQ(doc.find("other_bench/foo"), nullptr) << report;
  EXPECT_NE(report.find("/bct-unreadable\": {"), std::string::npos) << report;
}

TEST(BenchCommon, RepeatedKeyStopsTheBench) {
  // Two runs under one key would share a report entry and artifacts, so
  // the second one stops the bench, with or without a report.
  EXPECT_EXIT(
      {
        bench::run("bct-twice", tiny_config());
        bench::run("bct-twice", tiny_config());
      },
      ::testing::ExitedWithCode(1),
      "bench key bench_common_test/bct-twice is used by two runs");
  // A raw entry claims its key the same way.
  EXPECT_EXIT(
      {
        bench::run("bct-entry", tiny_config());
        bench::record_bench_entry("bct-entry", "{}");
      },
      ::testing::ExitedWithCode(1),
      "bench key bench_common_test/bct-entry is used by two runs");
}

TEST(BenchCommon, NoReportWithoutEnvToggle) {
  // With the toggle unset, runs record nothing and flush writes nothing.
  const std::string path = ::testing::TempDir() + "/bct_report/BENCH_off.json";
  std::filesystem::remove(path);
  ::unsetenv("STRINGS_BENCH_REPORT");
  bench::run("bct-off", tiny_config());
  // Even if the toggle appears later, nothing was recorded to flush.
  ScopedEnv env("STRINGS_BENCH_REPORT", path);
  bench::flush_bench_report();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ControlPlaneTable, StaleHitRateZeroSelectsIsZero) {
  // A run with no distributed selects at all must not divide by zero.
  core::ControlPlaneStats s;
  EXPECT_DOUBLE_EQ(bench::stale_hit_rate(s), 0.0);
}

TEST(ControlPlaneTable, StaleHitRateAllDirectIsZero) {
  // Centralized/direct deployments never consult a snapshot: every select
  // is a direct call, so the stale-hit rate stays 0 even though the run
  // served traffic.
  core::ControlPlaneStats s;
  s.select_rpcs = 20;
  s.direct_calls = 20;
  EXPECT_DOUBLE_EQ(bench::stale_hit_rate(s), 0.0);
}

TEST(ControlPlaneTable, StaleHitRateMixed) {
  core::ControlPlaneStats s;
  s.stale_hits = 3;
  s.sync_rpcs = 1;
  EXPECT_DOUBLE_EQ(bench::stale_hit_rate(s), 0.75);
  // All selects served from cache: rate saturates at 1.
  s.sync_rpcs = 0;
  EXPECT_DOUBLE_EQ(bench::stale_hit_rate(s), 1.0);
}

}  // namespace
}  // namespace strings
