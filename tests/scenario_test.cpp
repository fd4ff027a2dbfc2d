// Tests for the declarative scenario format: parsing, validation, error
// reporting, and end-to-end execution.
#include "workloads/scenario_config.hpp"

#include <gtest/gtest.h>

namespace strings::workloads {
namespace {

TEST(ScenarioParse, FullScenarioRoundTrip) {
  const char* text = R"(
# full example
mode = strings
topology = supernode
balancing = GWtMin
feedback = MBF
device_policy = PS
remote_link = gige
shared_network = true
epoch_ms = 20

[stream]
app = MC
origin = 1
requests = 7
lambda_scale = 0.4
server_threads = 5
seed = 99
tenant = pricing
weight = 2.5
)";
  const ScenarioConfig cfg = parse_scenario(std::string(text));
  EXPECT_EQ(cfg.testbed.mode, Mode::kStrings);
  EXPECT_EQ(cfg.testbed.nodes.size(), 2u);
  EXPECT_EQ(cfg.testbed.balancing_policy, "GWtMin");
  EXPECT_EQ(cfg.testbed.feedback_policy, "MBF");
  EXPECT_EQ(cfg.testbed.device_policy, "PS");
  EXPECT_TRUE(cfg.testbed.shared_network);
  EXPECT_EQ(cfg.testbed.sched_epoch, sim::msec(20));
  EXPECT_DOUBLE_EQ(cfg.testbed.remote_link.bandwidth_gbps, 0.117);
  ASSERT_EQ(cfg.streams.size(), 1u);
  const ArrivalConfig& s = cfg.streams[0];
  EXPECT_EQ(s.app, "MC");
  EXPECT_EQ(s.origin, 1);
  EXPECT_EQ(s.requests, 7);
  EXPECT_DOUBLE_EQ(s.lambda_scale, 0.4);
  EXPECT_EQ(s.server_threads, 5);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.tenant, "pricing");
  EXPECT_DOUBLE_EQ(s.tenant_weight, 2.5);
}

TEST(ScenarioParse, DefaultsApplyWhenOmitted) {
  const ScenarioConfig cfg = parse_scenario(std::string(R"(
[stream]
app = GA
)"));
  EXPECT_EQ(cfg.testbed.mode, Mode::kStrings);
  EXPECT_EQ(cfg.streams[0].requests, 16);  // ArrivalConfig default
  EXPECT_EQ(cfg.streams[0].seed, 1u);      // auto-assigned per stream
}

TEST(ScenarioParse, AutoSeedsDifferPerStream) {
  const ScenarioConfig cfg = parse_scenario(std::string(R"(
[stream]
app = GA
[stream]
app = BS
)"));
  EXPECT_NE(cfg.streams[0].seed, cfg.streams[1].seed);
}

TEST(ScenarioParse, NxMTopology) {
  const ScenarioConfig cfg = parse_scenario(std::string(R"(
topology = 3x4
[stream]
app = GA
)"));
  ASSERT_EQ(cfg.testbed.nodes.size(), 3u);
  EXPECT_EQ(cfg.testbed.nodes[0].size(), 4u);
  EXPECT_EQ(cfg.testbed.nodes[2][3].name, "Tesla C2050");
}

TEST(ScenarioParse, CommentsAndBlankLinesIgnored) {
  const ScenarioConfig cfg = parse_scenario(std::string(R"(
# leading comment

mode = rain   # trailing comment

[stream]
app = SN      # another
)"));
  EXPECT_EQ(cfg.testbed.mode, Mode::kRain);
  EXPECT_EQ(cfg.streams[0].app, "SN");
}

TEST(ScenarioParse, SyncModeKeySelectsTheDeltaProtocol) {
  const ScenarioConfig cfg = parse_scenario(std::string(R"(
placement = distributed
sync_mode = push
[stream]
app = MC
)"));
  EXPECT_EQ(cfg.testbed.control_plane.sync_mode, core::SyncMode::kPush);
  // `hybrid` is not a sync mode: a line error.
  EXPECT_THROW(parse_scenario(std::string("sync_mode = hybrid\n")),
               ScenarioParseError);
  // Omitted: pull, the pre-push default.
  const ScenarioConfig dflt = parse_scenario(std::string(R"(
[stream]
app = MC
)"));
  EXPECT_EQ(dflt.testbed.control_plane.sync_mode, core::SyncMode::kPull);
}

// Parsing `text` throws a ScenarioParseError whose message contains `what`.
void expect_line_error(const std::string& text, const std::string& what) {
                       SCOPED_TRACE(text);
  try {
    parse_scenario(text);
    ADD_FAILURE() << "expected ScenarioParseError";
  } catch (const ScenarioParseError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(ScenarioParse, UnknownSyncModeIsALineError) {
  expect_line_error("mode = strings\nsync_mode = gossip\n",
                    "line 2: unknown sync mode");
}

TEST(ScenarioParse, ErrorsCarryLineNumbers) {
  expect_line_error("mode = strings\nbogus_key = 1\n", "line 2");
}

TEST(ScenarioParse, RejectsMalformedInput) {
  EXPECT_THROW(parse_scenario(std::string("just text\n[stream]\napp = GA\n")),
               ScenarioParseError);
  EXPECT_THROW(parse_scenario(std::string("mode = warp\n[stream]\napp = GA\n")),
               ScenarioParseError);
  EXPECT_THROW(parse_scenario(std::string("[bogus]\n")), ScenarioParseError);
  EXPECT_THROW(parse_scenario(std::string("[stream]\nrequests = ten\n")),
               ScenarioParseError);
  EXPECT_THROW(
      parse_scenario(std::string("[stream]\napp = GA\nweight = 2kg\n")),
      ScenarioParseError);
  EXPECT_THROW(parse_scenario(std::string("topology = 0x4\n[stream]\napp=GA\n")),
               ScenarioParseError);
  // Not options: `trace` records the device series, the sampling period is
  // fixed, and scheduler decisions are read from the Tracer and analyzer.
  // Nor does a scenario switch an artifact on: run_scenario's --trace,
  // --analyze and --stream (or the TestbedConfig fields) do.
  for (const char* key : {"trace_events", "trace_devices", "sampler_epoch_ms",
                          "trace", "analyze", "stream"}) {
    expect_line_error(std::string(key) + " = true\n[stream]\napp = GA\n",
                      "line 1: unknown global key '" + std::string(key) + "'");
  }
  // Numbers out of range are line errors, not crashes or silent no-ops.
  const std::string app = "[stream]\napp = GA\n";
  expect_line_error("epoch_ms = 0\n" + app,
                    "line 1: epoch_ms must be positive");
  expect_line_error("epoch_ms = -10\n" + app, "epoch_ms must be positive");
  expect_line_error(app + "server_threads = 0\n",
                    "line 3: server_threads must be positive");
  expect_line_error(app + "requests = 0\n", "requests must be positive");
  expect_line_error(app + "requests = -3\n", "requests must be positive");
  expect_line_error(app + "lambda_scale = 0\n",
                    "lambda_scale must be positive");
  expect_line_error(app + "lambda_scale = -0.5\n",
                    "lambda_scale must be positive");
  expect_line_error(app + "weight = 0\n", "weight must be positive");
  expect_line_error("[tenant]\nweight = -1\n",
                    "line 2: weight must be positive");
  expect_line_error("[tenant]\nrequests = 0\n", "requests must be positive");
  expect_line_error("[tenant]\nattach_ms = -5000\n",
                    "line 2: attach_ms must be non-negative");
  // Control-plane timing: a negative delay would schedule into the past.
  expect_line_error("feedback_flush_ms = -5\n" + app,
                    "line 1: feedback_flush_ms must be non-negative");
  expect_line_error("feedback_batch = 0\n" + app,
                    "line 1: feedback_batch must be positive");
  expect_line_error("feedback_batch = -2\n" + app,
                    "feedback_batch must be positive");
  expect_line_error("refresh_epoch_ms = -1\n" + app,
                    "line 1: refresh_epoch_ms must be non-negative");
  expect_line_error("mqfq_sticky_ms = -1\n" + app,
                    "line 1: mqfq_sticky_ms must be non-negative");
}

TEST(ScenarioParse, RejectsEmptyOrIncompleteScenarios) {
  EXPECT_THROW(parse_scenario(std::string("mode = strings\n")),
               ScenarioParseError);
  EXPECT_THROW(parse_scenario(std::string("[stream]\nrequests = 2\n")),
               ScenarioParseError);
  // Unknown app is validated at parse time.
  EXPECT_THROW(parse_scenario(std::string("[stream]\napp = ZZ\n")),
               std::invalid_argument);
  // Origin beyond the topology.
  EXPECT_THROW(
      parse_scenario(std::string("topology = small\n[stream]\napp = GA\norigin = 3\n")),
      ScenarioParseError);
}

TEST(ScenarioParse, LoadMissingFileThrows) {
  EXPECT_THROW(load_scenario("/nonexistent/path.scenario"),
               ScenarioParseError);
}

TEST(ScenarioRun, ExecutesEndToEnd) {
  const ScenarioConfig cfg = parse_scenario(std::string(R"(
mode = strings
topology = small
balancing = GMin
[stream]
app = GA
requests = 3
lambda_scale = 0.5
)"));
  const auto stats = run(cfg).streams;
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].completed, 3);
  EXPECT_EQ(stats[0].errors, 0);
}

// Fixed-horizon runs stop the clock with requests still in flight; run()
// must unwind them (destructors included) without blocking or crashing, in
// every mode. The CUDA-baseline API used to flush in its destructor and
// dereference a null current process here.
class FixedHorizonRun : public ::testing::TestWithParam<Mode> {};

TEST_P(FixedHorizonRun, UnwindsRequestsInFlightAtHorizon) {
  ScenarioConfig cfg;
  cfg.testbed.mode = GetParam();
  cfg.testbed.nodes = {{gpu::tesla_c2050()}};
  ArrivalConfig a;
  a.app = "MC";
  a.requests = 20;
  a.lambda_scale = 0.02;  // back-to-back: always backlogged
  a.server_threads = 2;
  a.seed = 5;
  a.tenant = "tenantA";
  ArrivalConfig b = a;
  b.app = "BS";
  b.seed = 6;
  b.tenant = "tenantB";
  cfg.streams = {a, b};

  const sim::SimTime horizon = sim::sec(5);
  const RunResult result = run(cfg, {}, horizon);
  EXPECT_EQ(result.makespan, horizon);
  ASSERT_EQ(result.streams.size(), 2u);
  EXPECT_LT(result.streams[0].completed + result.streams[1].completed, 40)
      << "every request finished: nothing was in flight at the horizon";
  EXPECT_GT(result.tenant_service_s.at("tenantA"), 0.0);
  EXPECT_GT(result.tenant_service_s.at("tenantB"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, FixedHorizonRun,
    ::testing::Values(Mode::kCudaBaseline, Mode::kRain, Mode::kStrings,
                      Mode::kDesign2),
    [](const ::testing::TestParamInfo<Mode>& info) {
      return std::string(info.param == Mode::kDesign2 ? "Design2"
                                                      : mode_name(info.param));
    });

}  // namespace
}  // namespace strings::workloads
