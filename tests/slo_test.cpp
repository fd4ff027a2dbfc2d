// SLO watchdog contract: the .slo grammar (and its line-numbered
// diagnostics), full-segment wildcard matching, the warn/fail/hard
// severity ladder with burn-rate latching and recovery, and the
// deterministic alert renderings.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "simcore/sim_time.hpp"

namespace strings::obs {
namespace {

TEST(SloRules, ParsesFullGrammar) {
  const auto rules = parse_slo_rules(R"(
# comment lines and blanks are ignored
[queue-delay]
metric  = tenant/*/queue_ms
reducer = p99
op      = gt
warn    = 5.0   # trailing comments too
fail    = 20
burn_windows = 3

[drops]
metric = tenant/acme/errors
reducer = delta
fail = 1
)");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "queue-delay");
  EXPECT_EQ(rules[0].metric, "tenant/*/queue_ms");
  EXPECT_EQ(rules[0].reducer, "p99");
  EXPECT_EQ(rules[0].op, "gt");
  EXPECT_TRUE(rules[0].has_warn);
  EXPECT_DOUBLE_EQ(rules[0].warn, 5.0);
  EXPECT_TRUE(rules[0].has_fail);
  EXPECT_DOUBLE_EQ(rules[0].fail, 20.0);
  EXPECT_EQ(rules[0].burn_windows, 3);
  EXPECT_EQ(rules[1].reducer, "delta");
  EXPECT_FALSE(rules[1].has_warn);
  EXPECT_EQ(rules[1].burn_windows, 1);  // default
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    parse_slo_rules(text);
    FAIL() << "expected SloParseError for: " << text;
  } catch (const SloParseError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(SloRules, DiagnosticsCarryLineNumbers) {
  expect_parse_error("", "no [rule] sections found");
  expect_parse_error("metric = x\n", "line 1");  // key before any section
  expect_parse_error("[r]\nbogus = 1\n", "line 2");
  expect_parse_error("[r]\nmetric = x\nwarn = not-a-number\n", "line 3");
  expect_parse_error("[r]\nmetric = x\nreducer = p42\nfail = 1\n", "p42");
  expect_parse_error("[r]\nwarn = 1\n", "metric");  // rule without a metric
  expect_parse_error("[r]\nmetric = x\n", "warn");  // neither threshold
  expect_parse_error("[r]\nmetric = x\nfail = 1\nburn_windows = 0\n",
                     "burn_windows");
}

TEST(SloRules, WildcardMatchesFullSegmentsOnly) {
  EXPECT_TRUE(slo_metric_match("tenant/*/queue_ms", "tenant/acme/queue_ms"));
  EXPECT_FALSE(slo_metric_match("tenant/*/queue_ms", "tenant/queue_ms"));
  EXPECT_FALSE(
      slo_metric_match("tenant/*/queue_ms", "tenant/a/b/queue_ms"));
  EXPECT_TRUE(slo_metric_match("*", "anything"));
  EXPECT_FALSE(slo_metric_match("*", "a/b"));  // one segment, not a prefix
  EXPECT_TRUE(slo_metric_match("a/b", "a/b"));  // literal
  EXPECT_FALSE(slo_metric_match("a/b", "a/c"));
}

// One synthetic window with a single scalar series.
Window scalar_window(std::uint64_t index, const std::string& name,
                     double value, double delta) {
  Window w;
  w.index = index;
  w.start = sim::msec(10) * static_cast<sim::SimTime>(index);
  w.end = w.start + sim::msec(10);
  w.series[name] = SeriesPoint{value, delta};
  return w;
}

TEST(SloWatchdog, WarnFailLadderAndCounts) {
  SloRule r;
  r.name = "lag";
  r.metric = "svc/lag";
  r.reducer = "value";
  r.warn = 5.0;
  r.has_warn = true;
  r.fail = 10.0;
  r.has_fail = true;
  SloWatchdog dog({r});

  EXPECT_TRUE(dog.evaluate(scalar_window(0, "svc/lag", 3.0, 3.0)).empty());
  auto warn = dog.evaluate(scalar_window(1, "svc/lag", 7.0, 4.0));
  ASSERT_EQ(warn.size(), 1u);
  EXPECT_EQ(warn[0].severity, "warn");
  EXPECT_DOUBLE_EQ(warn[0].value, 7.0);
  EXPECT_DOUBLE_EQ(warn[0].threshold, 5.0);

  // burn_windows defaults to 1: the first failing window is already hard.
  auto fail = dog.evaluate(scalar_window(2, "svc/lag", 12.0, 5.0));
  ASSERT_EQ(fail.size(), 2u);
  EXPECT_EQ(fail[0].severity, "fail");
  EXPECT_EQ(fail[1].severity, "hard");
  EXPECT_EQ(dog.warn_count(), 1);
  EXPECT_EQ(dog.fail_count(), 1);
  EXPECT_EQ(dog.hard_violations(), 1);
  EXPECT_EQ(dog.alerts().size(), 3u);
}

TEST(SloWatchdog, BurnRateLatchesOnceAndResetsOnRecovery) {
  SloRule r;
  r.name = "burn";
  r.metric = "svc/lag";
  r.fail = 10.0;
  r.has_fail = true;
  r.burn_windows = 3;
  SloWatchdog dog({r});

  auto fail_window = [&](std::uint64_t i) {
    return dog.evaluate(scalar_window(i, "svc/lag", 20.0, 0.0));
  };
  EXPECT_EQ(fail_window(0).size(), 1u);  // fail, streak 1
  EXPECT_EQ(fail_window(1).size(), 1u);  // fail, streak 2
  auto third = fail_window(2);           // streak 3 -> hard fires
  ASSERT_EQ(third.size(), 2u);
  EXPECT_EQ(third[1].severity, "hard");
  // Latched: further failing windows keep raising "fail" but not "hard".
  auto fourth = fail_window(3);
  ASSERT_EQ(fourth.size(), 1u);
  EXPECT_EQ(fourth[0].severity, "fail");
  EXPECT_EQ(dog.hard_violations(), 1);

  // A healthy window with data resets the streak and the latch...
  EXPECT_TRUE(dog.evaluate(scalar_window(4, "svc/lag", 1.0, 0.0)).empty());
  // ...so a fresh sustained burn can fire a second hard alert.
  fail_window(5);
  fail_window(6);
  auto relatch = fail_window(7);
  ASSERT_EQ(relatch.size(), 2u);
  EXPECT_EQ(relatch[1].severity, "hard");
  EXPECT_EQ(dog.hard_violations(), 2);
}

TEST(SloWatchdog, NoDataWindowResetsBurnStreak) {
  SloRule r;
  r.name = "burn";
  r.metric = "svc/lag";
  r.fail = 10.0;
  r.has_fail = true;
  r.burn_windows = 2;
  SloWatchdog dog({r});

  dog.evaluate(scalar_window(0, "svc/lag", 20.0, 0.0));  // streak 1
  Window quiet;  // the series vanished: idleness, not violation
  quiet.index = 1;
  quiet.end = sim::msec(20);
  EXPECT_TRUE(dog.evaluate(quiet).empty());
  dog.evaluate(scalar_window(2, "svc/lag", 20.0, 0.0));  // streak restarts at 1
  EXPECT_EQ(dog.hard_violations(), 0);
  dog.evaluate(scalar_window(3, "svc/lag", 20.0, 0.0));  // streak 2 -> hard
  EXPECT_EQ(dog.hard_violations(), 1);
}

TEST(SloWatchdog, LtOperatorAndWildcardFanOut) {
  SloRule r;
  r.name = "throughput";
  r.metric = "tenant/*/completed";
  r.reducer = "delta";
  r.op = "lt";
  r.fail = 2.0;
  r.has_fail = true;
  SloWatchdog dog({r});

  Window w;
  w.index = 0;
  w.end = sim::msec(10);
  w.series["tenant/a/completed"] = SeriesPoint{10.0, 1.0};  // too slow
  w.series["tenant/b/completed"] = SeriesPoint{50.0, 5.0};  // healthy
  w.series["tenant/a/errors"] = SeriesPoint{0.0, 0.0};      // not matched
  auto alerts = dog.evaluate(w);
  ASSERT_EQ(alerts.size(), 2u);  // fail + hard (burn_windows = 1)
  EXPECT_EQ(alerts[0].series, "tenant/a/completed");
}

TEST(SloWatchdog, HistogramReducerViaWindow) {
  Registry reg;
  auto& h = reg.histogram("tenant/a/queue_ms", default_latency_buckets_ms());
  for (int i = 0; i < 100; ++i) h.observe(80.0);
  TimeSeries ts(reg, {});
  const Window& w = ts.close_window(sim::msec(10));

  SloRule r;
  r.name = "queue";
  r.metric = "tenant/*/queue_ms";
  r.reducer = "p99";
  r.warn = 10.0;
  r.has_warn = true;
  SloWatchdog dog({r});
  auto alerts = dog.evaluate(w);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].severity, "warn");
  EXPECT_GT(alerts[0].value, 10.0);
}

TEST(SloAlerts, RenderingsAreDeterministic) {
  SloAlert a;
  a.window = 3;
  a.at = sim::msec(40);
  a.rule = "queue-delay";
  a.series = "tenant/a/queue_ms";
  a.severity = "fail";
  a.value = 25.5;
  a.threshold = 20.0;

  const std::string arr = render_alerts_json({a});
  EXPECT_EQ(arr.front(), '[');
  EXPECT_EQ(arr.back(), ']');
  EXPECT_NE(arr.find("\"rule\":\"queue-delay\""), std::string::npos);
  EXPECT_NE(arr.find("\"severity\":\"fail\""), std::string::npos);
  EXPECT_EQ(render_alerts_json({}), "[]");

  std::ostringstream os;
  write_alerts_jsonl(os, {a, a});
  const std::string jsonl = os.str();
  EXPECT_NE(jsonl.find("\"schema\":\"strings.alert.v1\""), std::string::npos);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

TEST(SloAlerts, NamesNeedingEscapesReadBackUnchanged) {
  SloAlert a;
  a.rule = "rule \"q\"";
  a.series = "tenant/check\"out\\svc/queue_ms";
  a.severity = "fail\n";
  a.exemplars = {"w1.\"1\""};

  std::ostringstream alerts;
  write_alerts_jsonl(alerts, {a});
  Registry reg;
  TimeSeries ts(reg, {});
  std::ostringstream stream;
  write_stream_line(stream, ts.close_window(sim::msec(10), false),
                    render_alerts_json({a}), a.exemplars);

  json::Value line, window;
  ASSERT_TRUE(json::parse(alerts.str(), &line, nullptr)) << alerts.str();
  ASSERT_TRUE(json::parse(stream.str(), &window, nullptr)) << stream.str();
  ASSERT_EQ(window["alerts"].items.size(), 1u);
  const auto expect_alert = [&a](const json::Value& v) {
    EXPECT_EQ(v["rule"].text, a.rule);
    EXPECT_EQ(v["series"].text, a.series);
    EXPECT_EQ(v["severity"].text, a.severity);
    ASSERT_EQ(v["exemplars"].items.size(), 1u);
    EXPECT_EQ(v["exemplars"].items[0].text, a.exemplars[0]);
  };
  expect_alert(line);
  expect_alert(window["alerts"].items[0]);
  ASSERT_EQ(window["exemplars"].items.size(), 1u);
  EXPECT_EQ(window["exemplars"].items[0].text, a.exemplars[0]);
}

}  // namespace
}  // namespace strings::obs
