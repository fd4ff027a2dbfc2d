// obs::TimeSeries — the windowed-aggregation contract: tumbling windows
// over the cumulative Registry, delta/rate reducers, window-local
// histogram quantiles that agree with the whole-run Registry math, an
// in-place window that matches a map-keyed reference close on random
// schedules, and a deterministic JSONL rendering that matches the full-map
// renderer it replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "simcore/sim_time.hpp"

namespace strings::obs {
namespace {

TimeSeries::Config cfg(sim::SimTime window) {
  TimeSeries::Config c;
  c.window = window;
  return c;
}

TEST(TimeSeries, EmptyWindowStillCloses) {
  Registry reg;
  TimeSeries ts(reg, cfg(sim::msec(10)));
  const Window& w = ts.close_window(sim::msec(10));
  EXPECT_EQ(w.index, 0u);
  EXPECT_EQ(w.start, 0);
  EXPECT_EQ(w.end, sim::msec(10));
  EXPECT_FALSE(w.partial);
  EXPECT_TRUE(w.series.empty());
  EXPECT_TRUE(w.hists.empty());
  EXPECT_EQ(ts.windows_closed(), 1u);
  EXPECT_EQ(ts.last_end(), sim::msec(10));
}

TEST(TimeSeries, SingleSampleCounterDeltaAndRate) {
  Registry reg;
  TimeSeries ts(reg, cfg(sim::msec(10)));
  reg.counter("a/b").inc(3);
  const Window& w1 = ts.close_window(sim::msec(10));
  ASSERT_EQ(w1.series.count("a/b"), 1u);
  EXPECT_DOUBLE_EQ(w1.series.at("a/b").value, 3.0);
  // First sighting: the whole cumulative value is this window's delta.
  EXPECT_DOUBLE_EQ(w1.series.at("a/b").delta, 3.0);

  reg.counter("a/b").inc(2);
  const Window& w2 = ts.close_window(sim::msec(20));
  EXPECT_DOUBLE_EQ(w2.series.at("a/b").value, 5.0);
  EXPECT_DOUBLE_EQ(w2.series.at("a/b").delta, 2.0);

  // Reducers over the closed window.
  EXPECT_DOUBLE_EQ(*reduce_window(w2, "a/b", "value"), 5.0);
  EXPECT_DOUBLE_EQ(*reduce_window(w2, "a/b", "delta"), 2.0);
  EXPECT_DOUBLE_EQ(*reduce_window(w2, "a/b", "rate"), 2.0 / 0.01);
  EXPECT_FALSE(reduce_window(w2, "a/b", "p99").has_value());  // not a hist
  EXPECT_FALSE(reduce_window(w2, "missing", "value").has_value());
}

TEST(TimeSeries, FlatSeriesStaysVisibleWithZeroDelta) {
  Registry reg;
  TimeSeries ts(reg, cfg(sim::msec(10)));
  reg.counter("flat").inc(7);
  ts.close_window(sim::msec(10));
  const Window& w2 = ts.close_window(sim::msec(20));
  // Rule evaluation must still see the series even when nothing changed.
  ASSERT_EQ(w2.series.count("flat"), 1u);
  EXPECT_DOUBLE_EQ(w2.series.at("flat").value, 7.0);
  EXPECT_DOUBLE_EQ(w2.series.at("flat").delta, 0.0);
}

TEST(TimeSeries, MovedListTracksWhatMovedThisWindow) {
  Registry reg;
  reg.counter("a/steady");
  reg.counter("b/flat").inc(7);
  TimeSeries ts(reg, cfg(sim::msec(10)));
  const auto moved_names = [](const Window& w) {
    std::vector<std::string> names;
    for (const auto* e : w.moved) names.push_back(e->first);
    return names;
  };
  reg.counter("a/steady").inc();
  EXPECT_EQ(moved_names(ts.close_window(sim::msec(10))),
            (std::vector<std::string>{"a/steady", "b/flat"}));
  reg.counter("a/steady").inc();  // b/flat is flat
  EXPECT_EQ(moved_names(ts.close_window(sim::msec(20))),
            (std::vector<std::string>{"a/steady"}));
  reg.counter("a/steady").inc();
  reg.counter("b/flat").inc();  // moves, and stays in name order
  EXPECT_EQ(moved_names(ts.close_window(sim::msec(30))),
            (std::vector<std::string>{"a/steady", "b/flat"}));
  reg.counter("a/steady").inc();  // flat again: b/flat leaves the list
  const Window& w = ts.close_window(sim::msec(40));
  EXPECT_EQ(moved_names(w), (std::vector<std::string>{"a/steady"}));
  // The series map still holds the flat entry for rule evaluation.
  EXPECT_DOUBLE_EQ(w.series.at("b/flat").value, 8.0);
  EXPECT_TRUE(moved_names(ts.close_window(sim::msec(50))).empty());
}

TEST(TimeSeries, PartialWindowAtRunEnd) {
  Registry reg;
  TimeSeries ts(reg, cfg(sim::msec(10)));
  reg.counter("c").inc();
  ts.close_window(sim::msec(10));
  reg.counter("c").inc();
  // The run drained 3 ms into the next window: close it partial.
  const Window& w = ts.close_window(sim::msec(13), /*partial=*/true);
  EXPECT_TRUE(w.partial);
  EXPECT_EQ(w.start, sim::msec(10));
  EXPECT_EQ(w.end, sim::msec(13));
  EXPECT_DOUBLE_EQ(w.series.at("c").delta, 1.0);
  // Rate uses the actual (short) window span, not the configured width.
  EXPECT_DOUBLE_EQ(*reduce_window(w, "c", "rate"), 1.0 / 0.003);
}

TEST(TimeSeries, WindowExactlyAtRunEndIsFull) {
  Registry reg;
  TimeSeries ts(reg, cfg(sim::msec(10)));
  const Window& w = ts.close_window(sim::msec(10), /*partial=*/false);
  EXPECT_FALSE(w.partial);
  EXPECT_DOUBLE_EQ(w.seconds(), 0.01);
}

TEST(TimeSeries, WindowQuantilesMatchRegistryHistogramMath) {
  Registry reg;
  auto& h = reg.histogram("lat", default_latency_buckets_ms());
  // All observations land in one window, so the window-local quantile must
  // equal histogram_quantile over the Registry's own cumulative buckets.
  for (double v : {0.2, 0.7, 3.0, 8.0, 40.0, 40.0, 90.0, 600.0}) h.observe(v);

  TimeSeries ts(reg, cfg(sim::msec(10)));
  const Window& w = ts.close_window(sim::msec(10));
  ASSERT_EQ(w.hists.count("lat"), 1u);
  const WindowHistogram& wh = w.hists.at("lat");
  EXPECT_EQ(wh.count, h.count());
  EXPECT_DOUBLE_EQ(wh.sum, h.sum());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(wh.quantile(q),
                     histogram_quantile(h.bounds(), h.cumulative(), q))
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(*reduce_window(w, "lat", "mean"), h.sum() / h.count());
  // delta/rate on a histogram name read the window observation count.
  EXPECT_DOUBLE_EQ(*reduce_window(w, "lat", "delta"), double(h.count()));
}

TEST(TimeSeries, HistogramWindowsAreDeltas) {
  Registry reg;
  auto& h = reg.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(50.0);
  TimeSeries ts(reg, cfg(sim::msec(10)));
  ts.close_window(sim::msec(10));

  h.observe(5.0);  // the only observation of window 2
  const Window& w2 = ts.close_window(sim::msec(20));
  const WindowHistogram& wh = w2.hists.at("lat");
  EXPECT_EQ(wh.count, 1);
  EXPECT_DOUBLE_EQ(wh.sum, 5.0);
  ASSERT_EQ(wh.cum.size(), 4u);  // 3 finite bounds + inf
  EXPECT_EQ(wh.cum[0], 0);       // <= 1
  EXPECT_EQ(wh.cum[1], 1);       // <= 10
  EXPECT_EQ(wh.cum[3], 1);

  // A quiet histogram disappears from subsequent windows entirely.
  const Window& w3 = ts.close_window(sim::msec(30));
  EXPECT_EQ(w3.hists.count("lat"), 0u);
  EXPECT_FALSE(reduce_window(w3, "lat", "p99").has_value());
}

TEST(TimeSeries, WindowHistogramKeepsExactBounds) {
  // A bound with more significant digits than a "%g" rendering keeps: the
  // window reads the Histogram itself, so nothing rounds it.
  Registry reg;
  TimeSeries ts(reg, cfg(sim::msec(10)));
  reg.histogram("lat", {1.2345678, 3.0}).observe(1.0);
  const Window& w = ts.close_window(sim::msec(10));
  ASSERT_EQ(w.hists.count("lat"), 1u);
  const WindowHistogram& h = w.hists.at("lat");
  EXPECT_EQ(h.bounds, (std::vector<double>{1.2345678, 3.0}));
  // The one observation fills the first bucket, whose top is the bound.
  EXPECT_EQ(h.quantile(1.0), 1.2345678);
  EXPECT_EQ(*reduce_window(w, "lat", "p99"),
            histogram_quantile({1.2345678, 3.0}, {1, 1, 1}, 0.99));
}

TEST(TimeSeries, QuantileClampsToLastFiniteBound) {
  // Observations past the top bucket have no upper edge to interpolate to.
  std::vector<double> bounds{1.0, 10.0};
  std::vector<std::int64_t> cum{0, 0, 5};  // all 5 beyond 10
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, cum, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, cum, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(histogram_quantile({}, {}, 0.5), 0.0);  // empty
}

// ---- Oracle: the map-keyed close_window the handle version replaced ----

/// The pre-handle algorithm, kept as the reference: every close builds a
/// fresh Window, looks each instrument's previous state up by name, and
/// copies every histogram's bounds and cumulative buckets.
class ReferenceTimeSeries {
 public:
  Window close_window(const Registry& registry, sim::SimTime end,
                      bool partial) {
    Window w;
    w.index = next_index_++;
    w.start = last_end_;
    w.end = end;
    w.partial = partial;
    const auto scalar = [&](const std::string& name, double value) {
      double& prev = prev_scalar_[name];  // 0 before the first close
      w.series.emplace_hint(w.series.end(), name,
                            SeriesPoint{value, value - prev});
      prev = value;
    };
    registry.for_each(
        [&](const std::string& name, const Counter& c) {
          scalar(name, static_cast<double>(c.value()));
        },
        [&](const std::string& name, const Gauge& g) {
          scalar(name, g.value());
        },
        [&](const std::string& name, const Histogram& hist) {
          HistState& prev = prev_hist_[name];
          std::vector<std::int64_t> cum = hist.cumulative();
          WindowHistogram h;
          h.bounds = hist.bounds();
          h.cum = cum;
          for (std::size_t b = 0; b < prev.cum.size(); ++b) {
            h.cum[b] -= prev.cum[b];
          }
          h.count = h.cum.back();
          h.sum = hist.sum() - prev.sum;
          prev = {std::move(cum), hist.sum()};
          if (h.count > 0) {
            w.hists.emplace_hint(w.hists.end(), name, std::move(h));
          }
        });
    last_end_ = end;
    return w;
  }

 private:
  struct HistState {
    std::vector<std::int64_t> cum;
    double sum = 0.0;
  };
  std::uint64_t next_index_ = 0;
  sim::SimTime last_end_ = 0;
  std::map<std::string, double> prev_scalar_;
  std::map<std::string, HistState> prev_hist_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Empty when the windows agree exactly (doubles bit for bit), else the
/// first difference.
std::string diff_windows(const Window& got, const Window& want) {
  std::ostringstream os;
  if (got.index != want.index || got.start != want.start ||
      got.end != want.end || got.partial != want.partial) {
    os << "header differs at window " << want.index;
    return os.str();
  }
  if (got.series.size() != want.series.size()) {
    os << "series count " << got.series.size() << " != "
       << want.series.size();
    return os.str();
  }
  for (auto g = got.series.begin(), e = want.series.begin();
       g != got.series.end(); ++g, ++e) {
    if (g->first != e->first || !same_bits(g->second.value, e->second.value) ||
        !same_bits(g->second.delta, e->second.delta)) {
      os << "series " << e->first << ": got " << g->first << " {"
         << g->second.value << ", " << g->second.delta << "} want {"
         << e->second.value << ", " << e->second.delta << "}";
      return os.str();
    }
  }
  if (got.hists.size() != want.hists.size()) {
    os << "hists count " << got.hists.size() << " != " << want.hists.size();
    return os.str();
  }
  for (auto g = got.hists.begin(), e = want.hists.begin();
       g != got.hists.end(); ++g, ++e) {
    if (g->first != e->first || g->second.bounds != e->second.bounds ||
        g->second.cum != e->second.cum || g->second.count != e->second.count ||
        !same_bits(g->second.sum, e->second.sum)) {
      os << "hist " << e->first << " differs (got " << g->first << ")";
      return os.str();
    }
  }
  return {};
}

/// The full-map line renderer write_stream_line replaced, kept as the
/// reference: it walks every series and skips the flat ones.
std::string reference_stream_line(const Window& w,
                                  const std::string& alerts_json,
                                  const std::vector<std::string>& exemplars) {
  std::string line = "{\"schema\":\"strings.stream.v1\",\"window\":";
  line += std::to_string(w.index);
  line += ",\"start_ms\":";
  json::append_number(&line, sim::to_millis(w.start));
  line += ",\"end_ms\":";
  json::append_number(&line, sim::to_millis(w.end));
  if (w.partial) line += ",\"partial\":true";
  line += ",\"series\":{";
  bool first = true;
  for (const auto& [name, p] : w.series) {
    if (p.delta == 0.0) continue;
    if (!first) line += ',';
    first = false;
    json::append_string(&line, name);
    line += ":{\"value\":";
    json::append_number(&line, p.value);
    line += ",\"delta\":";
    json::append_number(&line, p.delta);
    line += '}';
  }
  line += "},\"quantiles\":{";
  first = true;
  for (const auto& [name, h] : w.hists) {
    if (!first) line += ',';
    first = false;
    json::append_string(&line, name);
    line += ":{\"count\":" + std::to_string(h.count) + ",\"sum\":";
    json::append_number(&line, h.sum);
    for (const auto& [key, q] : {std::pair{",\"p50\":", 0.50},
                                 std::pair{",\"p95\":", 0.95},
                                 std::pair{",\"p99\":", 0.99}}) {
      line += key;
      json::append_number(&line, h.quantile(q));
    }
    line += '}';
  }
  line += '}';
  if (!alerts_json.empty()) line += ",\"alerts\":" + alerts_json;
  if (!exemplars.empty()) {
    line += ",\"exemplars\":[";
    for (std::size_t i = 0; i < exemplars.size(); ++i) {
      if (i != 0) line += ',';
      json::append_string(&line, exemplars[i]);
    }
    line += ']';
  }
  return line + "}\n";
}

TEST(TimeSeries, InPlaceWindowsMatchMapKeyedReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    const auto chance = [&rng](int percent) {
      return static_cast<int>(rng() % 100) < percent;
    };
    Registry reg;
    TimeSeries ts(reg, cfg(sim::msec(10)));
    ReferenceTimeSeries ref;

    // Names are unique across kinds; prefixes interleave the kinds in the
    // registry's merged name order.
    std::vector<Counter*> counters;
    std::vector<Gauge*> gauges;
    std::vector<Histogram*> hists;
    std::vector<std::string> gauge_names;
    // Cells behind gauge_fn callbacks; unique_ptr keeps them in place.
    std::vector<std::unique_ptr<double>> cells;
    int next_name = 0;
    const auto fresh_name = [&] {
      static const char* kPrefixes[] = {"a/", "m/", "node0/", "tenant/", "z/"};
      return std::string(kPrefixes[pick(5)]) + std::to_string(next_name++);
    };
    const auto add_instrument = [&] {
      switch (pick(4)) {
        case 0:
          counters.push_back(&reg.counter(fresh_name()));
          break;
        case 1:
          gauge_names.push_back(fresh_name());
          gauges.push_back(&reg.gauge(gauge_names.back()));
          break;
        case 2: {
          cells.push_back(std::make_unique<double>(double(pick(50))));
          gauge_names.push_back(fresh_name());
          double* cell = cells.back().get();
          reg.gauge_fn(gauge_names.back(), [cell] { return *cell; });
          gauges.push_back(&reg.gauge(gauge_names.back()));
          break;
        }
        default: {
          std::vector<double> bounds;
          for (std::size_t b = 0, n = pick(6); b < n; ++b) {
            bounds.push_back(double(pick(1000)) / 10.0);
          }
          hists.push_back(&reg.histogram(fresh_name(), bounds));
        }
      }
    };
    for (int i = 0; i < 6; ++i) add_instrument();

    sim::SimTime now = 0;
    for (int window = 0; window < 400; ++window) {
      // Histograms that go idle: for a stretch of windows only some of
      // them receive observations.
      const std::size_t active_hists = pick(hists.size() + 1);
      for (std::size_t op = 0, n = pick(24); op < n; ++op) {
        const int kind = static_cast<int>(pick(100));
        if (kind < 30 && !counters.empty()) {
          counters[pick(counters.size())]->inc(
              static_cast<std::int64_t>(1 + pick(5)));
        } else if (kind < 45 && !gauges.empty()) {
          // A set on a callback-backed gauge is shadowed by the callback.
          const double v =
              chance(3) ? std::nan("") : (double(pick(2000)) - 1000.0) / 8.0;
          gauges[pick(gauges.size())]->set(v);
        } else if (kind < 55 && !cells.empty()) {
          *cells[pick(cells.size())] += double(pick(7)) - 3.0;
        } else if (kind < 60 && !gauge_names.empty()) {
          // (Re)bind a callback, possibly onto a settable gauge.
          cells.push_back(std::make_unique<double>(double(pick(100))));
          double* cell = cells.back().get();
          reg.gauge_fn(gauge_names[pick(gauge_names.size())],
                       [cell] { return *cell * 0.5; });
        } else if (kind < 90 && active_hists > 0) {
          hists[pick(active_hists)]->observe(double(pick(1500)) / 10.0);
        } else if (kind < 95) {
          add_instrument();  // the registry grows between closes
        }
      }
      const bool partial = window == 399;
      now += partial ? sim::msec(3) : sim::msec(10);
      const Window want = ref.close_window(reg, now, partial);
      const Window& got = ts.close_window(now, partial);
      const std::string diff = diff_windows(got, want);
      ASSERT_TRUE(diff.empty())
          << "seed " << seed << " window " << window << ": " << diff;
      // The moved-list line matches the full-map walk over the reference
      // window, byte for byte.
      const std::string alerts = chance(10) ? "[{\"rule\":\"r\"}]" : "";
      const std::vector<std::string> exemplars =
          chance(10) ? prof::exemplar_ids_for_window(1 + pick(3), window, 3)
                     : std::vector<std::string>{};
      std::ostringstream line;
      write_stream_line(line, got, alerts, exemplars);
      ASSERT_EQ(line.str(), reference_stream_line(want, alerts, exemplars))
          << "seed " << seed << " window " << window;
    }
    EXPECT_EQ(ts.windows_closed(), 400u);
  }
}

TEST(TimeSeries, ReducerNameValidation) {
  for (const char* r : {"value", "delta", "rate", "mean", "p50", "p95", "p99"})
    EXPECT_TRUE(is_valid_reducer(r)) << r;
  EXPECT_FALSE(is_valid_reducer("p42"));
  EXPECT_FALSE(is_valid_reducer(""));
  EXPECT_FALSE(is_valid_reducer("max"));
}

TEST(TimeSeries, StreamLineIsDeterministicAndOmitsFlatSeries) {
  auto render = [] {
    Registry reg;
    reg.counter("x/changed").inc(4);
    reg.counter("x/flat").inc(1);
    auto& h = reg.histogram("lat", {1.0, 10.0});
    TimeSeries ts(reg, cfg(sim::msec(10)));
    ts.close_window(sim::msec(10));
    reg.counter("x/changed").inc(2);
    h.observe(3.0);
    std::ostringstream os;
    write_stream_line(os, ts.close_window(sim::msec(20)));
    return os.str();
  };
  const std::string a = render();
  EXPECT_EQ(a, render());  // byte-identical across repeated runs
  EXPECT_NE(a.find("\"schema\":\"strings.stream.v1\""), std::string::npos);
  EXPECT_NE(a.find("x/changed"), std::string::npos);
  // x/flat did not move this window, so the line omits it.
  EXPECT_EQ(a.find("x/flat"), std::string::npos);
  EXPECT_NE(a.find("\"lat\""), std::string::npos);
  EXPECT_EQ(a.back(), '\n');
  EXPECT_EQ(a.find('\n'), a.size() - 1);  // exactly one line
}

TEST(TimeSeries, NonFiniteGaugeRendersAsNull) {
  Registry reg;
  reg.gauge_fn("bad", [] { return std::nan(""); });
  TimeSeries ts(reg, cfg(sim::msec(10)));
  std::ostringstream os;
  write_stream_line(os, ts.close_window(sim::msec(10)));
  EXPECT_EQ(os.str().find("nan"), std::string::npos);
  EXPECT_NE(os.str().find("null"), std::string::npos);
}

}  // namespace
}  // namespace strings::obs
