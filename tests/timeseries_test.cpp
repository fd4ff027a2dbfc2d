// obs::TimeSeries — the windowed-aggregation contract: tumbling windows
// over the cumulative Registry, delta/rate reducers, window-local
// histogram quantiles that agree with the whole-run Registry math, a
// bounded retention ring, and a deterministic JSONL rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "simcore/sim_time.hpp"

namespace strings::obs {
namespace {

TimeSeries::Config cfg(sim::SimTime window, std::size_t retain = 256) {
  TimeSeries::Config c;
  c.window = window;
  c.retain = retain;
  return c;
}

TEST(TimeSeries, EmptyWindowStillCloses) {
  Registry reg;
  TimeSeries ts(cfg(sim::msec(10)));
  const Window& w = ts.close_window(reg, sim::msec(10));
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
  TimeSeries ts(cfg(sim::msec(10)));
  reg.counter("a/b").inc(3);
  const Window& w1 = ts.close_window(reg, sim::msec(10));
  ASSERT_EQ(w1.series.count("a/b"), 1u);
  EXPECT_DOUBLE_EQ(w1.series.at("a/b").value, 3.0);
  // First sighting: the whole cumulative value is this window's delta.
  EXPECT_DOUBLE_EQ(w1.series.at("a/b").delta, 3.0);

  reg.counter("a/b").inc(2);
  const Window& w2 = ts.close_window(reg, sim::msec(20));
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
  TimeSeries ts(cfg(sim::msec(10)));
  reg.counter("flat").inc(7);
  ts.close_window(reg, sim::msec(10));
  const Window& w2 = ts.close_window(reg, sim::msec(20));
  // Rule evaluation must still see the series even when nothing changed.
  ASSERT_EQ(w2.series.count("flat"), 1u);
  EXPECT_DOUBLE_EQ(w2.series.at("flat").value, 7.0);
  EXPECT_DOUBLE_EQ(w2.series.at("flat").delta, 0.0);
}

TEST(TimeSeries, PartialWindowAtRunEnd) {
  Registry reg;
  TimeSeries ts(cfg(sim::msec(10)));
  reg.counter("c").inc();
  ts.close_window(reg, sim::msec(10));
  reg.counter("c").inc();
  // The run drained 3 ms into the next window: close it partial.
  const Window& w = ts.close_window(reg, sim::msec(13), /*partial=*/true);
  EXPECT_TRUE(w.partial);
  EXPECT_EQ(w.start, sim::msec(10));
  EXPECT_EQ(w.end, sim::msec(13));
  EXPECT_DOUBLE_EQ(w.series.at("c").delta, 1.0);
  // Rate uses the actual (short) window span, not the configured width.
  EXPECT_DOUBLE_EQ(*reduce_window(w, "c", "rate"), 1.0 / 0.003);
}

TEST(TimeSeries, WindowExactlyAtRunEndIsFull) {
  Registry reg;
  TimeSeries ts(cfg(sim::msec(10)));
  const Window& w = ts.close_window(reg, sim::msec(10), /*partial=*/false);
  EXPECT_FALSE(w.partial);
  EXPECT_DOUBLE_EQ(w.seconds(), 0.01);
}

TEST(TimeSeries, WindowQuantilesMatchRegistryHistogramMath) {
  Registry reg;
  auto& h = reg.histogram("lat", default_latency_buckets_ms());
  // All observations land in one window, so the window-local quantile must
  // equal histogram_quantile over the Registry's own cumulative buckets.
  for (double v : {0.2, 0.7, 3.0, 8.0, 40.0, 40.0, 90.0, 600.0}) h.observe(v);

  TimeSeries ts(cfg(sim::msec(10)));
  const Window& w = ts.close_window(reg, sim::msec(10));
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
  TimeSeries ts(cfg(sim::msec(10)));
  ts.close_window(reg, sim::msec(10));

  h.observe(5.0);  // the only observation of window 2
  const Window& w2 = ts.close_window(reg, sim::msec(20));
  const WindowHistogram& wh = w2.hists.at("lat");
  EXPECT_EQ(wh.count, 1);
  EXPECT_DOUBLE_EQ(wh.sum, 5.0);
  ASSERT_EQ(wh.cum.size(), 4u);  // 3 finite bounds + inf
  EXPECT_EQ(wh.cum[0], 0);       // <= 1
  EXPECT_EQ(wh.cum[1], 1);       // <= 10
  EXPECT_EQ(wh.cum[3], 1);

  // A quiet histogram disappears from subsequent windows entirely.
  const Window& w3 = ts.close_window(reg, sim::msec(30));
  EXPECT_EQ(w3.hists.count("lat"), 0u);
  EXPECT_FALSE(reduce_window(w3, "lat", "p99").has_value());
}

TEST(TimeSeries, WindowHistogramKeepsExactBounds) {
  // A bound with more significant digits than a "%g" rendering keeps: the
  // window reads the Histogram itself, so nothing rounds it.
  Registry reg;
  TimeSeries ts(cfg(sim::msec(10)));
  reg.histogram("lat", {1.2345678, 3.0}).observe(1.0);
  const Window& w = ts.close_window(reg, sim::msec(10));
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

TEST(TimeSeries, RetentionRingIsBounded) {
  Registry reg;
  TimeSeries ts(cfg(sim::msec(1), /*retain=*/4));
  for (int i = 1; i <= 10; ++i) ts.close_window(reg, sim::msec(i));
  EXPECT_EQ(ts.windows_closed(), 10u);
  ASSERT_EQ(ts.windows().size(), 4u);
  EXPECT_EQ(ts.windows().front().index, 6u);  // oldest retained
  EXPECT_EQ(ts.windows().back().index, 9u);
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
    TimeSeries ts(cfg(sim::msec(10)));
    ts.close_window(reg, sim::msec(10));
    reg.counter("x/changed").inc(2);
    h.observe(3.0);
    std::ostringstream os;
    write_stream_line(os, ts.close_window(reg, sim::msec(20)));
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
  TimeSeries ts(cfg(sim::msec(10)));
  std::ostringstream os;
  write_stream_line(os, ts.close_window(reg, sim::msec(10)));
  EXPECT_EQ(os.str().find("nan"), std::string::npos);
  EXPECT_NE(os.str().find("null"), std::string::npos);
}

}  // namespace
}  // namespace strings::obs
