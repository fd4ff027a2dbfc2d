// Unit tests for the observability layer: the metrics registry, the tracer's
// track/event model and request-lifecycle records, the Chrome trace-event
// export, and the shared %.17g number formatter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/number.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace strings::obs {
namespace {

// ---- Registry ----

TEST(Registry, CounterIsStableAcrossLookups) {
  Registry reg;
  Counter& c = reg.counter("a/b");
  c.inc();
  reg.counter("a/b").inc(4);
  EXPECT_EQ(c.value(), 5);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("a/b"));
  EXPECT_FALSE(reg.contains("a"));
}

TEST(Registry, GaugeSetAndCallback) {
  Registry reg;
  reg.gauge("g").set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 2.5);
  double source = 7.0;
  reg.gauge_fn("poll", [&source] { return source; });
  EXPECT_DOUBLE_EQ(reg.gauge("poll").value(), 7.0);
  source = 9.0;  // polled at read time, not registration time
  EXPECT_DOUBLE_EQ(reg.gauge("poll").value(), 9.0);
}

TEST(Registry, HistogramBucketsAndStats) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(1.0);  // boundary lands in the <= 1.0 bucket
  h.observe(50.0);
  h.observe(1000.0);  // overflow -> +inf bucket only
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 1051.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  const auto cum = h.cumulative();
  ASSERT_EQ(cum.size(), 4u);  // 3 bounds + inf
  EXPECT_EQ(cum[0], 2);       // <= 1
  EXPECT_EQ(cum[1], 2);       // <= 10
  EXPECT_EQ(cum[2], 3);       // <= 100
  EXPECT_EQ(cum[3], 4);       // inf
}

TEST(Registry, HistogramEmptyMinMaxAreZero) {
  Registry reg;
  Histogram& h = reg.histogram("empty", default_latency_buckets_ms());
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Registry, CollectIsLexicographicAcrossKinds) {
  Registry reg;
  reg.counter("z/count").inc(3);
  reg.gauge("a/gauge").set(1.0);
  reg.histogram("m/hist", {5.0}).observe(2.0);
  const auto samples = reg.collect();
  ASSERT_GE(samples.size(), 3u);
  // Names must be non-decreasing regardless of instrument kind.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].metric, samples[i].metric);
  }
  EXPECT_EQ(samples.front().metric, "a/gauge");
  EXPECT_EQ(samples.back().metric, "z/count");
}

TEST(Registry, CsvHasHeaderAndHistogramFields) {
  Registry reg;
  reg.counter("n0/wakes").inc(2);
  reg.histogram("n0/lat", {1.0}).observe(0.5);
  const std::string csv = reg.to_csv();
  EXPECT_EQ(csv.rfind("metric,field,value\n", 0), 0u);
  EXPECT_NE(csv.find("n0/wakes,value,2"), std::string::npos);
  EXPECT_NE(csv.find("n0/lat,count,1"), std::string::npos);
  EXPECT_NE(csv.find("n0/lat,le_1,1"), std::string::npos);
  EXPECT_NE(csv.find("n0/lat,le_inf,1"), std::string::npos);
}

// ---- Tracer ----

TEST(Tracer, ProcessAndTrackRegistryDeduplicates) {
  Tracer t;
  const int p0 = t.add_process("node0");
  EXPECT_EQ(t.add_process("node0"), p0);
  const int a = t.add_track(p0, "alpha");
  const int b = t.add_track(p0, "beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.tracks()[static_cast<std::size_t>(a)].pid, p0);
  // tids are assigned per-process in creation order.
  EXPECT_LT(t.tracks()[static_cast<std::size_t>(a)].tid,
            t.tracks()[static_cast<std::size_t>(b)].tid);
  EXPECT_EQ(t.node_process(0), p0);
}

TEST(Tracer, GpuOpRoutesKernelsAndCopies) {
  Tracer t;
  t.register_gpu(/*gid=*/3, /*node=*/1, "Tesla C2050");
  ASSERT_TRUE(t.has_gpu(3));
  t.gpu_op(3, "KL", sim::usec(10), sim::usec(30));
  t.gpu_op(3, "H2D", sim::usec(2), sim::usec(6));
  t.gpu_op(3, "D2H", sim::usec(31), sim::usec(34));
  ASSERT_EQ(t.events().size(), 3u);
  const auto& kl = t.events()[0];
  const auto& h2d = t.events()[1];
  EXPECT_EQ(kl.name, "KL");
  EXPECT_NE(kl.track, h2d.track);  // compute vs copy track
  EXPECT_EQ(t.events()[2].track, h2d.track);
  EXPECT_EQ(kl.dur, sim::usec(20));
  // Ops on unregistered GPUs are dropped, not crashed on.
  t.gpu_op(99, "KL", 0, 1);
  EXPECT_EQ(t.events().size(), 3u);
}

TEST(Tracer, DispatcherEventsAreInstants) {
  Tracer t;
  t.register_gpu(0, 0, "Quadro 2000");
  t.dispatcher_event(0, /*wake=*/true, sim::usec(5));
  t.dispatcher_event(0, /*wake=*/false, sim::usec(9));
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].type, Tracer::EventType::kInstant);
  EXPECT_EQ(t.events()[0].name, "dispatch.wake");
  EXPECT_EQ(t.events()[1].name, "dispatch.sleep");
}

TEST(Tracer, LinkTracksLiveUnderNetworkProcess) {
  Tracer t;
  const int ab = t.link_track(0, 1);
  EXPECT_EQ(t.link_track(0, 1), ab);   // cached
  EXPECT_NE(t.link_track(1, 0), ab);   // directed
  const auto& track = t.tracks()[static_cast<std::size_t>(ab)];
  EXPECT_EQ(track.name, "n0->n1");
  EXPECT_EQ(t.processes()[static_cast<std::size_t>(track.pid)].name,
            "network");
}

TEST(Tracer, RequestLifecycleRecordsPhases) {
  Tracer t;
  RequestTrace& r =
      t.begin_request(42, "MC", "pricing-svc", /*origin=*/1, sim::usec(1));
  t.request_phase(42, ReqPhase::kBind, sim::usec(2));
  t.request_phase(42, ReqPhase::kMarshal, sim::usec(3));
  t.request_phase(42, ReqPhase::kMarshal, sim::usec(4));
  t.end_request(42, sim::usec(9));
  EXPECT_EQ(r.issued_at, sim::usec(1));
  EXPECT_EQ(r.completed_at, sim::usec(9));
  EXPECT_EQ(r.count(ReqPhase::kBind), 1);
  EXPECT_EQ(r.count(ReqPhase::kMarshal), 2);
  EXPECT_EQ(r.count(ReqPhase::kExecute), 0);
  // end_request emits the umbrella span on the request's own track.
  ASSERT_FALSE(t.events().empty());
  const auto& umbrella = t.events().back();
  EXPECT_EQ(umbrella.track, r.track);
  EXPECT_EQ(umbrella.name, "request MC");
  EXPECT_EQ(umbrella.dur, sim::usec(8));
}

TEST(Tracer, UnknownAppIdCreatesRecordLazily) {
  Tracer t;
  t.request_phase(7, ReqPhase::kBackendQueue, sim::usec(5));
  ASSERT_EQ(t.requests().count(7), 1u);
  EXPECT_EQ(t.requests().at(7).count(ReqPhase::kBackendQueue), 1);
}

TEST(RequestTrace, StepEncodingRoundTripsThousandsOfSteps) {
  std::mt19937_64 rng(20261018);
  RequestTrace r;
  std::string want;  // the std::to_string encoding, built independently
  sim::SimTime at = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto phase = static_cast<ReqPhase>(rng() % 10);
    // Steps of every width, including 0 and times near INT64_MAX.
    at = i == 4999 ? std::numeric_limits<sim::SimTime>::max()
                   : at + static_cast<sim::SimTime>(rng() % (1ull << (i % 40)));
    r.steps.push_back({phase, at});
    if (!want.empty()) want += ';';
    want += std::string(req_phase_name(phase)) + '@' + std::to_string(at);
  }
  const std::string encoded = r.encode_steps();
  EXPECT_EQ(encoded, want);
  const std::vector<RequestTrace::Step> back =
      RequestTrace::decode_steps(encoded);
  ASSERT_EQ(back.size(), r.steps.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(back[i].phase, r.steps[i].phase) << i;
    ASSERT_EQ(back[i].at, r.steps[i].at) << i;
  }
  EXPECT_TRUE(RequestTrace::decode_steps("").empty());
  // Unknown phases and items without '@' are skipped; a bad time throws.
  const auto kept = RequestTrace::decode_steps("bogus@1;bind;execute@-7");
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].phase, ReqPhase::kExecute);
  EXPECT_EQ(kept[0].at, -7);
  EXPECT_THROW(RequestTrace::decode_steps("bind@x"), std::invalid_argument);
}

TEST(ReqPhaseNames, CoverLifecycle) {
  EXPECT_STREQ(req_phase_name(ReqPhase::kIssue), "issue");
  EXPECT_STREQ(req_phase_name(ReqPhase::kDispatchWait), "dispatch_wait");
  EXPECT_STREQ(req_phase_name(ReqPhase::kComplete), "complete");
}

// ---- export ----

TEST(Export, JsonEscapesControlAndQuote) {
  const auto str = [](const std::string& s) {
    std::string out;
    json::append_string(&out, s);
    return out;
  };
  EXPECT_EQ(str("plain"), "\"plain\"");
  EXPECT_EQ(str("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(str("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(str(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Export, ChromeTraceShapeAndTimestamps) {
  Tracer t;
  t.register_gpu(0, 0, "Quadro 2000");
  t.gpu_op(0, "KL", sim::usec(1) + 500, sim::usec(4));  // sub-µs start
  std::ostringstream os;
  write_chrome_trace(t, os);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"node0\""), std::string::npos);
  EXPECT_NE(out.find("gpu0 Quadro 2000 compute"), std::string::npos);
  // ns timestamps render as fractional µs: 1500ns -> 1.500, dur 2500ns.
  EXPECT_NE(out.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":2.500"), std::string::npos);
  // Valid JSON object close.
  EXPECT_EQ(out.back(), '\n');
}

TEST(Export, MetricsCsvRoundTrip) {
  Registry reg;
  reg.counter("x").inc();
  std::ostringstream os;
  write_metrics_csv(reg, os);
  EXPECT_EQ(os.str(), reg.to_csv());
}

// ---- format_g17 ----

std::string printf_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(FormatG17, MatchesPrintfOnSpecialValues) {
  using lim = std::numeric_limits<double>;
  const double neg_nan = -lim::quiet_NaN();
  ASSERT_TRUE(std::signbit(neg_nan));
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.5, 100.0, 1e15, 1e16, 1e17,
      123456789012345678.0, 9007199254740993.0, 1e-5, 1e-4, 0.0001234,
      5e-324, -5e-324, lim::denorm_min(), lim::min(), -lim::min(),
      lim::max(), lim::lowest(), lim::epsilon(), lim::infinity(),
      -lim::infinity(), lim::quiet_NaN(), neg_nan, 6860.762308, 2.0e6,
      // The edges of the integer path, each also negated below: the largest
      // double under 1e17, 2^53 +- 1 (where doubles stop holding every
      // integer), 2^63 and 1e19 (past long long).
      1e17 - 16, 9007199254740991.0, 9007199254740992.0,
      9223372036854775808.0, 1e19};
  char buf[kG17Chars];
  for (const double v : values) {
    EXPECT_EQ(std::string(format_g17(v, buf)), printf_g17(v)) << v;
    EXPECT_EQ(std::string(format_g17(-v, buf)), printf_g17(-v)) << -v;
  }
  EXPECT_EQ(std::string(format_g17(-0.0, buf)), "-0");
  EXPECT_EQ(std::string(format_g17(1e17 - 16, buf)), "99999999999999984");
  EXPECT_EQ(std::string(format_g17(1e17, buf)), "1e+17");
}

TEST(FormatG17, MatchesPrintfOnRandomBitsAndValues) {
  std::mt19937_64 rng(20261017);
  std::uniform_int_distribution<std::int64_t> ints(-10'000'000, 10'000'000);
  std::uniform_int_distribution<int> scale(0, 12);
  std::uniform_int_distribution<int> magnitude(0, 20);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  char buf[kG17Chars];
  for (int i = 0; i < 200'000; ++i) {
    // Every bit pattern: subnormals, NaN payloads, huge exponents.
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    ASSERT_EQ(std::string(format_g17(v, buf)), printf_g17(v)) << bits;
    // Values the obs artifacts actually carry: counts, ms and ratios.
    const double d = double(ints(rng)) / std::pow(10.0, scale(rng));
    ASSERT_EQ(std::string(format_g17(d, buf)), printf_g17(d)) << d;
    // A signed integer of every magnitude from 10^0 to 10^20, on both
    // sides of the integer path's 1e17 edge.
    const double n = (i % 2 == 0 ? 1.0 : -1.0) *
                     std::floor(mantissa(rng) * std::pow(10.0, magnitude(rng)));
    ASSERT_EQ(std::string(format_g17(n, buf)), printf_g17(n)) << n;
  }
}

}  // namespace
}  // namespace strings::obs
