// Unit tests for the observability layer: the metrics registry, the tracer's
// track/event model and request-lifecycle records, the Chrome trace-event
// export, and the shared %.17g number formatter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
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
  t.gpu_op(3, Tracer::kKL, sim::usec(10), sim::usec(30));
  t.gpu_op(3, Tracer::kH2D, sim::usec(2), sim::usec(6));
  t.gpu_op(3, Tracer::kD2H, sim::usec(31), sim::usec(34));
  ASSERT_EQ(t.events().size(), 3u);
  const auto& kl = t.events()[0];
  const auto& h2d = t.events()[1];
  EXPECT_EQ(t.name(kl.name), "KL");
  EXPECT_NE(kl.track, h2d.track);  // compute vs copy track
  EXPECT_EQ(t.events()[2].track, h2d.track);
  EXPECT_EQ(kl.dur, sim::usec(20));
  // Ops on unregistered GPUs are dropped, not crashed on.
  t.gpu_op(99, Tracer::kKL, 0, 1);
  EXPECT_EQ(t.events().size(), 3u);
}

TEST(Tracer, DispatcherEventsAreInstants) {
  Tracer t;
  t.register_gpu(0, 0, "Quadro 2000");
  t.dispatcher_event(0, /*wake=*/true, sim::usec(5));
  t.dispatcher_event(0, /*wake=*/false, sim::usec(9));
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].type, Tracer::EventType::kInstant);
  EXPECT_EQ(t.name(t.events()[0].name), "dispatch.wake");
  EXPECT_EQ(t.name(t.events()[1].name), "dispatch.sleep");
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
  EXPECT_EQ(t.name(umbrella.name), "request MC");
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
  std::string encoded;
  r.append_steps(&encoded);
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
  t.gpu_op(0, Tracer::kKL, sim::usec(1) + 500, sim::usec(4));  // sub-µs start
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

// ---- Oracle: the string-based recorder and renderer the records replaced ----

/// An event as the string-based Tracer stored it: its own name, and every
/// arg formatted to text when it was recorded.
struct RefEvent {
  Tracer::EventType type = Tracer::EventType::kComplete;
  int track = -1;
  std::string name;
  sim::SimTime ts = 0;
  sim::SimTime dur = 0;
  double value = 0.0;
  std::vector<std::pair<std::string, std::string>> args;
};

std::string ref_fmt_us(sim::SimTime ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

void ref_write_args(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& args) {
  os << "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) os << ',';
    os << json::quote(args[i].first) << ':' << json::quote(args[i].second);
  }
  os << '}';
}

void ref_write_counter(std::ostream& os, const Tracer::Track& t,
                       const std::string& name, sim::SimTime ts,
                       double value) {
  std::string val;
  json::append_number(&val, value);
  os << "{\"ph\":\"C\",\"name\":" << json::quote(name)
     << ",\"pid\":" << t.pid << ",\"tid\":" << t.tid
     << ",\"ts\":" << ref_fmt_us(ts) << ",\"args\":{\"value\":" << val << "}}";
}

/// write_chrome_trace as it was before records: an ostream, a json::quote
/// temporary per string and snprintf per timestamp. The track registry,
/// metadata, requests and occupants come from `tracer`, whose shapes did
/// not change; the events come from the string-based recorder.
std::string reference_chrome_trace(const Tracer& tracer,
                                   const std::vector<RefEvent>& events) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  if (!tracer.meta().empty()) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"strings_run_config\",\"pid\":0,"
          "\"tid\":0,";
    std::vector<std::pair<std::string, std::string>> meta_args;
    for (const auto& [k, v] : tracer.meta()) meta_args.emplace_back(k, v);
    ref_write_args(os, meta_args);
    os << '}';
  }
  const auto& procs = tracer.processes();
  for (std::size_t pid = 0; pid < procs.size(); ++pid) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":" << json::quote(procs[pid].name)
       << "}}";
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"sort_index\":" << procs[pid].sort_index
       << "}}";
  }
  for (const auto& t : tracer.tracks()) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << t.pid
       << ",\"tid\":" << t.tid << ",\"args\":{\"name\":"
       << json::quote(t.name) << "}}";
  }
  const auto& tracks = tracer.tracks();
  std::vector<int> dispatch_of(tracks.size(), -1);
  for (const auto& [gid, g] : tracer.gpu_tracks()) {
    dispatch_of[static_cast<std::size_t>(g.compute)] = g.dispatch;
    dispatch_of[static_cast<std::size_t>(g.copy)] = g.dispatch;
  }
  std::map<int, std::vector<std::pair<sim::SimTime, sim::SimTime>>> busy;
  for (const auto& e : events) {
    const auto& t = tracks[static_cast<std::size_t>(e.track)];
    sep();
    switch (e.type) {
      case Tracer::EventType::kComplete:
        if (const int d = dispatch_of[static_cast<std::size_t>(e.track)];
            d >= 0 && e.dur > 0) {
          busy[d].emplace_back(e.ts, e.ts + e.dur);
        }
        os << "{\"ph\":\"X\",\"name\":" << json::quote(e.name)
           << ",\"pid\":" << t.pid << ",\"tid\":" << t.tid
           << ",\"ts\":" << ref_fmt_us(e.ts) << ",\"dur\":"
           << ref_fmt_us(e.dur) << ',';
        ref_write_args(os, e.args);
        os << '}';
        break;
      case Tracer::EventType::kInstant:
        os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":" << json::quote(e.name)
           << ",\"pid\":" << t.pid << ",\"tid\":" << t.tid
           << ",\"ts\":" << ref_fmt_us(e.ts) << ',';
        ref_write_args(os, e.args);
        os << '}';
        break;
      case Tracer::EventType::kCounter:
        ref_write_counter(os, t, e.name, e.ts, e.value);
        break;
    }
  }
  for (auto& [d, spans] : busy) {
    const auto& t = tracks[static_cast<std::size_t>(d)];
    auto emit = [&](sim::SimTime begin, sim::SimTime end) {
      sep();
      ref_write_counter(os, t, "util", begin, 1.0);
      sep();
      ref_write_counter(os, t, "util", end, 0.0);
    };
    std::sort(spans.begin(), spans.end());
    sim::SimTime begin = spans.front().first, end = spans.front().second;
    for (const auto& [span_begin, span_end] : spans) {
      if (span_begin > end) {
        emit(begin, end);
        begin = span_begin;
      }
      end = std::max(end, span_end);
    }
    emit(begin, end);
  }
  if (tracer.forensics_enabled() && !tracer.occupants().empty()) {
    const int fpid = static_cast<int>(procs.size());
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << fpid
       << ",\"tid\":0,\"args\":{\"name\":\"forensics\"}}";
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":" << fpid
       << ",\"tid\":0,\"args\":{\"sort_index\":2000}}";
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << fpid
       << ",\"tid\":0,\"args\":{\"name\":\"occupants\"}}";
    for (const auto& s : tracer.occupants()) {
      sep();
      os << "{\"ph\":\"X\",\"name\":\"occ\",\"pid\":" << fpid
         << ",\"tid\":0,\"ts\":" << ref_fmt_us(s.begin)
         << ",\"dur\":" << ref_fmt_us(s.end - s.begin) << ',';
      ref_write_args(os, {{"res", s.resource}, {"tenant", s.tenant}});
      os << '}';
    }
  }
  for (const auto& [app_id, r] : tracer.requests()) {
    if (r.issued_at < 0 || r.completed_at >= 0) continue;
    int pid = 0, tid = 0;
    if (r.track >= 0) {
      const auto& t = tracks[static_cast<std::size_t>(r.track)];
      pid = t.pid;
      tid = t.tid;
    }
    sep();
    os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"request.incomplete\","
          "\"pid\":"
       << pid << ",\"tid\":" << tid << ",\"ts\":" << ref_fmt_us(r.issued_at)
       << ',';
    char w[kG17Chars];
    ref_write_args(os, {{"tenant", r.tenant},
                        {"app_id", std::to_string(app_id)},
                        {"app", r.app_type},
                        {"weight", std::string(format_g17(r.tenant_weight, w))},
                        {"issued", std::to_string(r.issued_at)}});
    os << '}';
  }
  os << "\n]}\n";
  return os.str();
}

/// Drives a Tracer and the string-based reference recorder with the same
/// random calls, each arg passed to the Tracer as a record and to the
/// reference as the text the old call sites formatted.
class TraceFuzzer {
 public:
  explicit TraceFuzzer(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    if (chance(70)) {
      for (int i = 0, n = pick(4); i < n; ++i) t_.set_meta(word(), word());
    }
    if (chance(50)) t_.enable_forensics(1 + pick(40));
    for (int gid = 0, n = pick(4); gid < n; ++gid) {
      t_.register_gpu(gid, pick(3), chance(50) ? word() : "");
    }
    for (int i = 0; i < ops; ++i) step();
  }

  std::string got() const {
    std::ostringstream os;
    write_chrome_trace(t_, os);
    return os.str();
  }
  std::string want() const { return reference_chrome_trace(t_, ref_); }
  const Tracer& tracer() const { return t_; }

 private:
  int pick(int n) {
    return static_cast<int>(rng_() % static_cast<unsigned>(n));
  }
  bool chance(int percent) { return pick(100) < percent; }

  /// Short text over an alphabet that needs every kind of JSON escape.
  std::string word() {
    static const char* kBits[] = {"a", "Z", "7", " ", "/", "\"", "\\", "\n",
                                  "\t", "\x01", "\x1f", "\xc3\xa9", "#"};
    std::string s;
    for (int i = 0, n = pick(6); i < n; ++i) s += kBits[pick(13)];
    return s;
  }
  sim::SimTime time() {
    // Mostly sub-µs and µs values; sometimes negative, as %03lld renders
    // a negative remainder with its sign.
    const auto t = static_cast<sim::SimTime>(rng_() % 5'000'000);
    return chance(3) ? -t : t;
  }
  std::int64_t integer() {
    switch (pick(6)) {
      case 0: return -1;
      case 1: return std::numeric_limits<std::int64_t>::min();
      case 2: return std::numeric_limits<std::int64_t>::max();
      case 3: return -static_cast<std::int64_t>(rng_() % 100000);
      default: return static_cast<std::int64_t>(rng_() % 100000);
    }
  }

  /// Random args, in both forms. `texts` keeps the reference's strings
  /// alive for the TraceArg views into them.
  void make_args(std::vector<TraceArg>* args,
                 std::vector<std::pair<std::string, std::string>>* ref,
                 std::deque<std::string>* texts) {
    for (int i = 0, n = chance(25) ? 0 : pick(5); i < n; ++i) {
      const std::string key = chance(50) ? word() : std::string(t_.name(
                                                        Tracer::kTenant));
      const NameId k = t_.intern(key);
      switch (pick(4)) {
        case 0: {
          const std::int64_t v = integer();
          args->push_back(TraceArg::num(k, v));
          ref->emplace_back(key, std::to_string(v));
          break;
        }
        case 1: {
          const std::string v = word();
          args->push_back(TraceArg::name(k, t_.intern(v)));
          ref->emplace_back(key, v);
          break;
        }
        case 2: {  // fe.departure's %.6f
          char fmt[32];
          std::snprintf(fmt, sizeof fmt, "%.6f",
                        double(rng_() % 10'000'000) / 1e3);
          texts->push_back(fmt);
          args->push_back(TraceArg::str(k, texts->back()));
          ref->emplace_back(key, fmt);
          break;
        }
        default: {  // an SLO alert's std::to_string(double)
          texts->push_back(std::to_string(
              (double(rng_() % 2'000'000) - 1e6) / 7.0));
          args->push_back(TraceArg::str(k, texts->back()));
          ref->emplace_back(key, texts->back());
        }
      }
    }
  }

  /// The tracer's args as an initializer_list-taking call sees them.
  template <typename Call>
  static void with_args(const std::vector<TraceArg>& a, Call call) {
    switch (a.size()) {
      case 0: return call({});
      case 1: return call({a[0]});
      case 2: return call({a[0], a[1]});
      case 3: return call({a[0], a[1], a[2]});
      default: return call({a[0], a[1], a[2], a[3]});
    }
  }

  int some_track() {
    if (t_.tracks().empty() || chance(5)) {
      return t_.add_track(t_.add_process(word(), pick(9) - 4), word());
    }
    return pick(static_cast<int>(t_.tracks().size()));
  }

  void push(Tracer::EventType type, int track, std::string name,
            sim::SimTime ts, sim::SimTime dur, double value,
            std::vector<std::pair<std::string, std::string>> args) {
    if (track < 0) return;
    ref_.push_back({type, track, std::move(name), ts, dur, value,
                    std::move(args)});
  }

  void step() {
    std::vector<TraceArg> args;
    std::vector<std::pair<std::string, std::string>> ref;
    std::deque<std::string> texts;
    // Mostly dense ids, as the testbed hands them out; a few far ones.
    const std::uint64_t app_id = static_cast<std::uint64_t>(pick(12)) +
                                 (chance(10) ? 1'000'000'000'000 : 1);
    switch (pick(12)) {
      case 0: {
        make_args(&args, &ref, &texts);
        const int track = chance(5) ? -1 : some_track();
        const std::string name = word();
        const sim::SimTime start = time(), end = time();
        with_args(args, [&](std::initializer_list<TraceArg> a) {
          t_.complete(track, t_.intern(name), start, end, a);
        });
        push(Tracer::EventType::kComplete, track, name, start,
             end > start ? end - start : 0, 0.0, std::move(ref));
        break;
      }
      case 1: {
        make_args(&args, &ref, &texts);
        const int track = some_track();
        const std::string name = word();
        const sim::SimTime ts = time();
        with_args(args, [&](std::initializer_list<TraceArg> a) {
          t_.instant(track, t_.intern(name), ts, a);
        });
        push(Tracer::EventType::kInstant, track, name, ts, 0, 0.0,
             std::move(ref));
        break;
      }
      case 2: {
        const int track = some_track();
        const std::string name = word();
        const sim::SimTime ts = time();
        const double v = chance(10) ? std::nan("")
                                    : (double(pick(20000)) - 1e4) / 3.0;
        t_.counter(track, t_.intern(name), ts, v);
        push(Tracer::EventType::kCounter, track, name, ts, 0, v, {});
        break;
      }
      case 3: {  // engine residency spans, which also feed `util`
        make_args(&args, &ref, &texts);
        const int gid = pick(5);
        const int k = pick(3);
        const NameId kind[] = {Tracer::kKL, Tracer::kH2D, Tracer::kD2H};
        const char* kind_name[] = {"KL", "H2D", "D2H"};
        const sim::SimTime start = time() & 0xffffff;
        const sim::SimTime end = start + (rng_() % 40000);
        with_args(args, [&](std::initializer_list<TraceArg> a) {
          t_.gpu_op(gid, kind[k], start, end, a);
        });
        if (const auto it = t_.gpu_tracks().find(gid);
            it != t_.gpu_tracks().end()) {
          push(Tracer::EventType::kComplete,
               kind_name[k][0] == 'K' ? it->second.compute : it->second.copy,
               kind_name[k], start, end > start ? end - start : 0, 0.0,
               std::move(ref));
        }
        break;
      }
      case 4: {
        make_args(&args, &ref, &texts);
        const int gid = pick(5);
        const bool wake = chance(50);
        const sim::SimTime ts = time();
        with_args(args, [&](std::initializer_list<TraceArg> a) {
          t_.dispatcher_event(gid, wake, ts, a);
        });
        if (const auto it = t_.gpu_tracks().find(gid);
            it != t_.gpu_tracks().end()) {
          push(Tracer::EventType::kInstant, it->second.dispatch,
               wake ? "dispatch.wake" : "dispatch.sleep", ts, 0, 0.0,
               std::move(ref));
        }
        break;
      }
      case 5: {
        const int gid = pick(5);
        const sim::SimTime ts = time();
        const double depth = pick(9);
        t_.gpu_counter(gid, Tracer::kQueueDepth, ts, depth);
        if (const auto it = t_.gpu_tracks().find(gid);
            it != t_.gpu_tracks().end()) {
          push(Tracer::EventType::kCounter, it->second.dispatch,
               "queue_depth", ts, 0, depth, {});
        }
        break;
      }
      case 6: {
        const int from = pick(3), to = pick(3);
        const sim::SimTime start = time(), end = start + pick(5000);
        const auto seq = static_cast<std::int64_t>(rng_() % 1000);
        const int track = t_.link_track(from, to);
        t_.complete(track, t_.intern("strings.x"), start, end,
                    {TraceArg::num(Tracer::kSeq, seq),
                     TraceArg::num(Tracer::kBytes, 24 + seq)});
        push(Tracer::EventType::kComplete, track, "strings.x", start,
             end - start, 0.0,
             {{"seq", std::to_string(seq)},
              {"bytes", std::to_string(24 + seq)}});
        break;
      }
      case 7: {
        const std::string app = word(), tenant = word();
        t_.begin_request(app_id, app, tenant, pick(3), time() & 0xffff,
                         chance(50) ? 1.0 : double(1 + pick(40)) / 8.0);
        break;
      }
      case 8:
        // No phase follows a request's completion, as on the real stack.
        if (const RequestTrace* r = t_.find_request(app_id);
            r == nullptr || r->completed_at < 0) {
          t_.request_phase(app_id, static_cast<ReqPhase>(pick(10)), time());
        }
        break;
      case 9:
        t_.request_bound(app_id, pick(4) - 1, pick(3) - 1);
        if (chance(30)) t_.request_track(app_id);
        break;
      case 10: {
        const RequestTrace* before = t_.find_request(app_id);
        const bool umbrella = before != nullptr && before->issued_at >= 0 &&
                              before->completed_at < 0;
        const sim::SimTime now = time() & 0xfffff;
        t_.end_request(app_id, now);
        if (umbrella) {
          const RequestTrace& r = *t_.find_request(app_id);
          std::string steps;  // the encoding at completion, as it was
          r.append_steps(&steps);
          char w[kG17Chars];
          push(Tracer::EventType::kComplete, r.track, "request " + r.app_type,
               r.issued_at, now > r.issued_at ? now - r.issued_at : 0, 0.0,
               {{"tenant", r.tenant},
                {"app_id", std::to_string(r.app_id)},
                {"origin", std::to_string(r.origin_node)},
                {"gid", std::to_string(r.bound_gid)},
                {"node", std::to_string(r.bound_node)},
                {"weight", std::string(format_g17(r.tenant_weight, w))},
                {"issued", std::to_string(r.issued_at)},
                {"completed", std::to_string(r.completed_at)},
                {"steps", steps}});
        }
        break;
      }
      default: {
        const sim::SimTime begin = time() & 0xffffff;
        t_.occupant(word(), word(), begin, begin + pick(3000) - 100);
      }
    }
  }

  std::mt19937_64 rng_;
  Tracer t_;
  std::vector<RefEvent> ref_;
};

TEST(Export, ChromeTraceMatchesStringBasedReference) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    TraceFuzzer f(seed);
    f.run(static_cast<int>(50 + seed * 7));
    ASSERT_EQ(f.got(), f.want()) << "seed " << seed;
  }
}

TEST(Export, OracleCoversWhatItClaims) {
  // The fuzzer's traces hold every event kind, incomplete requests, and
  // occupant stamps, so the byte comparison above is not vacuous.
  bool incomplete = false, occupants = false, umbrella = false, util = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    TraceFuzzer f(seed);
    f.run(static_cast<int>(50 + seed * 7));
    const std::string out = f.got();
    incomplete |= out.find("request.incomplete") != std::string::npos;
    occupants |= out.find("\"name\":\"occ\"") != std::string::npos;
    umbrella |= out.find("\"steps\":\"issue@") != std::string::npos;
    util |= out.find("\"name\":\"util\"") != std::string::npos;
  }
  EXPECT_TRUE(incomplete);
  EXPECT_TRUE(occupants);
  EXPECT_TRUE(umbrella);
  EXPECT_TRUE(util);
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
