// Host-time benchmark of the Strings simulator: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir>
//
// Builds the workload from the seed, runs it to drain again and again for
// the given seconds, checks the outputs, and prints one JSON object as the
// last line of stdout. --trace 0 reports the end-to-end metrics of timed
// runs, which install no instrumentation, and makes one traced run at the
// end. --trace 1 interleaves timed runs with traced runs (probe.hpp) and
// reports the per-layer metrics. Either mode fails when any run's
// virtual-time digest differs from the first. README.md holds the metric
// glossary.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "probe.hpp"
#include "workloads.hpp"
#include "workloads/arrivals.hpp"

namespace perfbench {
namespace {

namespace sw = strings::workloads;
namespace sim = strings::sim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Best of N: contention from other work on the host only ever adds time,
/// so the fastest repetition is the steadiest estimate of the code's cost.
/// best_by_segment() below applies the same idea per slice of a run.
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Nearest-rank percentile of sorted values, q in (0, 1].
double nearest_rank(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// The highest of a fixed ladder of percentiles with at least ten samples
/// beyond it (the tail a benchmark can honestly report for n samples).
double tail_quantile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.98, 0.95, 0.9, 0.75}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (n >= rank + 10) return q;
  }
  return 0.5;
}

/// FNV-1a over the virtual-time outputs.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void add(std::int64_t v) { add(&v, sizeof v); }
  void add(const std::string& s) {
    add(static_cast<std::int64_t>(s.size()));
    add(s.data(), s.size());
  }
};

enum class RunKind { kTimed, kTraced, kObsOff };

struct Run {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double export_s = 0.0;
  /// Host seconds of each of kSegments equal slices of virtual time, when
  /// the run was given the virtual end time of an earlier run.
  std::vector<double> segments;
  /// Virtual time of the last real event.
  sim::SimTime end_vt = 0;
  std::uint64_t digest = 0;
  std::int64_t scheduled = 0;
  std::int64_t completed = 0;
  std::int64_t errors = 0;
  /// Virtual-time results and exact counts, by metric name.
  std::map<std::string, double> values;
  double tail_q = 0.0;
  std::size_t samples = 0;
  /// "tenant/app:errors" for every row with failed operations.
  std::string failures;
  LayerTimes layers;
};

/// Everything a run produced that the metrics and checks read.
void collect(sw::Testbed& bed, const std::vector<sw::StreamStats>& rows,
             Run& r) {
  Digest d;
  std::vector<double> responses;
  std::set<std::string> tenants;
  double makespan = 0.0;
  double sum_response = 0.0;
  double sum_service = 0.0;
  for (const auto& row : rows) {
    d.add(row.app);
    d.add(row.tenant);
    d.add(row.completed);
    d.add(row.errors);
    for (const sim::SimTime t : row.response_times) {
      d.add(t);
      responses.push_back(sim::to_seconds(t));
    }
    r.completed += row.completed;
    r.errors += row.errors;
    if (row.errors > 0) {
      r.failures += " " + row.tenant + "/" + row.app + ":" +
                    std::to_string(row.errors);
    }
    tenants.insert(row.tenant);
    makespan = std::max(makespan, sim::to_seconds(row.makespan));
    sum_response += sim::to_seconds(row.total_response);
    sum_service += sim::to_seconds(row.total_service);
  }
  const strings::core::ControlPlaneStats cp = bed.control_plane_stats();
  for (const auto& [app, gid] : cp.placements) {
    d.add(app);
    d.add(gid);
  }
  r.digest = d.h;

  auto& v = r.values;
  std::sort(responses.begin(), responses.end());
  r.samples = responses.size();
  r.tail_q = tail_quantile(responses.size());
  v["vt_makespan_s"] = makespan;
  double sum = 0.0;
  for (const double t : responses) sum += t;
  v["vt_resp_mean_s"] =
      responses.empty() ? 0.0 : sum / static_cast<double>(responses.size());
  v["vt_resp_tail_s"] =
      responses.empty() ? 0.0 : nearest_rank(responses, r.tail_q);
  double sx = 0.0;
  double sxx = 0.0;
  for (const auto& t : tenants) {
    const double x = bed.attained_service_s(t);
    sx += x;
    sxx += x * x;
  }
  v["vt_jain"] =
      sxx > 0.0 ? sx * sx / (static_cast<double>(tenants.size()) * sxx) : 0.0;
  v["workloads.vt_queue_frac"] =
      sum_response > 0.0 ? (sum_response - sum_service) / sum_response : 0.0;

  sim::Simulation& s = bed.simulation();
  v["simcore.events"] = double(s.events_executed());
  v["simcore.fiber_resumes"] = double(s.kernel_stats().fiber_resumes);
  v["simcore.fibers_spawned"] = double(s.kernel_stats().fibers_spawned);
  v["simcore.queue_rebuilds"] = double(s.queue_stats().rebuilds);

  v["core.placement.select_rpcs"] = double(cp.select_rpcs);
  v["core.placement.unbind_rpcs"] = double(cp.unbind_rpcs);
  v["core.placement.sync_rpcs"] = double(cp.sync_rpcs);
  v["core.placement.deltas_sent"] = double(cp.deltas_sent);
  v["core.placement.deltas_applied"] = double(cp.deltas_applied);
  v["core.placement.stale_hits"] = double(cp.stale_hits);
  v["core.placement.delta_gap_syncs"] = double(cp.delta_gap_syncs);
  std::vector<double> lat;
  for (const sim::SimTime t : cp.placement_latencies) {
    lat.push_back(sim::to_millis(t));
  }
  std::sort(lat.begin(), lat.end());
  v["core.placement.latency_p50_vt_ms"] =
      lat.empty() ? 0.0 : nearest_rank(lat, 0.5);

  double kernels = 0.0;
  double copies = 0.0;
  double switches = 0.0;
  double busy_s = 0.0;
  for (int gid = 0; gid < bed.gpu_count(); ++gid) {
    const auto& c = bed.device(gid).counters();
    kernels += double(c.kernels_completed);
    copies += double(c.copies_completed);
    switches += double(c.context_switches);
    busy_s += sim::to_seconds(c.compute_busy_time);
  }
  v["gpu.kernels"] = kernels;
  v["gpu.copies"] = copies;
  v["gpu.context_switches"] = switches;
  v["gpu.compute_busy_frac"] =
      makespan > 0.0 ? busy_s / (makespan * bed.gpu_count()) : 0.0;

  double packets = double(cp.packets_sent);
  double bytes = double(cp.bytes_sent);
  for (int n = 0; n < bed.node_count(); ++n) {
    packets += double(bed.daemon(n).wire_packets());
    bytes += double(bed.daemon(n).wire_bytes());
  }
  v["rpc.packets_sent"] = packets;
  v["rpc.bytes_sent"] = bytes;

  v["obs.trace_events"] =
      bed.tracer() != nullptr ? double(bed.tracer()->events().size()) : 0.0;
  v["obs.stream_windows"] = bed.timeseries() != nullptr
                                ? double(bed.timeseries()->windows_closed())
                                : 0.0;
  v["obs.instruments"] = double(bed.metrics_registry().size());
}

constexpr int kSegments = 100;

/// Writes the run's obs artifacts next to `prefix`: the metrics CSV always,
/// the stream JSONL and Chrome trace when the run streamed or traced.
void export_artifacts(sw::Testbed& bed, const std::string& stream_lines,
                      const std::string& prefix) {
  if (bed.timeseries() != nullptr) {
    std::ofstream out(prefix + ".stream.jsonl");
    out << stream_lines;
    if (!out) {
      throw std::runtime_error("cannot write " + prefix + ".stream.jsonl");
    }
  }
  if (bed.tracer() != nullptr &&
      !strings::obs::write_chrome_trace_file(*bed.tracer(),
                                             prefix + ".trace.json")) {
    throw std::runtime_error("cannot write " + prefix + ".trace.json");
  }
  if (!strings::obs::write_metrics_csv_file(bed.metrics_registry(),
                                            prefix + ".metrics.csv")) {
    throw std::runtime_error("cannot write " + prefix + ".metrics.csv");
  }
}

/// Best of N per slice: the sum over the run's virtual-time slices of the
/// fastest timed repetition of each slice. The repetitions replay identical
/// events, so each slice is the same work every time; taking the best per
/// slice filters out bursts of contention far shorter than a whole run.
double best_by_segment(const std::vector<Run>& runs) {
  double sum = 0.0;
  for (int k = 0; k < kSegments; ++k) {
    double fastest = 0.0;
    bool any = false;
    for (const Run& r : runs) {
      if (r.segments.size() != static_cast<std::size_t>(kSegments)) continue;
      const double t = r.segments[static_cast<std::size_t>(k)];
      fastest = any ? std::min(fastest, t) : t;
      any = true;
    }
    sum += fastest;
  }
  return sum;
}

/// Builds `name` for `seed` and runs it to drain; a traced run also exports
/// its obs artifacts into `out`. With `drain` false it stops after set-up.
/// With `end_vt` > 0 (an earlier run's end) it also times kSegments slices
/// of the run: run_until() up to a time before the last real event executes
/// exactly the events run() would, so the slices change nothing.
Run run_once(const std::string& name, std::uint64_t seed, RunKind kind,
             const std::string& out, bool drain = true,
             sim::SimTime end_vt = 0) {
  Run r;
  const Clock::time_point t0 = Clock::now();
  Workload w = make_workload(name, seed);
  sw::ScenarioConfig& sc = w.scenario;
  if (kind == RunKind::kObsOff) {
    sc.testbed.trace = false;
    sc.testbed.stream = false;
  }
  const sw::TestbedConfig tb =
      kind == RunKind::kTraced ? traced_config(sc.testbed) : sc.testbed;
  sim::Simulation sim;
  sw::Testbed bed(sim, tb);
  // Stream lines are rendered during the run (that is obs work the run
  // pays for) but kept in memory: disk writeback would add noise to wall_s.
  std::ostringstream stream_lines;
  if (bed.timeseries() != nullptr) {
    bed.set_stream_sink(
        [&stream_lines](const strings::obs::Window& win,
                        const std::vector<strings::obs::SloAlert>&,
                        const std::vector<std::string>&) {
          strings::obs::write_stream_line(stream_lines, win);
        });
  }
  auto streams = sw::start_streams(bed, sc.streams);
  auto tenants = sw::start_open_loop(bed, sc.tenants);
  r.setup_s = seconds_since(t0);
  if (!drain) return r;

  std::optional<Probe> probe;
  if (kind == RunKind::kTraced) probe.emplace();
  const Clock::time_point t1 = Clock::now();
  if (probe) probe->start();
  if (end_vt > 0) {
    Clock::time_point slice = t1;
    for (int k = 1; k < kSegments; ++k) {
      sim.run_until(end_vt / kSegments * k);
      r.segments.push_back(seconds_since(slice));
      slice = Clock::now();
    }
    sim.run();
    r.segments.push_back(seconds_since(slice));
  } else {
    sim.run();
  }
  r.end_vt = sim.now();
  if (probe) probe->stop();
  r.wall_s = seconds_since(t1);
  if (probe) {
    r.layers = probe->times();
    probe.reset();
  }

  bed.finalize_stream();
  if (kind == RunKind::kTraced) {
    const Clock::time_point t2 = Clock::now();
    export_artifacts(bed, stream_lines.str(), out + "/" + name);
    r.export_s = seconds_since(t2);
  }

  std::vector<sw::StreamStats> rows = std::move(*streams);
  rows.insert(rows.end(), tenants->begin(), tenants->end());
  collect(bed, rows, r);
  r.scheduled = scheduled_requests(sc);
  return r;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string render(bool correct, std::int64_t attempted, std::int64_t failed,
                   const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.out.empty() || argc % 2 == 0) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --out <dir>");
  }
  return a;
}

/// Accumulates runs and the correctness verdict of one invocation.
struct Session {
  explicit Session(const Args& a) : args(a) {}
  const Args& args;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::optional<std::uint64_t> digest;

  Run run(RunKind kind, sim::SimTime end_vt = 0) {
    Run r = run_once(args.workload, args.seed, kind, args.out, true, end_vt);
    attempted += r.scheduled;
    failed += (r.scheduled - r.completed) + r.errors;
    const char* what = kind == RunKind::kTimed    ? "timed"
                       : kind == RunKind::kTraced ? "traced"
                                                  : "obs-off";
    if (r.completed != r.scheduled) {
      std::printf("# MISMATCH %s run: %lld of %lld scheduled requests ended\n",
                  what, static_cast<long long>(r.completed),
                  static_cast<long long>(r.scheduled));
      correct = false;
    }
    if (!r.failures.empty()) {
      std::printf("# %s run: failed operations by tenant/app:%s\n", what,
                  r.failures.c_str());
    }
    if (digest && *digest != r.digest) {
      std::printf("# MISMATCH %s run: digest %016llx, expected %016llx\n",
                  what, static_cast<unsigned long long>(r.digest),
                  static_cast<unsigned long long>(*digest));
      correct = false;
    }
    if (!digest) digest = r.digest;
    std::printf("# %s run: wall %.4f s\n", what, r.wall_s);
    return r;
  }
};

int bench(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  std::printf("# workload %s (seed %llu): %s\n# why: %s\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), w.loop.c_str(),
              w.why.c_str());
  const bool has_obs = w.scenario.testbed.trace || w.scenario.testbed.stream;
  Session session{args};
  const Clock::time_point start = Clock::now();

  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<Run> timed;
  std::vector<Run> traced;
  std::vector<double> obs_off_wall;
  // Set-up is milliseconds next to a run; sample it on its own too, at the
  // start and after every timed run, so slow phases of the host that last
  // seconds hit only a share of the samples.
  const auto sample_setup = [&](int n) {
    for (int i = 0; i < n; ++i) {
      setup.push_back(
          run_once(args.workload, args.seed, RunKind::kTimed, args.out, false)
              .setup_s);
    }
  };
  sample_setup(40);
  const auto timed_run = [&] {
    timed.push_back(session.run(
        RunKind::kTimed, timed.empty() ? 0 : timed.front().end_vt));
    setup.push_back(timed.back().setup_s);
    wall.push_back(timed.back().wall_s);
    sample_setup(4);
  };
  double rss = 0.0;
  if (!args.trace) {
    // The first timed run finds the virtual end time the rest slice by.
    while (timed.size() < 3 || seconds_since(start) < args.seconds) {
      timed_run();
    }
    rss = peak_rss_mb();
    traced.push_back(session.run(RunKind::kTraced));
  } else {
    // Interleave so drift in the host's speed hits both sides alike.
    while (traced.size() < 2 || seconds_since(start) < args.seconds) {
      timed_run();
      traced.push_back(session.run(RunKind::kTraced));
      if (has_obs) {
        obs_off_wall.push_back(session.run(RunKind::kObsOff).wall_s);
      }
    }
  }
  const Run& first = timed.front();
  for (const Run& r : timed) {
    if (r.values != first.values) {
      std::printf("# MISMATCH timed runs disagree on virtual-time values\n");
      session.correct = false;
    }
  }
  std::printf(
      "# digest %016llx over %zu timed and %zu traced runs, %.0f events; "
      "vt_resp_tail_s is p%g of %zu response times\n",
      static_cast<unsigned long long>(first.digest), timed.size(),
      traced.size(), first.values.at("simcore.events"), first.tail_q * 100.0,
      first.samples);

  const auto& v = first.values;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s", "s", best_by_segment(timed)},
        {"setup_s", "s", median(setup)},
        {"peak_rss_mb", "MB", rss},
        {"vt_makespan_s", "s", v.at("vt_makespan_s")},
        {"vt_resp_mean_s", "s", v.at("vt_resp_mean_s")},
        {"vt_resp_tail_s", "s", v.at("vt_resp_tail_s")},
        {"vt_jain", "index", v.at("vt_jain")},
    };
  } else {
    // Per-layer times all come from the fastest traced run, so they add up
    // to one measured wall time.
    const Run& ft = *std::min_element(
        traced.begin(), traced.end(),
        [](const Run& a, const Run& b) { return a.wall_s < b.wall_s; });
    const auto layer = [&](Layer l) { return ft.layers.self(l); };
    double attributed = 0.0;
    for (int l = 0; l < static_cast<int>(Layer::kOther); ++l) {
      attributed += ft.layers.self(static_cast<Layer>(l));
    }
    const double rest = (ft.wall_s - attributed) / ft.wall_s;
    std::vector<double> export_times;
    for (const Run& r : traced) export_times.push_back(r.export_s);
    if (std::abs(rest) > 0.03) {
      std::printf("# MISMATCH layer self times miss %.1f%% of traced wall\n",
                  rest * 100.0);
      session.correct = false;
    }
    const auto count = [&](const char* k) { return v.at(k); };
    metrics = {
        {"simcore.events", "count", count("simcore.events")},
        {"simcore.fiber_resumes", "count", count("simcore.fiber_resumes")},
        {"simcore.fibers_spawned", "count", count("simcore.fibers_spawned")},
        {"simcore.queue_rebuilds", "count", count("simcore.queue_rebuilds")},
        {"simcore.self_s", "s", layer(Layer::kSimcore)},
        {"policies.device.calls", "count", double(ft.layers.device_calls)},
        {"policies.device.rcb_entries", "count",
         double(ft.layers.rcb_entries)},
        {"policies.device.self_s", "s", layer(Layer::kDevicePolicy)},
        {"policies.balancing.calls", "count",
         double(ft.layers.balancing_calls)},
        {"policies.balancing.self_s", "s", layer(Layer::kBalancing)},
        {"callbacks.self_s", "s", layer(Layer::kCallbacks)},
        {"core.placement.fiber_s", "s", layer(Layer::kPlacement)},
        {"core.placement.select_rpcs", "count",
         count("core.placement.select_rpcs")},
        {"core.placement.unbind_rpcs", "count",
         count("core.placement.unbind_rpcs")},
        {"core.placement.sync_rpcs", "count",
         count("core.placement.sync_rpcs")},
        {"core.placement.deltas_sent", "count",
         count("core.placement.deltas_sent")},
        {"core.placement.deltas_applied", "count",
         count("core.placement.deltas_applied")},
        {"core.placement.stale_hits", "count",
         count("core.placement.stale_hits")},
        {"core.placement.delta_gap_syncs", "count",
         count("core.placement.delta_gap_syncs")},
        {"core.placement.latency_p50_vt_ms", "ms",
         count("core.placement.latency_p50_vt_ms")},
        {"backend.fiber_s", "s", layer(Layer::kBackend)},
        {"backend.fiber_resumes", "count",
         double(ft.layers.resumed(Layer::kBackend))},
        {"frontend.fiber_s", "s", layer(Layer::kFrontend)},
        {"frontend.fiber_resumes", "count",
         double(ft.layers.resumed(Layer::kFrontend))},
        {"workloads.gen_s", "s", layer(Layer::kWorkloads)},
        {"workloads.vt_queue_frac", "frac", count("workloads.vt_queue_frac")},
        {"gpu.kernels", "count", count("gpu.kernels")},
        {"gpu.copies", "count", count("gpu.copies")},
        {"gpu.context_switches", "count", count("gpu.context_switches")},
        {"gpu.compute_busy_frac", "frac", count("gpu.compute_busy_frac")},
        {"rpc.packets_sent", "count", count("rpc.packets_sent")},
        {"rpc.bytes_sent", "bytes", count("rpc.bytes_sent")},
        {"obs.trace_events", "count", count("obs.trace_events")},
        {"obs.stream_windows", "count", count("obs.stream_windows")},
        {"obs.instruments", "count", count("obs.instruments")},
        {"obs.export_s", "s", median(export_times)},
        {"obs.overhead_frac", "frac",
         has_obs ? best(wall) / best(obs_off_wall) - 1.0 : 0.0},
        {"bench.trace_overhead_frac", "frac", ft.wall_s / best(wall) - 1.0},
        {"bench.unattributed_frac", "frac", rest},
    };
  }
  std::cout << render(session.correct, session.attempted, session.failed,
                      metrics)
            << std::endl;
  return session.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::bench(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
