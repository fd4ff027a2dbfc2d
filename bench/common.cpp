#include "common.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#ifdef __linux__
#include <unistd.h>
#endif

#include "obs/json.hpp"

namespace strings::bench {

Options Options::parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) opt.quick = true;
  }
  if (const char* env = std::getenv("STRINGS_BENCH_QUICK");
      env != nullptr && env[0] == '1') {
    opt.quick = true;
  }
  return opt;
}

namespace {
// Directory for per-run observability artifacts, or nullptr when the
// STRINGS_TRACE_DIR env toggle is unset.
const char* trace_dir() {
  const char* dir = std::getenv("STRINGS_TRACE_DIR");
  return (dir != nullptr && dir[0] != '\0') ? dir : nullptr;
}

std::string sanitize_label(const std::string& label) {
  std::string out = label.empty() ? std::string("run") : label;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '_' && c != '.') {
      c = '_';
    }
  }
  return out;
}

// --- BENCH_report.json recorder (the CI perf-gate input) -----------------

// Report file for the perf gate, or nullptr when the STRINGS_BENCH_REPORT
// env toggle is unset. Read per call so tests can toggle it at runtime.
const char* bench_report_path() {
  const char* p = std::getenv("STRINGS_BENCH_REPORT");
  return (p != nullptr && p[0] != '\0') ? p : nullptr;
}

// Entries recorded by this process, keyed "<binary>/<label>". The binary
// prefix keeps labels that several benches share (e.g. the
// balancing_matrix cells) distinct once every bench merges into one file.
std::map<std::string, std::string>& report_entries() {
  static std::map<std::string, std::string> entries;
  return entries;
}

std::string report_binary_name() {
  static const std::string name = [] {
#ifdef __linux__
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
      buf[n] = '\0';
      const char* slash = std::strrchr(buf, '/');
      return std::string(slash != nullptr ? slash + 1 : buf);
    }
#endif
    return std::string("bench");
  }();
  return name;
}

// Returns the key "<binary>/<label>" of a run or raw entry. A key names
// one cell: a second use would overwrite the first one's report entry and
// STRINGS_TRACE_DIR artifacts, so it stops the bench instead.
std::string claim_key(const std::string& label) {
  static std::set<std::string> claimed;
  std::string key = report_binary_name() + "/" + sanitize_label(label);
  if (!claimed.insert(key).second) {
    std::fprintf(stderr,
                 "error: bench key %s is used by two runs; give each cell "
                 "its own label\n",
                 key.c_str());
    std::exit(1);
  }
  return key;
}

// Stores an entry under `key` and arms the at-exit flush. Shared by
// bench::run and record_bench_entry.
void store_report_entry(const std::string& key, const std::string& value) {
  report_entries()[key] = value;
  static const bool registered = [] {
    std::atexit(flush_bench_report);
    return true;
  }();
  (void)registered;
}

void record_bench_report(const std::string& key,
                         const workloads::ScenarioConfig& cfg,
                         const workloads::RunResult& out, double wall_s) {
  std::vector<double> responses;
  for (const auto& st : out.streams) {
    for (const sim::SimTime t : st.response_times) {
      responses.push_back(sim::to_seconds(t));
    }
  }
  std::vector<double> attained, shares;
  for (const auto& [tenant, service] : out.tenant_service_s) {
    attained.push_back(service);
    double weight = 1.0;
    for (const auto& s : cfg.streams) {
      if (s.tenant == tenant) {
        weight = s.tenant_weight;
        break;
      }
    }
    shares.push_back(weight);
  }
  char value[256];
  std::snprintf(value, sizeof(value),
                "{\"makespan_s\":%.9f,\"p50_s\":%.9f,\"p99_s\":%.9f,"
                "\"jain\":%.6f,\"wall_s\":%.6f}",
                sim::to_seconds(out.makespan),
                metrics::percentile(responses, 50.0),
                metrics::percentile(responses, 99.0),
                metrics::jain_fairness(attained, shares), wall_s);
  store_report_entry(key, value);
}
}  // namespace

workloads::RunResult run(const std::string& label,
                         const workloads::ScenarioConfig& cfg,
                         sim::SimTime horizon) {
  const std::string key = claim_key(label);
  workloads::RunArtifacts artifacts;
  if (const char* dir = trace_dir()) {
    // Pointing STRINGS_TRACE_DIR at a fresh path is the common case in CI;
    // create it instead of failing once per run.
    const std::string base = std::string(dir) + "/" + key;
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(base).parent_path(), ec);
    artifacts.trace_path = base + ".trace.json";
    artifacts.metrics_path = base + ".metrics.csv";
  }
  const auto wall_start = std::chrono::steady_clock::now();
  workloads::RunResult out = workloads::run(cfg, artifacts, horizon);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  if (bench_report_path() != nullptr) {
    record_bench_report(key, cfg, out, wall.count());
  }
  return out;
}

void record_bench_entry(const std::string& label, const std::string& value) {
  const std::string key = claim_key(label);
  if (bench_report_path() != nullptr) store_report_entry(key, value);
}

std::vector<double> mean_responses(const workloads::RunResult& out) {
  std::vector<double> times;
  for (const auto& st : out.streams) times.push_back(st.mean_response_s());
  return times;
}

metrics::Table Sweep::table(const std::string& row_header,
                            const std::vector<Column>& lead,
                            const std::vector<Column>& tail) const {
  std::vector<Column> columns = lead;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    Column& col = columns.emplace_back(Column{configs[c], {}});
    std::vector<double> speedups;
    for (const auto& row : speedup) {
      speedups.push_back(row[c]);
      col.cells.push_back(metrics::Table::fmt(row[c]) + "x");
    }
    col.avg = metrics::Table::fmt(metrics::mean(speedups)) + "x";
  }
  columns.insert(columns.end(), tail.begin(), tail.end());
  std::vector<std::string> headers{row_header};
  for (const Column& c : columns) headers.push_back(c.header);
  metrics::Table t(headers);
  for (std::size_t r = 0; r <= rows.size(); ++r) {
    const bool avg = r == rows.size();
    std::vector<std::string> cells{avg ? "avg" : rows[r].name};
    for (const Column& c : columns) {
      cells.push_back(avg ? c.avg : c.cells.at(r));
    }
    t.add_row(std::move(cells));
  }
  return t;
}

Sweep run_sweep(std::vector<SweepRow> rows,
                const std::vector<SweepConfig>& configs,
                const Baseline& baseline) {
  Sweep sweep;
  for (const SweepConfig& c : configs) sweep.configs.push_back(c.label);
  for (const SweepRow& row : rows) {
    sweep.baseline.push_back(baseline(row));
    auto& results = sweep.results.emplace_back();
    auto& speedup = sweep.speedup.emplace_back();
    for (const SweepConfig& c : configs) {
      results.push_back(run(c.label + "." + row.name,
                            {c.testbed, row.streams, {}}));
      speedup.push_back(metrics::weighted_speedup(
          sweep.baseline.back(), mean_responses(results.back())));
    }
  }
  sweep.rows = std::move(rows);
  return sweep;
}

double stale_hit_rate(const core::ControlPlaneStats& s) {
  const std::int64_t lookups = s.stale_hits + s.sync_rpcs;
  return lookups > 0 ? static_cast<double>(s.stale_hits) /
                           static_cast<double>(lookups)
                     : 0.0;
}

metrics::Table control_plane_table(
    const std::vector<std::pair<std::string, core::ControlPlaneStats>>&
        rows) {
  using metrics::Table;
  Table t({"deployment", "select", "sync", "deltas", "gap-sync", "unbind",
           "oneway", "fb-recs", "fb-batches", "direct", "KB", "stale-hit",
           "max-age ms", "p50 ms", "p95 ms", "p99 ms"});
  for (const auto& [label, s] : rows) {
    std::vector<double> latencies_ms;
    for (const sim::SimTime l : s.placement_latencies) {
      latencies_ms.push_back(sim::to_millis(l));
    }
    t.add_row({label, std::to_string(s.select_rpcs),
               std::to_string(s.sync_rpcs), std::to_string(s.deltas_sent),
               std::to_string(s.delta_gap_syncs),
               std::to_string(s.unbind_rpcs), std::to_string(s.oneway_msgs),
               std::to_string(s.feedback_records),
               std::to_string(s.feedback_batches),
               std::to_string(s.direct_calls),
               Table::fmt(static_cast<double>(s.bytes_sent) / 1024.0),
               Table::fmt(stale_hit_rate(s)),
               Table::fmt(sim::to_millis(s.max_snapshot_age)),
               Table::fmt(metrics::percentile(latencies_ms, 50.0), 3),
               Table::fmt(metrics::percentile(latencies_ms, 95.0), 3),
               Table::fmt(metrics::percentile(latencies_ms, 99.0), 3)});
  }
  return t;
}

std::vector<SweepConfig> balancing_matrix(
    const std::vector<std::vector<gpu::DeviceProps>>& nodes) {
  std::vector<SweepConfig> configs;
  for (const auto* policy : {"GRR", "GMin", "GWtMin"}) {
    for (const auto mode : {workloads::Mode::kRain, workloads::Mode::kStrings}) {
      workloads::TestbedConfig tb;
      tb.mode = mode;
      tb.nodes = nodes;
      tb.balancing_policy = policy;
      configs.push_back(
          {std::string(policy) + "-" + workloads::mode_name(mode), tb});
    }
  }
  return configs;
}

std::vector<SweepRow> pair_rows(
    const std::vector<workloads::WorkloadPair>& pairs, const Options& opt) {
  std::vector<SweepRow> rows;
  for (const auto& pair : pairs) {
    workloads::ArrivalConfig a;
    a.app = pair.long_app;
    a.origin = 0;
    a.requests = opt.quick ? 6 : 10;
    a.lambda_scale = 0.22;  // overloaded node: bursts spill to the pool
    a.server_threads = 8;
    a.seed = 11;
    a.tenant = "tenantA";
    workloads::ArrivalConfig b = a;
    b.app = pair.short_app;
    b.origin = 1;
    b.requests = opt.quick ? 12 : 20;
    b.seed = 23;
    b.tenant = "tenantB";
    rows.push_back({std::string(1, pair.label), {a, b}});
  }
  return rows;
}

Column mix_column(const std::vector<workloads::WorkloadPair>& pairs) {
  Column mix{"Mix", {}};
  for (const auto& pair : pairs) {
    mix.cells.push_back(pair.long_app + "-" + pair.short_app);
  }
  return mix;
}

Baseline single_node_grr(const std::vector<workloads::WorkloadPair>& pairs,
                         const Options& opt) {
  // The baseline depends only on the app, not on the pair: run each app
  // once, in its first pair_rows role, on its own 2-GPU node.
  std::map<std::string, double> by_app;
  for (const SweepRow& row : pair_rows(pairs, opt)) {
    for (const auto& s : row.streams) {
      if (by_app.contains(s.app)) continue;
      workloads::ScenarioConfig cfg;
      cfg.testbed.mode = workloads::Mode::kRain;
      cfg.testbed.nodes = workloads::small_server();
      cfg.testbed.balancing_policy = "GRR";
      cfg.streams = {s};
      cfg.streams[0].origin = 0;
      by_app[s.app] = run("single-node-GRR." + s.app, cfg)
                          .streams.at(0)
                          .mean_response_s();
    }
  }
  return [by_app](const SweepRow& row) {
    std::vector<double> times;
    for (const auto& s : row.streams) times.push_back(by_app.at(s.app));
    return times;
  };
}

void report_table(const std::string& name, const metrics::Table& table) {
  table.print();
  const char* dir = std::getenv("STRINGS_BENCH_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << table.to_csv();
  std::printf("(csv written to %s)\n", path.c_str());
}

void flush_bench_report() {
  const char* path = bench_report_path();
  if (path == nullptr || report_entries().empty()) return;
  // The report file is shared by the whole bench sweep: merge with
  // whatever an earlier binary wrote, our entries winning on key
  // collisions. Earlier entries keep their source text byte for byte.
  std::map<std::string, std::string> merged;
  std::string text;
  if (obs::json::read_file(path, &text)) {
    obs::json::Reader reader(text);
    obs::json::Value entry;
    std::string key;
    if (reader.begin_object()) {
      while (reader.next_member(&key)) {
        reader.peek();
        const std::size_t start = reader.offset();
        if (!reader.value(&entry)) break;
        merged[key] = text.substr(start, reader.offset() - start);
      }
    }
    if (!reader.at_end()) {
      std::fprintf(stderr, "warning: replacing unreadable %s: %s\n", path,
                   reader.error().c_str());
      merged.clear();
    }
  }
  for (const auto& [key, value] : report_entries()) merged[key] = value;
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  out << "{\n";
  std::size_t i = 0;
  for (const auto& [key, value] : merged) {
    out << "  " << obs::json::quote(key) << ": " << value;
    if (++i < merged.size()) out << ",";
    out << "\n";
  }
  out << "}\n";
}

void print_header(const std::string& title, const std::string& paper_ref,
                  const Options& opt) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("reproduces: %s%s\n\n", paper_ref.c_str(),
              opt.quick ? "   [--quick sweep]" : "");
}

}  // namespace strings::bench
