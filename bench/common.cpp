#include "common.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

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

// Entries recorded by this process, keyed "<binary>/<label>[#k]". The
// binary prefix keeps labels that several benches share (e.g. the
// balancing_matrix configs) distinct once every bench merges into one
// file; #k disambiguates repeated labels within one binary.
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

// Keys an entry "<binary>/<label>[#k]", stores it, and arms the at-exit
// flush. Shared by bench::run and record_bench_entry.
void store_report_entry(const std::string& label, const std::string& value) {
  static std::map<std::string, int> key_counts;
  std::string key = report_binary_name() + "/" + sanitize_label(label);
  const int n = ++key_counts[key];
  if (n > 1) key += "#" + std::to_string(n);
  report_entries()[key] = value;
  static const bool registered = [] {
    std::atexit(flush_bench_report);
    return true;
  }();
  (void)registered;
}

void record_bench_report(const std::string& label,
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
  store_report_entry(label, value);
}
}  // namespace

workloads::RunResult run(const std::string& label,
                         const workloads::ScenarioConfig& cfg,
                         sim::SimTime horizon) {
  workloads::RunArtifacts artifacts;
  if (const char* dir = trace_dir()) {
    // Pointing STRINGS_TRACE_DIR at a fresh path is the common case in CI;
    // create it instead of failing once per run.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string base = std::string(dir) + "/" + sanitize_label(label);
    artifacts.trace_path = base + ".trace.json";
    artifacts.metrics_path = base + ".metrics.csv";
  }
  const auto wall_start = std::chrono::steady_clock::now();
  workloads::RunResult out = workloads::run(cfg, artifacts, horizon);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  if (bench_report_path() != nullptr) {
    record_bench_report(label, cfg, out, wall.count());
  }
  return out;
}

void record_bench_entry(const std::string& label, const std::string& value) {
  if (bench_report_path() == nullptr) return;
  store_report_entry(label, value);
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

std::vector<std::pair<std::string, workloads::TestbedConfig>>
balancing_matrix(const std::vector<std::vector<gpu::DeviceProps>>& nodes) {
  std::vector<std::pair<std::string, workloads::TestbedConfig>> configs;
  for (const auto* policy : {"GRR", "GMin", "GWtMin"}) {
    for (const auto mode : {workloads::Mode::kRain, workloads::Mode::kStrings}) {
      workloads::TestbedConfig tb;
      tb.mode = mode;
      tb.nodes = nodes;
      tb.balancing_policy = policy;
      configs.emplace_back(
          std::string(policy) + "-" + workloads::mode_name(mode), tb);
    }
  }
  return configs;
}

std::vector<double> single_node_grr_baseline(
    const std::vector<workloads::ArrivalConfig>& streams,
    workloads::Mode mode) {
  // Each stream gets its own 2-GPU node under GRR, independently — the
  // "single node GRR" the paper measures the supernode figures against.
  std::vector<double> result;
  for (const auto& s : streams) {
    workloads::ScenarioConfig cfg;
    cfg.testbed.mode = mode;
    cfg.testbed.nodes = workloads::small_server();
    cfg.testbed.balancing_policy = "GRR";
    cfg.streams = {s};
    cfg.streams[0].origin = 0;
    result.push_back(
        run("single-node-GRR", cfg).streams.at(0).mean_response_s());
  }
  return result;
}

std::vector<workloads::ArrivalConfig> pair_streams(
    const workloads::WorkloadPair& pair, const Options& opt) {
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
  return {a, b};
}

std::map<std::string, double> pair_baselines(
    const std::vector<workloads::WorkloadPair>& pairs, const Options& opt) {
  // The single-node-GRR baseline depends only on the app, not on the pair:
  // compute once per app.
  std::map<std::string, double> baseline;
  for (const auto& pair : pairs) {
    for (const auto& s : pair_streams(pair, opt)) {
      if (!baseline.contains(s.app)) {
        baseline[s.app] = single_node_grr_baseline({s})[0];
      }
    }
  }
  return baseline;
}

double pair_speedup(const std::map<std::string, double>& baseline,
                    const workloads::WorkloadPair& pair,
                    const workloads::RunResult& out) {
  return metrics::weighted_speedup(
      {baseline.at(pair.long_app), baseline.at(pair.short_app)},
      {out.streams.at(0).mean_response_s(),
       out.streams.at(1).mean_response_s()});
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
