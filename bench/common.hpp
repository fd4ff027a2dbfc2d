// Shared machinery for the figure-reproduction benches.
//
// Every bench binary describes its runs as workloads::ScenarioConfig (the
// same description scenario files parse into), executes them through
// bench::run, and prints a table mirroring the paper's figure. Pass --quick
// (or set STRINGS_BENCH_QUICK=1) for a reduced sweep.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/control_plane.hpp"
#include "metrics/metrics.hpp"
#include "workloads/profiles.hpp"
#include "workloads/scenario_config.hpp"

namespace strings::bench {

struct Options {
  bool quick = false;
  static Options parse(int argc, char** argv);
};

/// Runs `cfg` through workloads::run — to drain, or up to `horizon`. When
/// STRINGS_TRACE_DIR is set, the run also writes <dir>/<label>.trace.json
/// (Chrome trace-event format, loadable in Perfetto) and
/// <dir>/<label>.metrics.csv. When STRINGS_BENCH_REPORT is set, it records
/// a perf-gate entry keyed by `label` (see flush_bench_report).
workloads::RunResult run(const std::string& label,
                         const workloads::ScenarioConfig& cfg,
                         sim::SimTime horizon = sim::kNever);

/// The six balancing configurations of Figs. 9/10, labelled
/// "<policy>-<mode>": {GRR, GMin, GWtMin} x {Rain, Strings}.
std::vector<std::pair<std::string, workloads::TestbedConfig>>
balancing_matrix(const std::vector<std::vector<gpu::DeviceProps>>& nodes);

/// The paper's Fig. 10/12/14/15 baseline: each stream served by its own
/// single node (2 GPUs) under GRR ("single node GRR" — the previous
/// section's scheduler generation, i.e. Rain). Returns the mean response
/// per stream, computed on independent testbeds.
std::vector<double> single_node_grr_baseline(
    const std::vector<workloads::ArrivalConfig>& streams,
    workloads::Mode mode = workloads::Mode::kRain);

/// The supernode pair workload of Figs. 10 and 12-15: the pair's long app
/// arrives at NodeA as tenantA, its short app at NodeB as tenantB, both as
/// overloaded exponential streams that spill into the pool.
std::vector<workloads::ArrivalConfig> pair_streams(
    const workloads::WorkloadPair& pair, const Options& opt);

/// single_node_grr_baseline per app over `pairs` (each app's first
/// pair_streams role, in pair order), keyed by app.
std::map<std::string, double> pair_baselines(
    const std::vector<workloads::WorkloadPair>& pairs, const Options& opt);

/// Weighted speedup (paper eq. 2) of a pair_streams run over the
/// pair_baselines of its two apps.
double pair_speedup(const std::map<std::string, double>& baseline,
                    const workloads::WorkloadPair& pair,
                    const workloads::RunResult& out);

/// Fraction of distributed selects served from a cached (stale) snapshot.
double stale_hit_rate(const core::ControlPlaneStats& s);

/// One row per labelled deployment: RPC/byte counters, stale-hit rate, and
/// p50/p95/p99 placement latency.
metrics::Table control_plane_table(
    const std::vector<std::pair<std::string, core::ControlPlaneStats>>& rows);

/// Prints the standard bench header.
void print_header(const std::string& title, const std::string& paper_ref,
                  const Options& opt);

/// Prints the results table and, when STRINGS_BENCH_CSV_DIR is set, also
/// writes it as <dir>/<name>.csv for artifact collection.
void report_table(const std::string& name, const metrics::Table& table);

/// Perf-gate hook. When STRINGS_BENCH_REPORT names a file, every bench::run
/// call records an entry
///   "<bench binary>/<label>": {makespan_s, p50_s, p99_s, jain, wall_s}
/// and the process merges its entries into that JSON file at exit, so a
/// whole bench sweep accumulates one report (tools/bench_gate compares two
/// such files; wall_s is the host wall-clock cost of the run and gates
/// warn-only — see docs/perf_gate.md). Idempotent; exposed so tests can
/// flush without exiting.
void flush_bench_report();

/// Records a raw perf-report entry "<bench binary>/<label>[#k]" with a
/// preformatted JSON object value (e.g. {"wall_s":...,"events_per_sec":...}).
/// Used by micro benches for metrics bench::run cannot compute, such as
/// event-loop throughput. No-op when STRINGS_BENCH_REPORT is unset.
void record_bench_entry(const std::string& label, const std::string& value);

}  // namespace strings::bench
