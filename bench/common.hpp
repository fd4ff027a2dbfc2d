// Shared machinery for the figure-reproduction benches.
//
// Every bench binary describes its runs as workloads::ScenarioConfig (the
// same description scenario files parse into), executes them through
// bench::run, and prints a table mirroring the paper's figure. Pass --quick
// for a reduced sweep.
#pragma once

#include <functional>
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

/// Runs `cfg` through workloads::run — to drain, or up to `horizon` —
/// under the key "<bench binary>/<label>", where the label names the run's
/// cell (e.g. "<config>.<row>"); a second run under one key stops the bench
/// with an error naming it. With STRINGS_TRACE_DIR set, the run writes
/// <dir>/<key>.trace.json (Chrome trace-event format, loadable in Perfetto)
/// and <dir>/<key>.metrics.csv; with STRINGS_BENCH_REPORT set, it records
/// a perf-gate entry under the key (see flush_bench_report).
workloads::RunResult run(const std::string& label,
                         const workloads::ScenarioConfig& cfg,
                         sim::SimTime horizon = sim::kNever);

/// Mean response time of each result row (streams, then tenants).
std::vector<double> mean_responses(const workloads::RunResult& out);

/// One policy configuration of a sweep: the table column and `<config>`
/// part of its cells' labels, and the testbed it runs.
struct SweepConfig {
  std::string label;
  workloads::TestbedConfig testbed;
};

/// One row of a speedup sweep: the table's first column and `<row>` part
/// of its cells' labels, and the streams every config runs.
struct SweepRow {
  std::string name;
  std::vector<workloads::ArrivalConfig> streams;
};

/// The eq. 2 denominators of a row: each stream's mean response on the
/// baseline the figure measures against.
using Baseline = std::function<std::vector<double>(const SweepRow&)>;

/// A column a figure adds to its sweep table: one cell per row, and the
/// cell on the "avg" row.
struct Column {
  std::string header;
  std::vector<std::string> cells;
  std::string avg = "-";
};

/// What a speedup sweep measured, indexed [row][config].
struct Sweep {
  std::vector<SweepRow> rows;
  std::vector<std::string> configs;
  std::vector<std::vector<double>> baseline;  // [row][stream]
  std::vector<std::vector<workloads::RunResult>> results;
  std::vector<std::vector<double>> speedup;

  /// The figure's table: `row_header` over the row names, the `lead`
  /// columns, one "<speedup>x" column per config, then `tail`; a last
  /// "avg" row holds each config's mean speedup over the rows.
  metrics::Table table(const std::string& row_header,
                       const std::vector<Column>& lead,
                       const std::vector<Column>& tail = {}) const;
};

/// The weighted-speedup sweep of Figs. 9, 10 and 12-15: for each row, calls
/// `baseline(row)`, then runs every config on the row's streams under the
/// label "<config>.<row>" and takes its weighted speedup (paper eq. 2)
/// over that baseline.
Sweep run_sweep(std::vector<SweepRow> rows,
                const std::vector<SweepConfig>& configs,
                const Baseline& baseline);

/// The six balancing configurations of Figs. 9/10, labelled
/// "<policy>-<mode>": {GRR, GMin, GWtMin} x {Rain, Strings}.
std::vector<SweepConfig> balancing_matrix(
    const std::vector<std::vector<gpu::DeviceProps>>& nodes);

/// The supernode pair rows of Figs. 10 and 12-15, one per pair, named by
/// its label: the pair's long app arrives at NodeA as tenantA, its short
/// app at NodeB as tenantB, both as overloaded exponential streams that
/// spill into the pool.
std::vector<SweepRow> pair_rows(
    const std::vector<workloads::WorkloadPair>& pairs, const Options& opt);

/// The "Mix" column of a pair figure: "<long app>-<short app>" per pair.
Column mix_column(const std::vector<workloads::WorkloadPair>& pairs);

/// The paper's Fig. 10/12/14/15 baseline ("single node GRR" — the previous
/// section's scheduler generation, i.e. Rain): each app of `pairs`, in its
/// pair_rows stream, served alone by a 2-GPU node under GRR. Runs once per
/// app, now, under "single-node-GRR.<app>"; the Baseline looks a row's
/// streams up by app.
Baseline single_node_grr(const std::vector<workloads::WorkloadPair>& pairs,
                         const Options& opt);

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
/// warn-only — see docs/observability.md). Idempotent; exposed so tests can
/// flush without exiting.
void flush_bench_report();

/// Records a raw perf-report entry "<bench binary>/<label>" with a
/// preformatted JSON object value (e.g. {"wall_s":...,"events_per_sec":...}).
/// Used for metrics bench::run cannot compute, such as event-loop
/// throughput. The key is claimed like a run's, so it must not repeat
/// one; recording is a no-op when STRINGS_BENCH_REPORT is unset.
void record_bench_entry(const std::string& label, const std::string& value);

}  // namespace strings::bench
