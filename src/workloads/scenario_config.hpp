// Declarative experiment descriptions.
//
// A scenario file is a small line-oriented text format (INI-like) that
// describes a full experiment — topology, mode, policies, request streams —
// so users can run custom workloads without recompiling:
//
//   # comment
//   mode = strings            # cuda | rain | strings | design2
//   topology = supernode      # small | supernode | NxM (nodes x gpus)
//   balancing = GWtMin
//   feedback = MBF            # optional: Policy Arbiter target
//   device_policy = PS
//   remote_link = numa        # numa | gige | shm
//   shared_network = false
//   placement = centralized   # centralized | distributed mapper agents
//   control_transport = zero_cost  # direct | zero_cost | data_plane
//   service_node = 0          # node hosting the PlacementService
//   refresh_epoch_ms = 0      # DstSnapshot staleness bound (>= 0)
//   sync_mode = pull          # pull | push delta invalidation
//   feedback_batch = 1        # records per kFeedbackBatch (> 0)
//   feedback_flush_ms = 1     # partial-batch flush delay (>= 0)
//   epoch_ms = 10             # dispatcher epoch (> 0)
//   stream_window_ms = 10     # telemetry tumbling-window width
//
//   [stream]
//   app = MC                  # Table I abbreviation
//   origin = 0
//   requests = 10             # > 0, as are lambda_scale, server_threads
//   lambda_scale = 0.25       # and weight
//   server_threads = 8
//   seed = 42
//   tenant = pricing-svc
//   weight = 2.0
//
//   [stream]
//   app = DC
//   ...
//
// Open-loop traffic (device_policy = mqfq pairs naturally with it):
//
//   device_policy = mqfq      # MQFQ-Sticky fair queueing
//   mqfq_T = 20               # throttle threshold T (virtual-time ms)
//   mqfq_sticky_ms = 2        # device stickiness window
//
//   [tenant]
//   name = burst-svc          # tenant name (default tenant<k>)
//   app = MC
//   origin = 0
//   arrival = bursty          # poisson | bursty | trace
//   rate = 120                # mean requests/sec (OFF-state rate for bursty)
//   burst_factor = 8          # ON-state rate multiplier (bursty)
//   burst_on_ms = 200         # mean ON dwell (bursty)
//   burst_off_ms = 800        # mean OFF dwell (bursty)
//   trace_file = arrivals.txt # offsets in ms, one per line (trace)
//   requests = 400            # schedule length cap
//   attach_ms = 0             # tenant churn window: attach time (>= 0)
//   detach_ms = 1500          # detach time (omit: never detaches)
//   seed = 7
//   weight = 1.0
//
// app, origin, requests, seed and weight mean the same in both sections.
//
// Parsed into a ScenarioConfig — the one experiment description: a
// TestbedConfig plus closed-loop streams and open-loop tenants. It switches
// no artifact on; run_scenario's flags do (RunArtifacts paths, --exemplars).
// workloads::run executes it; bench/run_scenario is the command-line front
// end, and the figure benches build ScenarioConfigs in code.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads/arrivals.hpp"
#include "workloads/service.hpp"
#include "workloads/testbed.hpp"

namespace strings::workloads {

/// Thrown on malformed scenario text, with a line number in the message.
class ScenarioParseError : public std::runtime_error {
 public:
  explicit ScenarioParseError(const std::string& what)
      : std::runtime_error(what) {}
};

struct ScenarioConfig {
  TestbedConfig testbed;
  std::vector<ArrivalConfig> streams;
  /// Open-loop tenants ([tenant] sections); may coexist with streams.
  std::vector<OpenLoopTenant> tenants;
};

/// Parses scenario text. Throws ScenarioParseError on bad input.
ScenarioConfig parse_scenario(std::istream& in);
ScenarioConfig parse_scenario(const std::string& text);

/// Loads a scenario file from disk.
ScenarioConfig load_scenario(const std::string& path);

/// Output files a run should produce; empty path = skip.
struct RunArtifacts {
  std::string trace_path;     // Chrome trace-event JSON (forces trace on)
  std::string metrics_path;   // metrics-registry CSV
  std::string analysis_path;  // analysis report (forces the analyzer on)
  std::string prof_path;      // profiler report (forces trace on)
  std::string stream_path;    // telemetry JSONL (forces streaming on)
  std::string slo_rules_path;  // SLO rule file (forces streaming on)
  std::string alerts_path;     // SLO alerts JSONL (needs slo_rules_path)
  /// Optional wall-clock source (milliseconds, any epoch) for the
  /// sim/wall_ms_per_window gauge. Only the bench layer may install one
  /// (src code never reads the wall clock); when unset the stream is
  /// byte-reproducible across runs.
  std::function<double()> wall_clock_ms;
};

/// Everything one run produced.
struct RunResult {
  /// One row per [stream], then one per [tenant], in config order.
  std::vector<StreamStats> streams;
  /// Attained GPU service per tenant (the input to Jain's fairness).
  std::map<std::string, double> tenant_service_s;
  /// Per-GID device counters after the run.
  std::vector<gpu::DeviceCounters> device_counters;
  /// Per-device utilization over [0, makespan); filled when
  /// TestbedConfig::trace is set.
  std::vector<gpu::DeviceUtilSummary> device_util;
  /// Aggregated control-plane counters (RPCs, bytes, staleness, per-select
  /// latency) plus the authoritative placement log.
  core::ControlPlaneStats control_plane;
  /// Last completion; the horizon itself for a fixed-horizon run.
  sim::SimTime makespan = 0;
  /// Protocol invariant violations (INV-*) — a non-zero count means the
  /// run broke a state-machine contract and run_scenario exits 3.
  std::int64_t invariant_violations = 0;
  /// Logical races (unordered conflicting accesses) — informational; many
  /// timing-ordered schedules are not causally ordered.
  std::int64_t logical_races = 0;
  /// Requests the profiler saw issued but never completed (only populated
  /// when a prof report was requested) — run_scenario exits 4 on > 0.
  int prof_incomplete_requests = 0;
  /// SLO watchdog tallies (only populated when rules were loaded) —
  /// run_scenario exits 5 when slo_hard_violations > 0.
  std::int64_t slo_warns = 0;
  std::int64_t slo_fails = 0;
  std::int64_t slo_hard_violations = 0;
};

/// The one experiment runner. Builds a Testbed from `cfg`, starts its
/// streams and open-loop tenants, and runs to drain — or, with a finite
/// `horizon`, stops the clock there (fairness sampling while every tenant
/// is still backlogged) and unwinds the requests still in flight. Writes
/// the requested `artifacts`; a non-empty prof path runs obs::prof over the
/// tracer and registers prof/... metrics before the CSV export, so the
/// metrics file carries the attribution too. With TestbedConfig::exemplars
/// on and a stream path set, the full strings.exemplar.v1 lines are appended
/// to the stream file at run end and duplicated to
/// "<stream_path>.exemplars.jsonl". Throws std::runtime_error when an output
/// file can't be written.
RunResult run(const ScenarioConfig& cfg, const RunArtifacts& artifacts = {},
              sim::SimTime horizon = sim::kNever);

}  // namespace strings::workloads
