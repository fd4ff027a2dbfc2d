// Command-line driver for declarative scenario files: runs an experiment
// described in the text format of workloads/scenario_config.hpp and prints
// per-stream statistics.
//
//   $ ./bench/run_scenario my_experiment.scenario
//   $ ./bench/run_scenario --trace out.json --metrics out.csv my.scenario
//   $ ./bench/run_scenario --analyze report.txt my.scenario
//
// --trace writes a Chrome trace-event JSON (load it at https://ui.perfetto.dev
// or chrome://tracing) with request-lifecycle spans, per-GPU op tracks and
// dispatcher wake events; --metrics dumps the testbed's metrics registry as
// CSV; --analyze runs the protocol invariant checker + logical-race
// analysis and writes its report; --prof runs the critical-path profiler
// and writes its attribution report (docs/observability.md). Without a
// scenario path, runs a built-in demo scenario (so the bench sweep
// exercises the path end to end).
//
// Exit codes are documented in print_usage below — that usage text is the
// single source of truth (tests assert every flag and code appears there).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metrics/metrics.hpp"
#include "workloads/scenario_config.hpp"

using namespace strings;

namespace {

const char kDemoScenario[] = R"(# demo: two tenants on the paper's supernode
mode = strings
topology = supernode
balancing = GWtMin
feedback = MBF
device_policy = PS

[stream]
app = HI
origin = 0
requests = 6
lambda_scale = 0.3
server_threads = 6
tenant = histogram-svc

[stream]
app = BS
origin = 1
requests = 10
lambda_scale = 0.3
server_threads = 6
tenant = pricing-svc
)";

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: run_scenario [options] [scenario-file]\n"
               "\n"
               "Runs the scenario described in scenario-file (or a built-in\n"
               "demo when omitted) and prints per-stream statistics.\n"
               "\n"
               "options:\n"
               "  --trace <out.json>    write a Chrome trace-event JSON of\n"
               "                        the run (Perfetto / chrome://tracing)\n"
               "  --metrics <out.csv>   write the metrics registry as CSV\n"
               "  --analyze <out.txt>   run the protocol invariant checker +\n"
               "                        logical-race analysis; write report\n"
               "  --prof <out.txt>      run the critical-path profiler; write\n"
               "                        latency/fairness attribution report\n"
               "  --stream <out.jsonl>  stream windowed telemetry snapshots,\n"
               "                        one JSON line per window, flushed as\n"
               "                        each window closes (tools/strings_top\n"
               "                        tails or replays the file)\n"
               "  --slo <rules.slo>     evaluate SLO rules against each\n"
               "                        telemetry window (implies streaming;\n"
               "                        grammar in docs/observability.md)\n"
               "  --alerts <out.jsonl>  write SLO alerts as JSON lines\n"
               "                        (default alerts.jsonl with --slo)\n"
               "  --stream-wall         add wall-clock-per-window to the\n"
               "                        stream (breaks byte-reproducibility\n"
               "                        of the stream file; off by default)\n"
               "  --exemplars <k>       record top-k slowest requests per\n"
               "                        telemetry window with per-interval\n"
               "                        culprit attribution (interference\n"
               "                        forensics; requires --stream; ids\n"
               "                        ride windows and SLO alerts, full\n"
               "                        strings.exemplar.v1 lines land in\n"
               "                        the stream + a .exemplars.jsonl\n"
               "                        sidecar)\n"
               "  --seed <n>            reseed every [stream]/[tenant]\n"
               "                        section (stream i gets n+i, tenant\n"
               "                        i gets n+1000+i) for randomized\n"
               "                        stress sweeps of one scenario file\n"
               "  -h, --help            show this help\n"
               "\n"
               "exit codes: 0 ok, 1 runtime error, 2 bad flags,\n"
               "            3 invariant violations found by --analyze,\n"
               "            4 incomplete requests found by --prof,\n"
               "            5 hard SLO violations found by --slo\n");
}

struct Args {
  std::string scenario_path;  // empty = built-in demo
  std::string trace_path;
  std::string metrics_path;
  std::string analysis_path;
  std::string prof_path;
  std::string stream_path;
  std::string slo_rules_path;
  std::string alerts_path;
  bool stream_wall = false;
  int exemplar_k = 0;
  long seed = -1;  // -1 = keep the seeds written in the scenario file
};

// Parses argv into Args. Returns true on success; on failure prints an
// error plus usage to stderr and leaves `exit_code` set.
bool parse_args(int argc, char** argv, Args& args, int& exit_code) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_usage(stdout);
      exit_code = 0;
      return false;
    }
    if (arg == "--trace" || arg == "--metrics" || arg == "--analyze" ||
        arg == "--prof" || arg == "--stream" || arg == "--slo" ||
        arg == "--alerts") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a file argument\n\n",
                     arg.c_str());
        print_usage(stderr);
        exit_code = 2;
        return false;
      }
      (arg == "--trace"     ? args.trace_path
       : arg == "--metrics" ? args.metrics_path
       : arg == "--analyze" ? args.analysis_path
       : arg == "--prof"    ? args.prof_path
       : arg == "--stream"  ? args.stream_path
       : arg == "--slo"     ? args.slo_rules_path
                            : args.alerts_path) = argv[++i];
      continue;
    }
    if (arg == "--stream-wall") {
      args.stream_wall = true;
      continue;
    }
    if (arg == "--exemplars") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --exemplars requires a count argument\n\n");
        print_usage(stderr);
        exit_code = 2;
        return false;
      }
      char* end = nullptr;
      const long k = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || k <= 0) {
        std::fprintf(stderr,
                     "error: --exemplars requires a positive count (got "
                     "'%s')\n\n",
                     argv[i]);
        print_usage(stderr);
        exit_code = 2;
        return false;
      }
      args.exemplar_k = static_cast<int>(k);
      continue;
    }
    if (arg == "--seed") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --seed requires a number argument\n\n");
        print_usage(stderr);
        exit_code = 2;
        return false;
      }
      char* end = nullptr;
      const long n = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 0) {
        std::fprintf(stderr,
                     "error: --seed requires a non-negative number (got "
                     "'%s')\n\n",
                     argv[i]);
        print_usage(stderr);
        exit_code = 2;
        return false;
      }
      args.seed = n;
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n\n", arg.c_str());
      print_usage(stderr);
      exit_code = 2;
      return false;
    }
    if (!args.scenario_path.empty()) {
      std::fprintf(stderr,
                   "error: more than one scenario file given ('%s', '%s')\n\n",
                   args.scenario_path.c_str(), arg.c_str());
      print_usage(stderr);
      exit_code = 2;
      return false;
    }
    args.scenario_path = arg;
  }
  if (!args.alerts_path.empty() && args.slo_rules_path.empty()) {
    std::fprintf(stderr, "error: --alerts requires --slo\n\n");
    print_usage(stderr);
    exit_code = 2;
    return false;
  }
  if (args.stream_wall && args.stream_path.empty()) {
    std::fprintf(stderr, "error: --stream-wall requires --stream\n\n");
    print_usage(stderr);
    exit_code = 2;
    return false;
  }
  if (args.exemplar_k > 0 && args.stream_path.empty()) {
    std::fprintf(stderr, "error: --exemplars requires --stream\n\n");
    print_usage(stderr);
    exit_code = 2;
    return false;
  }
  // --slo without --alerts still writes the alert artifact somewhere
  // predictable.
  if (!args.slo_rules_path.empty() && args.alerts_path.empty()) {
    args.alerts_path = "alerts.jsonl";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  int exit_code = 0;
  if (!parse_args(argc, argv, args, exit_code)) return exit_code;

  workloads::ScenarioConfig cfg;
  try {
    if (!args.scenario_path.empty()) {
      std::printf("== run_scenario: %s ==\n\n", args.scenario_path.c_str());
      cfg = workloads::load_scenario(args.scenario_path);
    } else {
      std::printf("== run_scenario (built-in demo; pass a file path to run "
                  "your own) ==\n\n");
      cfg = workloads::parse_scenario(std::string(kDemoScenario));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (args.seed >= 0) {
    // One scenario file, many runs: derive distinct-but-deterministic seeds
    // for every traffic section so ASan sweeps explore fresh interleavings.
    const auto base = static_cast<std::uint64_t>(args.seed);
    for (std::size_t i = 0; i < cfg.streams.size(); ++i) {
      cfg.streams[i].seed = base + i;
    }
    for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
      cfg.tenants[i].seed = base + 1000 + i;
    }
  }

  cfg.testbed.exemplars = args.exemplar_k;

  workloads::RunResult result;
  try {
    workloads::RunArtifacts artifacts;
    artifacts.trace_path = args.trace_path;
    artifacts.metrics_path = args.metrics_path;
    artifacts.analysis_path = args.analysis_path;
    artifacts.prof_path = args.prof_path;
    artifacts.stream_path = args.stream_path;
    artifacts.slo_rules_path = args.slo_rules_path;
    artifacts.alerts_path = args.alerts_path;
    if (args.stream_wall) {
      // Wall clock injected from the bench layer only: src code never reads
      // it (determinism lint DL001), and the default stream file stays
      // byte-reproducible without this flag.
      artifacts.wall_clock_ms = [] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
      };
    }
    result = workloads::run(cfg, artifacts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  metrics::Table table({"Stream", "Tenant", "Completed", "Errors",
                        "Mean resp(s)", "p95(s)", "Max(s)"});
  for (const auto& s : result.streams) {
    std::vector<double> resp_s;
    for (const auto t : s.response_times) resp_s.push_back(sim::to_seconds(t));
    table.add_row({s.app, s.tenant, std::to_string(s.completed),
                   std::to_string(s.errors),
                   metrics::Table::fmt(s.mean_response_s()),
                   metrics::Table::fmt(metrics::percentile(resp_s, 95)),
                   metrics::Table::fmt(sim::to_seconds(s.max_response))});
  }
  table.print();
  if (!args.trace_path.empty()) {
    std::printf("(trace written to %s)\n", args.trace_path.c_str());
  }
  if (!args.metrics_path.empty()) {
    std::printf("(metrics written to %s)\n", args.metrics_path.c_str());
  }
  if (!args.prof_path.empty()) {
    std::printf("(prof report written to %s)\n", args.prof_path.c_str());
  }
  if (!args.stream_path.empty()) {
    std::printf("(stream written to %s)\n", args.stream_path.c_str());
  }
  if (args.exemplar_k > 0) {
    std::printf("(exemplars written to %s.exemplars.jsonl)\n",
                args.stream_path.c_str());
  }
  if (!args.slo_rules_path.empty()) {
    std::printf("(alerts written to %s: %lld warn, %lld fail, %lld hard)\n",
                args.alerts_path.c_str(),
                static_cast<long long>(result.slo_warns),
                static_cast<long long>(result.slo_fails),
                static_cast<long long>(result.slo_hard_violations));
  }
  if (!args.analysis_path.empty()) {
    std::printf("(analysis report written to %s: %lld invariant violations, "
                "%lld logical races)\n",
                args.analysis_path.c_str(),
                static_cast<long long>(result.invariant_violations),
                static_cast<long long>(result.logical_races));
    if (result.invariant_violations > 0) return 3;
  }
  if (!args.prof_path.empty() && result.prof_incomplete_requests > 0) {
    std::fprintf(stderr, "prof: %d requests never completed\n",
                 result.prof_incomplete_requests);
    return 4;
  }
  if (!args.slo_rules_path.empty() && result.slo_hard_violations > 0) {
    std::fprintf(stderr, "slo: %lld hard violations (see %s)\n",
                 static_cast<long long>(result.slo_hard_violations),
                 args.alerts_path.c_str());
    return 5;
  }
  return 0;
}
