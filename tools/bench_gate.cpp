// bench_gate: perf-regression comparator for BENCH_report.json artifacts.
//
//   $ bench_gate BENCH_baseline.json BENCH_report.json [--warn R] [--fail R]
//
// Both files map scenario labels to the stable schema bench/common writes
// when STRINGS_BENCH_REPORT is set:
//
//   { "fig9_micro/GMin": {"makespan_s": ..., "p50_s": ..., "p99_s": ...,
//                         "jain": ...}, ... }
//
// All values are virtual-time (the simulator is bit-deterministic), so any
// drift is a real behavior change, not machine noise. The gate is
// tolerance-based anyway so small intentional reschedulings don't block CI:
//
//   ratio = new/old per latency metric (makespan_s, p50_s, p99_s);
//   jain compares inverted (a DROP in fairness is the regression).
//   ratio > warn tolerance (default 1.10) -> warning, exit 0
//   ratio > fail tolerance (default 2.00) -> hard failure, exit 1
//
// Counts — completed (requests), alloc_errors, heap_fallbacks (SmallFn
// closures that spilled to the heap) — are exact: a report entry whose
// count differs from the baseline's, or lacks it, fails whatever the
// tolerances.
//
// Wall-clock columns — wall_s (lower is better) and events_per_sec (higher
// is better) — are machine-dependent, so they can only ever WARN, never
// fail, and use a looser tolerance (warn beyond 1.5x) to ride out CI host
// noise. They exist to surface kernel perf regressions early, not to gate.
//
// Labels missing from the report (bench removed/renamed) and new labels
// warn only, so adding benches never blocks. Baseline entries carrying no
// virtual-time metric at all (e.g. the committed perf/ speedup records,
// which only document before/after wall-clock numbers) are informational:
// their absence from a report is not even a warning. Exit codes: 0 ok
// (possibly with warnings), 1 regression beyond the fail tolerance,
// 2 usage/IO error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

namespace json = strings::obs::json;

using Entry = std::map<std::string, double>;
using Table = std::map<std::string, Entry>;

/// Reads a report: an object of label -> {metric: number, ...}. Members
/// that are not numbers are ignored. False (with the reason in `*error`)
/// when the file cannot be read or is not valid JSON.
bool load_table(const char* path, Table& out, std::string* error) {
  std::string text;
  json::Value doc;
  if (!json::read_file(path, &text)) {
    *error = "cannot open file";
    return false;
  }
  if (!json::parse(text, &doc, error)) return false;
  for (const auto& [label, metrics] : doc.members) {
    Entry entry;
    for (const auto& [metric, v] : metrics.members) {
      if (v.kind == json::Value::Kind::kNumber) entry[metric] = v.number();
    }
    if (!entry.empty()) out[label] = entry;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double warn_tol = 1.10, fail_tol = 2.00;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--warn") == 0 && i + 1 < argc) {
      warn_tol = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--fail") == 0 && i + 1 < argc) {
      fail_tol = std::strtod(argv[++i], nullptr);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "bench_gate: unknown flag '%s'\n", argv[i]);
      return 2;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.size() != 2 || warn_tol <= 1.0 || fail_tol < warn_tol) {
    std::fprintf(
        stderr,
        "usage: bench_gate <baseline.json> <report.json> [--warn R] "
        "[--fail R]\n"
        "  R are ratios > 1.0; warn (default 1.10) prints a warning,\n"
        "  fail (default 2.00) exits 1. See docs/observability.md.\n");
    return 2;
  }
  Table baseline, report;
  std::string error;
  if (!load_table(paths[0], baseline, &error)) {
    std::fprintf(stderr, "bench_gate: cannot read baseline %s: %s\n",
                 paths[0], error.c_str());
    return 2;
  }
  if (!load_table(paths[1], report, &error)) {
    std::fprintf(stderr, "bench_gate: cannot read report %s: %s\n",
                 paths[1], error.c_str());
    return 2;
  }

  int warnings = 0, failures = 0, compared = 0;
  static const char* kLatencyMetrics[] = {"makespan_s", "p50_s", "p99_s"};
  static const char* kCountMetrics[] = {"completed", "alloc_errors",
                                        "heap_fallbacks"};
  // Wall-clock is host-dependent: warn-only, looser tolerance, never fails.
  const double wall_warn_tol = std::max(warn_tol, 1.50);
  const auto is_info_only = [](const Entry& e) {
    return e.count("makespan_s") == 0 && e.count("p50_s") == 0 &&
           e.count("p99_s") == 0 && e.count("jain") == 0;
  };
  for (const auto& [label, base] : baseline) {
    auto it = report.find(label);
    if (it == report.end()) {
      if (!is_info_only(base)) {
        std::printf("WARN  %s: missing from report\n", label.c_str());
        ++warnings;
      }
      continue;
    }
    const Entry& cur = it->second;
    for (const char* m : kLatencyMetrics) {
      auto b = base.find(m);
      auto c = cur.find(m);
      if (b == base.end() || c == cur.end() || b->second <= 0.0) continue;
      ++compared;
      const double ratio = c->second / b->second;
      if (ratio > fail_tol) {
        std::printf("FAIL  %s %s: %.6f -> %.6f (%.2fx > %.2fx)\n",
                    label.c_str(), m, b->second, c->second, ratio, fail_tol);
        ++failures;
      } else if (ratio > warn_tol) {
        std::printf("WARN  %s %s: %.6f -> %.6f (%.2fx)\n", label.c_str(), m,
                    b->second, c->second, ratio);
        ++warnings;
      }
    }
    for (const char* m : kCountMetrics) {
      auto b = base.find(m);
      if (b == base.end()) continue;
      ++compared;
      auto c = cur.find(m);
      if (c == cur.end()) {
        std::printf("FAIL  %s %s: missing from report\n", label.c_str(), m);
        ++failures;
      } else if (c->second != b->second) {
        std::printf("FAIL  %s %s: %.0f -> %.0f (counts must match)\n",
                    label.c_str(), m, b->second, c->second);
        ++failures;
      }
    }
    auto bj = base.find("jain");
    auto cj = cur.find("jain");
    if (bj != base.end() && cj != cur.end() && bj->second > 0.0) {
      ++compared;
      // Fairness regresses downward: gate on old/new.
      const double ratio = cj->second > 0.0 ? bj->second / cj->second
                                            : fail_tol + 1.0;
      if (ratio > fail_tol) {
        std::printf("FAIL  %s jain: %.6f -> %.6f (dropped %.2fx > %.2fx)\n",
                    label.c_str(), bj->second, cj->second, ratio, fail_tol);
        ++failures;
      } else if (ratio > warn_tol) {
        std::printf("WARN  %s jain: %.6f -> %.6f (dropped %.2fx)\n",
                    label.c_str(), bj->second, cj->second, ratio);
        ++warnings;
      }
    }
    // Wall-clock columns: compare when both sides carry them, warn only.
    auto bw = base.find("wall_s");
    auto cw = cur.find("wall_s");
    if (bw != base.end() && cw != cur.end() && bw->second > 0.0) {
      ++compared;
      const double ratio = cw->second / bw->second;
      if (ratio > wall_warn_tol) {
        std::printf("WARN  %s wall_s: %.6f -> %.6f (%.2fx, wall-clock, "
                    "warn-only)\n",
                    label.c_str(), bw->second, cw->second, ratio);
        ++warnings;
      }
    }
    auto be = base.find("events_per_sec");
    auto ce = cur.find("events_per_sec");
    if (be != base.end() && ce != cur.end() && ce->second > 0.0) {
      ++compared;
      // Throughput regresses downward: gate on old/new.
      const double ratio = be->second / ce->second;
      if (ratio > wall_warn_tol) {
        std::printf("WARN  %s events_per_sec: %.0f -> %.0f (dropped %.2fx, "
                    "wall-clock, warn-only)\n",
                    label.c_str(), be->second, ce->second, ratio);
        ++warnings;
      }
    }
  }
  for (const auto& [label, cur] : report) {
    if (baseline.count(label) == 0) {
      std::printf("NOTE  %s: new entry (not in baseline)\n", label.c_str());
    }
  }
  std::printf(
      "bench_gate: %zu baseline entries, %d metrics compared, %d warnings, "
      "%d failures (warn > %.2fx, fail > %.2fx)\n",
      baseline.size(), compared, warnings, failures, warn_tol, fail_tol);
  return failures > 0 ? 1 : 0;
}
