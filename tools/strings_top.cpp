// strings_top — terminal dashboard over a telemetry stream.
//
// Consumes the line-delimited JSON written by `run_scenario --stream`
// ("strings.stream.v1", one object per tumbling window; schema in
// docs/observability.md) and renders per-GPU utilization, per-tenant
// latency/slowdown, and SLO alert status per window. When the run was
// recorded with --exemplars, the trailing "strings.exemplar.v1" lines are
// folded into an interference panel (victim blocked-on culprit plus the
// per-window tail exemplars) rendered after the last window, exemplar ids
// annotate the SLO alert trail, and each window's id list prints under
// the SLO line.
//
//   strings_top --replay run.stream.jsonl     # print every window, then exit
//   strings_top --replay --last run.jsonl     # print only the final state
//   strings_top --follow run.stream.jsonl     # tail a live run (ANSI redraw)
//
// The stream only carries series whose value changed in a window, so the
// dashboard folds lines (parsed by obs/json) into a latest-value map and
// renders from that.
// Replay mode is deterministic (pure function of the file) and is what the
// ctest smoke runs against the committed fixture; --follow polls the file
// for appended lines (tools/ may sleep and read the wall clock — the
// determinism lint governs src/ only).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace {

namespace json = strings::obs::json;

// -------------------------------------------------------------- dashboard --

struct GpuRow {
  double busy_delta_ms = 0.0;  // compute+h2d+d2h busy over the last window
  double kernels = 0.0;
};

struct TenantRow {
  double completed = 0.0;
  double errors = 0.0;
  double p99_response_ms = 0.0;
  double p99_slowdown = 0.0;
  bool has_latency = false;
};

struct AlertLine {
  std::string severity;
  std::string rule;
  std::string series;
  double value = 0.0;
  double threshold = 0.0;
  std::vector<std::string> exemplars;  // tail-exemplar ids, when forensics on
};

/// One folded strings.exemplar.v1 line (tail exemplar of a window).
struct ExemplarRow {
  std::string id;       // "w<window>.<rank>"
  std::string request;  // "<app>#<app_id> (<tenant>)"
  double wall_ms = 0.0;
  std::string top_culprit = "-";  // largest single culprit charge
};

/// What a folded line turned out to be.
enum class Fold { kWindow, kExemplar, kBad };

/// Rolling dashboard state folded over stream lines.
struct Dash {
  double window = -1.0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::map<std::string, double> latest;        // series -> value
  std::map<std::string, double> window_delta;  // series -> last delta seen
  std::map<std::string, TenantRow> tenants;
  std::vector<AlertLine> alerts;  // alerts of the latest window
  long long hard_total = 0;
  std::vector<std::string> window_exemplars;  // ids riding the latest window
  // victim tenant -> culprit tenant -> blocked ms, summed over exemplars.
  std::map<std::string, std::map<std::string, double>> interference;
  std::vector<ExemplarRow> exemplars;  // in file (window, rank) order

  Fold fold_line(const std::string& line) {
    json::Value v;
    if (!json::parse(line, &v, nullptr)) return Fold::kBad;
    const json::Value* schema = v.find("schema");
    if (schema == nullptr || schema->kind != json::Value::Kind::kString) {
      return Fold::kBad;
    }
    if (schema->text == "strings.exemplar.v1") {
      fold_exemplar(v);
      return Fold::kExemplar;
    }
    if (schema->text != "strings.stream.v1") return Fold::kBad;
    if (const json::Value* w = v.find("window")) window = w->number();
    start_ms = v["start_ms"].number();
    end_ms = v["end_ms"].number();
    window_delta.clear();
    alerts.clear();
    window_exemplars.clear();
    std::string leaf;
    for (const auto& [name, point] : v["series"].members) {
      if (const json::Value* x = point.find("delta")) {
        window_delta[name] = x->number();
      }
      const json::Value* x = point.find("value");
      if (x == nullptr) continue;
      latest[name] = x->number();
      if (TenantRow* row = tenant_row(name, &leaf)) {
        if (leaf == "completed") row->completed = x->number();
        if (leaf == "errors") row->errors = x->number();
      }
    }
    // Window p99s of the tenant histograms.
    for (const auto& [name, stats] : v["quantiles"].members) {
      const json::Value* p99 = stats.find("p99");
      TenantRow* row = p99 != nullptr ? tenant_row(name, &leaf) : nullptr;
      if (row == nullptr) continue;
      if (leaf == "response_ms") {
        row->p99_response_ms = p99->number();
        row->has_latency = true;
      } else if (leaf == "slowdown") {
        row->p99_slowdown = p99->number();
      }
    }
    for (const json::Value& a : v["alerts"].items) {
      AlertLine line{a["severity"].text, a["rule"].text, a["series"].text,
                     a["value"].number(), a["threshold"].number(), {}};
      for (const json::Value& id : a["exemplars"].items) {
        line.exemplars.push_back(id.text);
      }
      if (line.severity == "hard") ++hard_total;
      alerts.push_back(std::move(line));
    }
    for (const json::Value& id : v["exemplars"].items) {
      window_exemplars.push_back(id.text);
    }
    return Fold::kWindow;
  }

  /// Folds one strings.exemplar.v1 line: accumulates the victim x culprit
  /// blocked-ms matrix and keeps a display row per exemplar.
  void fold_exemplar(const json::Value& v) {
    const auto str = [&v](const char* key) {
      const json::Value* x = v.find(key);
      return x != nullptr && x->kind == json::Value::Kind::kString ? x->text
                                                                   : "?";
    };
    ExemplarRow row;
    row.id = str("id");
    const std::string tenant = str("tenant");
    row.request = str("app") + "#" +
                  std::to_string(static_cast<unsigned long long>(
                      v["app_id"].number())) +
                  " (" + tenant + ")";
    row.wall_ms = v["wall_ms"].number();
    // culprits: wait bucket -> culprit tenant -> blocked ms.
    double top_ms = 0.0;
    for (const auto& [bucket, culprits] : v["culprits"].members) {
      for (const auto& [culprit, ms] : culprits.members) {
        const double blocked_ms = ms.number();
        interference[tenant][culprit] += blocked_ms;
        if (blocked_ms > top_ms) {
          top_ms = blocked_ms;
          row.top_culprit = culprit;
        }
      }
    }
    exemplars.push_back(std::move(row));
  }

  /// The row of a "tenant/<t>/<leaf>" metric, with `*leaf` set; nullptr
  /// for any other metric.
  TenantRow* tenant_row(const std::string& metric, std::string* leaf) {
    const std::size_t slash = metric.find('/', 7);
    if (metric.compare(0, 7, "tenant/") != 0 || slash == std::string::npos) {
      return nullptr;
    }
    *leaf = metric.substr(slash + 1);
    return &tenants[metric.substr(7, slash - 7)];
  }

  std::map<std::string, GpuRow> gpus() const {
    std::map<std::string, GpuRow> out;
    auto leaf_of = [](const std::string& name, const char* suffix,
                      std::string* gpu) {
      // nodeN/gpuG/dev/<leaf>
      const std::size_t dev = name.find("/dev/");
      if (dev == std::string::npos) return false;
      if (name.compare(dev + 5, std::string::npos, suffix) != 0) return false;
      *gpu = name.substr(0, dev);
      return true;
    };
    for (const auto& [name, delta] : window_delta) {
      std::string gpu;
      if (leaf_of(name, "compute_busy_ms", &gpu) ||
          leaf_of(name, "h2d_busy_ms", &gpu) ||
          leaf_of(name, "d2h_busy_ms", &gpu)) {
        out[gpu].busy_delta_ms += delta;
      } else if (leaf_of(name, "kernels_completed", &gpu)) {
        out[gpu].kernels += delta;
      }
    }
    // Idle GPUs still render (latest carries their lifetime totals).
    for (const auto& [name, v] : latest) {
      std::string gpu;
      if (leaf_of(name, "compute_busy_ms", &gpu)) out[gpu];
    }
    return out;
  }

  void render(std::FILE* out) const {
    const double span = end_ms - start_ms;
    std::fprintf(out, "== strings_top · window %.0f · %.1f–%.1f ms ==\n",
                 window, start_ms, end_ms);
    std::fprintf(out, "%-18s %8s %10s\n", "GPU", "util%", "kernels");
    for (const auto& [gpu, row] : gpus()) {
      const double util =
          span > 0 ? std::min(100.0, 100.0 * row.busy_delta_ms / span) : 0.0;
      std::fprintf(out, "%-18s %8.1f %10.0f\n", gpu.c_str(), util,
                   row.kernels);
    }
    std::fprintf(out, "%-18s %10s %8s %12s %12s\n", "TENANT", "completed",
                 "errors", "p99 resp ms", "p99 slowdown");
    for (const auto& [tenant, row] : tenants) {
      std::fprintf(out, "%-18s %10.0f %8.0f", tenant.c_str(), row.completed,
                   row.errors);
      if (row.has_latency) {
        std::fprintf(out, " %12.3f %12.2f\n", row.p99_response_ms,
                     row.p99_slowdown);
      } else {
        std::fprintf(out, " %12s %12s\n", "-", "-");
      }
    }
    if (alerts.empty()) {
      std::fprintf(out, "SLO: ok (%lld hard total)\n", hard_total);
    } else {
      std::fprintf(out, "SLO alerts (%lld hard total):\n", hard_total);
      for (const auto& a : alerts) {
        std::fprintf(out, "  [%s] %s on %s: %.3f vs %.3f",
                     a.severity.c_str(), a.rule.c_str(), a.series.c_str(),
                     a.value, a.threshold);
        if (!a.exemplars.empty()) {
          std::fprintf(out, "  exemplars:");
          for (const auto& id : a.exemplars) {
            std::fprintf(out, " %s", id.c_str());
          }
        }
        std::fprintf(out, "\n");
      }
    }
    if (!window_exemplars.empty()) {
      std::fprintf(out, "exemplars:");
      for (const auto& id : window_exemplars) {
        std::fprintf(out, " %s", id.c_str());
      }
      std::fprintf(out, "\n");
    }
  }

  /// Interference panel, rendered once after replay (the exemplar lines
  /// trail the last window in the stream file).
  void render_interference(std::FILE* out) const {
    std::fprintf(out, "== interference (victim blocked-on culprit) ==\n");
    std::fprintf(out, "%-20s %-20s %12s\n", "VICTIM", "CULPRIT",
                 "blocked ms");
    for (const auto& [victim, row] : interference) {
      for (const auto& [culprit, blocked_ms] : row) {
        std::fprintf(out, "%-20s %-20s %12.3f\n", victim.c_str(),
                     culprit.c_str(), blocked_ms);
      }
    }
    std::fprintf(out, "%-10s %-26s %12s %s\n", "EXEMPLAR", "REQUEST",
                 "wall ms", "top culprit");
    for (const auto& ex : exemplars) {
      std::fprintf(out, "%-10s %-26s %12.3f %s\n", ex.id.c_str(),
                   ex.request.c_str(), ex.wall_ms, ex.top_culprit.c_str());
    }
  }
};

int usage(std::FILE* out, int code) {
  std::fprintf(out,
               "usage: strings_top (--replay | --follow) [--last] "
               "<stream.jsonl>\n"
               "  --replay   render each window of the file, then exit\n"
               "  --follow   tail the file for appended windows (Ctrl-C to "
               "stop)\n"
               "  --last     with --replay: render only the final window\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  bool follow = false;
  bool replay = false;
  bool last_only = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--follow") {
      follow = true;
    } else if (arg == "--replay") {
      replay = true;
    } else if (arg == "--last") {
      last_only = true;
    } else if (arg == "-h" || arg == "--help") {
      return usage(stdout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return usage(stderr, 2);
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "error: more than one stream file given\n");
      return usage(stderr, 2);
    }
  }
  if (path.empty() || follow == replay) {
    std::fprintf(stderr, "error: need exactly one of --replay/--follow and a "
                         "stream file\n");
    return usage(stderr, 2);
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }

  Dash dash;
  std::string line;
  long long parsed = 0;
  long long bad = 0;
  long long exemplar_lines = 0;
  if (replay) {
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      switch (dash.fold_line(line)) {
        case Fold::kBad:
          ++bad;
          continue;
        case Fold::kExemplar:
          ++exemplar_lines;
          continue;
        case Fold::kWindow:
          ++parsed;
          if (!last_only) dash.render(stdout);
          break;
      }
    }
    if (parsed == 0) {
      std::fprintf(stderr, "error: no stream.v1 lines in %s\n", path.c_str());
      return 1;
    }
    if (last_only) dash.render(stdout);
    if (exemplar_lines > 0) dash.render_interference(stdout);
    if (bad > 0) {
      std::fprintf(stderr, "(skipped %lld unparseable lines)\n", bad);
    }
    return 0;
  }

  // --follow: consume what exists, then poll for appends with an ANSI
  // home-and-clear redraw per new window.
  while (true) {
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const Fold f = dash.fold_line(line);
      if (f == Fold::kBad) continue;
      std::fprintf(stdout, "\x1b[H\x1b[2J");
      dash.render(stdout);
      if (!dash.exemplars.empty()) dash.render_interference(stdout);
      std::fflush(stdout);
    }
    in.clear();  // EOF is transient while the producer is alive
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}
