// strings_prof: offline critical-path profiler over exported trace JSON.
//
//   $ strings_prof trace.json [report.txt]
//
// Re-derives exactly the report `run_scenario --prof` produces online, from
// nothing but the exported Chrome trace-event JSON: request umbrella spans
// carry the encoded phase-transition record, binding and tenant weight;
// KL/H2D/D2H spans carry per-op tenant attribution (summing their durations
// reproduces the attained service the LAS CGS math accumulated); and the
// strings_run_config metadata event carries the run labels. Both paths feed
// the same obs::prof engine, so the two reports are byte-for-byte identical
// (pinned by the prof_online_offline_identical ctest fixture).
//
// The trace is read once and walked an event at a time with obs/json's
// Reader. Timestamps are re-read textually from each number's source token
// ("%lld.%03lld" microseconds), so exact integer nanoseconds round-trip
// with no floating-point error.
//
// Exit codes: 0 ok, 1 bad input (unreadable/invalid JSON), 2 usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/prof.hpp"

namespace {

namespace json = strings::obs::json;
using json::Value;
using strings::obs::RequestTrace;
using strings::obs::prof::ProfInput;
using strings::obs::prof::ProfRequest;

/// Exact integer nanoseconds from the export's "%lld.%03lld" microsecond
/// token (textual split — no floating-point round trip).
bool ns_from_us_token(const std::string& tok, long long* out) {
  const std::size_t dot = tok.find('.');
  try {
    if (dot == std::string::npos) {
      *out = std::stoll(tok) * 1000;
      return true;
    }
    const long long us = std::stoll(tok.substr(0, dot));
    std::string frac = tok.substr(dot + 1);
    while (frac.size() < 3) frac += '0';
    frac = frac.substr(0, 3);
    const long long ns = std::stoll(frac);
    *out = us * 1000 + (us < 0 ? -ns : ns);
    return true;
  } catch (...) {
    return false;
  }
}

long long to_ll(const Value& args, std::string_view key, long long fallback) {
  const Value* v = args.find(key);
  if (v == nullptr) return fallback;
  try {
    return std::stoll(v->text);
  } catch (...) {
    return fallback;
  }
}

/// A request's tenant weight (1 when the event carries none).
double weight_of(const Value& args) {
  const std::string& w = args["weight"].text;
  return w.empty() ? 1.0 : std::strtod(w.c_str(), nullptr);
}

/// Folds one trace event into the profiler's input.
void fold_event(const Value& ev, ProfInput* input,
                std::vector<ProfRequest>* requests) {
  const std::string& ph = ev["ph"].text;
  const std::string& name = ev["name"].text;
  const Value& args = ev["args"];
  if (ph == "M" && name == "strings_run_config") {
    input->meta.clear();
    for (const auto& [k, v] : args.members) input->meta.emplace(k, v.text);
  } else if (ph == "X" && (name == "KL" || name == "H2D" || name == "D2H")) {
    const std::string& tenant = args["tenant"].text;
    long long dur = 0;
    if (!tenant.empty() && ns_from_us_token(ev["dur"].text, &dur)) {
      input->attained_ns[tenant] += dur;
    }
  } else if (ph == "X" && name.rfind("request ", 0) == 0) {
    ProfRequest r;
    r.app_id = static_cast<std::uint64_t>(to_ll(args, "app_id", 0));
    r.app_type = name.substr(8);
    r.tenant = args["tenant"].text;
    r.weight = weight_of(args);
    r.origin = static_cast<int>(to_ll(args, "origin", 0));
    r.gid = static_cast<int>(to_ll(args, "gid", -1));
    r.node = static_cast<int>(to_ll(args, "node", -1));
    r.issued_at = to_ll(args, "issued", -1);
    r.completed_at = to_ll(args, "completed", -1);
    r.steps = RequestTrace::decode_steps(args["steps"].text);
    requests->push_back(std::move(r));
  } else if (ph == "X" && name == "occ") {
    // Forensics flight-recorder stamps, exported in ring order under the
    // synthetic "forensics" process. The profiler indexes (and sorts) them
    // per resource, so byte-parity with the online path needs only the
    // exact ns round-trip, not the order.
    long long ts = 0, dur = 0;
    if (ns_from_us_token(ev["ts"].text, &ts) &&
        ns_from_us_token(ev["dur"].text, &dur)) {
      strings::obs::OccupantStamp s;
      s.resource = args["res"].text;
      s.tenant = args["tenant"].text;
      s.begin = ts;
      s.end = ts + dur;
      input->occupants.push_back(std::move(s));
    }
  } else if (ph == "i" && name == "request.incomplete") {
    ProfRequest r;
    r.app_id = static_cast<std::uint64_t>(to_ll(args, "app_id", 0));
    r.app_type = args["app"].text;
    r.tenant = args["tenant"].text;
    r.weight = weight_of(args);
    r.issued_at = to_ll(args, "issued", -1);
    r.completed_at = -1;
    requests->push_back(std::move(r));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string report_path;
  std::string exemplars_path;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--exemplars") {
      if (i + 1 >= argc || !exemplars_path.empty()) {
        usage_error = true;
        break;
      }
      exemplars_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error = true;
      break;
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else if (report_path.empty()) {
      report_path = arg;
    } else {
      usage_error = true;
      break;
    }
  }
  if (usage_error || trace_path.empty()) {
    std::fprintf(
        stderr,
        "usage: strings_prof <trace.json> [report.txt] "
        "[--exemplars <out.jsonl>]\n"
        "\n"
        "Re-derives the run_scenario --prof report offline from an\n"
        "exported Chrome trace JSON. Writes to report.txt (stdout\n"
        "when omitted). --exemplars re-derives the strings.exemplar.v1\n"
        "tail-exemplar lines from the trace's forensics occ spans —\n"
        "byte-identical to the sidecar run_scenario --exemplars wrote\n"
        "online.\n"
        "exit codes: 0 ok, 1 bad input, 2 usage error\n");
    return 2;
  }
  std::string text;
  if (!json::read_file(trace_path, &text)) {
    std::fprintf(stderr, "strings_prof: cannot open %s\n", trace_path.c_str());
    return 1;
  }

  // Walk the top-level object and fold traceEvents one event at a time;
  // the trace is never held as a tree.
  ProfInput input;
  std::vector<ProfRequest> requests;
  json::Reader r(text);
  json::Value v;
  std::string key;
  bool has_events = false;
  if (r.begin_object()) {
    while (r.next_member(&key)) {
      if (key != "traceEvents" || r.peek() != '[') {
        r.value(&v);
        continue;
      }
      has_events = true;
      r.begin_array();
      while (r.next_item() && r.value(&v)) fold_event(v, &input, &requests);
    }
  }
  if (!r.ok() || !r.at_end()) {
    std::fprintf(stderr, "strings_prof: %s: %s\n", trace_path.c_str(),
                 r.error().c_str());
    return 1;
  }
  if (!has_events) {
    std::fprintf(stderr, "strings_prof: no traceEvents array in %s\n",
                 trace_path.c_str());
    return 1;
  }

  // The online profiler iterates the tracer's request map (ascending
  // app_id); match that order so the reports are byte-identical.
  std::stable_sort(requests.begin(), requests.end(),
                   [](const ProfRequest& a, const ProfRequest& b) {
                     return a.app_id < b.app_id;
                   });
  input.requests = std::move(requests);

  const strings::obs::prof::Report report =
      strings::obs::prof::profile(input);
  if (!report_path.empty()) {
    std::ofstream out(report_path.c_str());
    if (!out) {
      std::fprintf(stderr, "strings_prof: cannot write %s\n",
                   report_path.c_str());
      return 1;
    }
    strings::obs::prof::render(report, out);
  } else {
    std::ostringstream os;
    strings::obs::prof::render(report, os);
    std::fputs(os.str().c_str(), stdout);
  }
  if (!exemplars_path.empty()) {
    std::ofstream ex(exemplars_path.c_str());
    if (!ex) {
      std::fprintf(stderr, "strings_prof: cannot write %s\n",
                   exemplars_path.c_str());
      return 1;
    }
    strings::obs::prof::write_exemplars_jsonl(report, ex);
  }
  return 0;
}
