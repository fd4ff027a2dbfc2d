// trace_check: standalone validator for exported observability artifacts,
// used by the CI fixtures (ctest runs `run_scenario --trace`/`--stream`/
// `--slo` on a scenario file, then this tool) and handy for eyeballing
// bench artifacts.
//
//   $ trace_check out.json             # Chrome trace-event JSON
//   $ trace_check --stream out.jsonl   # strings.stream.v1 telemetry lines
//                                      # (+ trailing strings.exemplar.v1
//                                      # lines when recorded --exemplars)
//   $ trace_check --alerts out.jsonl   # strings.alert.v1 SLO alert lines
//   $ trace_check --exemplars out.jsonl  # strings.exemplar.v1 tail lines
//
// Checks, in order:
//   1. the file is syntactically valid JSON (a full strict parse through
//      obs/json, walking traceEvents one event at a time);
//   2. the top level is an object with a "traceEvents" array of objects;
//   3. the expected observability tracks and events are present: per-device
//      compute/copy/dispatch thread names, KL / H2D / D2H op spans,
//      dispatch.wake instants, and at least one request-lifecycle track.
//
// Exits 0 when all checks pass; prints the first failure and exits 1
// otherwise.
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

namespace json = strings::obs::json;

/// Adds every object key and string value under `v` to `strings`.
void collect(const json::Value& v, std::set<std::string>* strings) {
  if (v.kind == json::Value::Kind::kString) strings->insert(v.text);
  for (const auto& item : v.items) collect(item, strings);
  for (const auto& [key, member] : v.members) {
    strings->insert(key);
    collect(member, strings);
  }
}

/// Walks a trace document, collecting every key and string value into
/// `strings`. The top-level object's traceEvents array is read one event
/// at a time, so the trace is never held as a tree. Returns the first way
/// the document misses check 2 ("" when it has the shape); syntax errors
/// are left in `r`.
std::string walk_trace(json::Reader& r, std::set<std::string>* strings) {
  json::Value v;
  if (r.peek() != '{') {
    r.value(&v);
    return "top level is not an object";
  }
  std::string shape = "missing traceEvents";
  std::string key;
  r.begin_object();
  while (r.next_member(&key)) {
    strings->insert(key);
    if (key != "traceEvents" || r.peek() != '[') {
      if (key == "traceEvents") shape = "traceEvents is not an array";
      if (!r.value(&v)) break;
      collect(v, strings);
      continue;
    }
    if (shape == "missing traceEvents") shape.clear();
    r.begin_array();
    for (std::size_t i = 0; r.next_item(); ++i) {
      if (r.peek() != '{' && shape.empty()) {
        shape = "traceEvents[" + std::to_string(i) + "] is not an object";
      }
      if (!r.value(&v)) break;
      collect(v, strings);
    }
  }
  return shape;
}

int check_failed(const std::string& path, const std::string& what) {
  std::fprintf(stderr, "trace_check: %s: %s\n", path.c_str(), what.c_str());
  return 1;
}

/// A JSONL line schema and the members each of its lines must carry.
struct Schema {
  const char* name;
  std::vector<std::string> required;
};

const Schema kStream = {"strings.stream.v1",
                        {"window", "start_ms", "end_ms", "series",
                         "quantiles"}};
const Schema kAlert = {"strings.alert.v1",
                       {"rule", "series", "severity", "window", "value",
                        "threshold"}};
const Schema kExemplar = {"strings.exemplar.v1",
                          {"id", "window", "rank", "tenant", "wall_ms",
                           "buckets", "culprits", "steps"}};

/// Validates a line-delimited artifact: every line is a JSON object whose
/// `schema` member names one of `schemas` and which carries that schema's
/// required members. The first schema is the artifact's own and needs at
/// least one line unless `allow_empty`; the others may trail it (a stream
/// recorded with --exemplars appends strings.exemplar.v1 lines).
int check_jsonl(const std::string& path, const std::vector<Schema>& schemas,
                bool allow_empty) {
  std::ifstream in(path);
  if (!in) return check_failed(path, "cannot open file");
  std::vector<long long> counts(schemas.size(), 0);
  std::string line, error;
  json::Value v;
  long long lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(++lines) + ": ";
    if (!json::parse(line, &v, &error)) {
      return check_failed(path, where + "invalid JSON: " + error);
    }
    if (v.kind != json::Value::Kind::kObject) {
      return check_failed(path, where + "line is not a JSON object");
    }
    std::size_t s = 0;
    while (s < schemas.size() && v["schema"].text != schemas[s].name) ++s;
    if (s == schemas.size()) {
      return check_failed(path, where + "missing schema marker '" +
                                    schemas[0].name + "'");
    }
    for (const std::string& field : schemas[s].required) {
      if (v.find(field) == nullptr) {
        return check_failed(path,
                            where + "missing required field '" + field + "'");
      }
    }
    ++counts[s];
  }
  if (counts[0] == 0 && !allow_empty) {
    return check_failed(path, "no JSON lines found");
  }
  std::string summary =
      std::to_string(counts[0]) + " " + schemas[0].name + " lines";
  for (std::size_t s = 1; s < schemas.size(); ++s) {
    if (counts[s] == 0) continue;
    summary += ", " + std::to_string(counts[s]) + " " + schemas[s].name +
               " lines";
  }
  std::printf("trace_check: %s OK (%s)\n", path.c_str(), summary.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // An alerts file of a healthy run is empty, and so is the exemplars
  // sidecar of a run whose windows saw no completions: both still valid.
  const std::string flag = argc == 3 ? argv[1] : "";
  if (flag == "--stream") {
    return check_jsonl(argv[2], {kStream, kExemplar}, false);
  }
  if (flag == "--alerts") return check_jsonl(argv[2], {kAlert}, true);
  if (flag == "--exemplars") return check_jsonl(argv[2], {kExemplar}, true);
  if (argc != 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: trace_check <trace.json>\n"
                 "       trace_check --stream <stream.jsonl>\n"
                 "       trace_check --alerts <alerts.jsonl>\n"
                 "       trace_check --exemplars <exemplars.jsonl>\n");
    return 2;
  }
  const std::string path = argv[1];
  std::string text;
  if (!json::read_file(path, &text)) {
    return check_failed(path, "cannot open file");
  }
  if (text.empty()) return check_failed(path, "file is empty");

  std::set<std::string> strings;
  json::Reader r(text);
  const std::string shape = walk_trace(r, &strings);
  if (!r.ok() || !r.at_end()) {
    return check_failed(path, "invalid JSON: " + r.error());
  }

  // Structural expectations of the object form.
  if (text.rfind("{\"displayTimeUnit\"", 0) != 0) {
    return check_failed(path, "not the object-form Chrome trace");
  }
  if (!shape.empty()) return check_failed(path, shape);

  // Content expectations: every name the observability layer promises.
  const char* required[] = {
      "process_name", "thread_name",  // metadata present
      "KL", "H2D", "D2H",             // device op spans
      "dispatch.wake",                // dispatcher instants
      "util", "queue_depth",          // derived device counters
  };
  for (const char* name : required) {
    if (strings.count(name) == 0) {
      return check_failed(path, std::string("missing expected name '") +
                                    name + "'");
    }
  }
  // At least one per-device track and one node process were named.
  bool has_compute_track = false, has_node = false, has_request = false;
  for (const auto& s : strings) {
    if (s.find(" compute") != std::string::npos) has_compute_track = true;
    if (s.rfind("node", 0) == 0) has_node = true;
    if (s.rfind("request ", 0) == 0) has_request = true;
  }
  if (!has_compute_track) {
    return check_failed(path, "no per-device compute track");
  }
  if (!has_node) return check_failed(path, "no node process");
  if (!has_request) return check_failed(path, "no request-lifecycle span");

  std::printf("trace_check: %s OK (%zu distinct strings)\n", path.c_str(),
              strings.size());
  return 0;
}
