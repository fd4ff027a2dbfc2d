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
//   1. the file is syntactically valid JSON (full recursive-descent parse —
//      no dependency on an external JSON library);
//   2. the top level is an object with a "traceEvents" array of objects;
//   3. the expected observability tracks and events are present: per-device
//      compute/copy/dispatch thread names, KL / H2D / D2H op spans,
//      dispatch.wake instants, and at least one request-lifecycle track.
//
// Exits 0 when all checks pass; prints the first failure and exits 1
// otherwise.
#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace {

// ---- minimal JSON recursive-descent parser -------------------------------
// Validates syntax and calls out to a sink for every string value so the
// content checks don't need a DOM.

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;
  int depth = 0;
  // Every parsed string, plus (key, value) pairs for object members whose
  // values are strings — enough to find names and track titles.
  std::set<std::string>* strings;

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }

  bool parse_value() {
    if (++depth > 256) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    bool ok = false;
    const char c = text[pos];
    if (c == '{') {
      ok = parse_object();
    } else if (c == '[') {
      ok = parse_array();
    } else if (c == '"') {
      std::string out;
      ok = parse_string(out);
      if (ok) strings->insert(out);
    } else if (c == 't') {
      ok = parse_literal("true");
    } else if (c == 'f') {
      ok = parse_literal("false");
    } else if (c == 'n') {
      ok = parse_literal("null");
    } else {
      ok = parse_number();
    }
    --depth;
    return ok;
  }

  bool parse_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text.compare(pos, n, lit) != 0) return fail("bad literal");
    pos += n;
    return true;
  }

  bool parse_number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return fail("expected a value");
    return true;
  }

  bool parse_string(std::string& out) {
    if (text[pos] != '"') return fail("expected string");
    ++pos;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("bad escape");
        const char e = text[pos];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos + 4 >= text.size()) return fail("bad \\u escape");
            pos += 4;  // validated lexically only; content irrelevant here
            break;
          default: return fail("unknown escape");
        }
        ++pos;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out += c;
        ++pos;
      }
    }
    return fail("unterminated string");
  }

  bool parse_object() {
    ++pos;  // '{'
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos >= text.size() || !parse_string(key)) {
        return fail("expected object key");
      }
      strings->insert(key);
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
      ++pos;
      if (!parse_value()) return false;
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array() {
    ++pos;  // '['
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      if (!parse_value()) return false;
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }
};

int check_failed(const std::string& path, const std::string& what) {
  std::fprintf(stderr, "trace_check: %s: %s\n", path.c_str(), what.c_str());
  return 1;
}

/// One JSONL line: must be a standalone JSON object carrying `schema` and
/// every name in `required`. `strings` collects across lines.
bool check_jsonl_line(const std::string& line, const char* schema,
                      const char* const* required, std::size_t n_required,
                      std::string* why) {
  std::set<std::string> strings;
  Parser p{line, 0, "", 0, &strings};
  if (!p.parse_value()) {
    *why = "invalid JSON: " + p.error;
    return false;
  }
  p.skip_ws();
  if (p.pos != line.size()) {
    *why = "trailing garbage after JSON object";
    return false;
  }
  if (line.empty() || line.front() != '{') {
    *why = "line is not a JSON object";
    return false;
  }
  if (strings.count(schema) == 0) {
    *why = std::string("missing schema marker '") + schema + "'";
    return false;
  }
  for (std::size_t i = 0; i < n_required; ++i) {
    if (strings.count(required[i]) == 0) {
      *why = std::string("missing required field '") + required[i] + "'";
      return false;
    }
  }
  return true;
}

/// Validates a line-delimited JSON artifact. Streams must carry at least
/// one window; an alerts file may legitimately be empty (healthy run).
int check_jsonl(const std::string& path, const char* schema,
                const char* const* required, std::size_t n_required,
                bool allow_empty) {
  std::ifstream in(path);
  if (!in) return check_failed(path, "cannot open file");
  std::string line;
  long long lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    std::string why;
    if (!check_jsonl_line(line, schema, required, n_required, &why)) {
      return check_failed(path,
                          "line " + std::to_string(lines) + ": " + why);
    }
  }
  if (lines == 0 && !allow_empty) {
    return check_failed(path, "no JSON lines found");
  }
  std::printf("trace_check: %s OK (%lld %s lines)\n", path.c_str(), lines,
              schema);
  return 0;
}

const char* kExemplarRequired[] = {"id",      "window",   "rank",
                                   "tenant",  "wall_ms",  "buckets",
                                   "culprits", "steps"};

/// Validates a telemetry stream file. A run recorded with --exemplars
/// appends strings.exemplar.v1 lines after the final window; each line is
/// validated against its own schema, and at least one window must exist.
int check_stream(const std::string& path) {
  const char* win_required[] = {"window", "start_ms", "end_ms", "series",
                                "quantiles"};
  std::ifstream in(path);
  if (!in) return check_failed(path, "cannot open file");
  std::string line;
  long long lines = 0;
  long long windows = 0;
  long long exemplars = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    std::string why;
    const bool is_exemplar =
        line.find("\"strings.exemplar.v1\"") != std::string::npos;
    const bool ok =
        is_exemplar
            ? check_jsonl_line(line, "strings.exemplar.v1", kExemplarRequired,
                               8, &why)
            : check_jsonl_line(line, "strings.stream.v1", win_required, 5,
                               &why);
    if (!ok) {
      return check_failed(path, "line " + std::to_string(lines) + ": " + why);
    }
    if (is_exemplar) {
      ++exemplars;
    } else {
      ++windows;
    }
  }
  if (windows == 0) {
    return check_failed(path, "no JSON lines found");
  }
  if (exemplars == 0) {
    std::printf("trace_check: %s OK (%lld strings.stream.v1 lines)\n",
                path.c_str(), windows);
  } else {
    std::printf("trace_check: %s OK (%lld strings.stream.v1 lines, "
                "%lld strings.exemplar.v1 lines)\n",
                path.c_str(), windows, exemplars);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--stream") {
    return check_stream(argv[2]);
  }
  if (argc == 3 && std::string(argv[1]) == "--alerts") {
    const char* required[] = {"rule", "series", "severity", "window",
                              "value", "threshold"};
    return check_jsonl(argv[2], "strings.alert.v1", required, 6,
                       /*allow_empty=*/true);
  }
  if (argc == 3 && std::string(argv[1]) == "--exemplars") {
    // A run whose windows saw no completions derives no exemplars; an
    // empty sidecar is still a valid artifact.
    return check_jsonl(argv[2], "strings.exemplar.v1", kExemplarRequired, 8,
                       /*allow_empty=*/true);
  }
  if (argc != 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: trace_check <trace.json>\n"
                 "       trace_check --stream <stream.jsonl>\n"
                 "       trace_check --alerts <alerts.jsonl>\n"
                 "       trace_check --exemplars <exemplars.jsonl>\n");
    return 2;
  }
  const std::string path = argv[1];
  std::ifstream in(path);
  if (!in) return check_failed(path, "cannot open file");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  if (text.empty()) return check_failed(path, "file is empty");

  std::set<std::string> strings;
  Parser p{text, 0, "", 0, &strings};
  if (!p.parse_value()) return check_failed(path, "invalid JSON: " + p.error);
  p.skip_ws();
  if (p.pos != text.size()) {
    return check_failed(path, "trailing garbage after JSON document");
  }

  // Structural expectations of the object form.
  if (text.rfind("{\"displayTimeUnit\"", 0) != 0) {
    return check_failed(path, "not the object-form Chrome trace");
  }
  if (strings.count("traceEvents") == 0) {
    return check_failed(path, "missing traceEvents");
  }

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
