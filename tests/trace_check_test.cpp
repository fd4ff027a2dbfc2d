// trace_check's own contract, driven as a subprocess: a minimal trace that
// names everything the checker looks for passes, and each variant below
// carries exactly one defect that must make it exit 1 with a diagnostic
// naming that defect. The binary comes in as TRACE_CHECK_BIN from
// tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

const std::vector<std::string> kEvents = {
    R"({"ph":"M","name":"process_name","pid":0,"args":{"name":"node0"}})",
    R"({"ph":"M","name":"thread_name","tid":1,"args":{"name":"gpu0 compute"}})",
    R"({"ph":"X","name":"KL","tid":1,"ts":1.000,"dur":2,"args":{"app":"a"}})",
    R"({"ph":"X","name":"H2D","tid":1,"ts":0.000,"dur":1.000,"args":{}})",
    R"({"ph":"X","name":"D2H","tid":1,"ts":3.500,"dur":1.000,"args":{}})",
    R"({"ph":"i","s":"t","name":"dispatch.wake","tid":2,"ts":1.0,"args":{}})",
    R"({"ph":"C","name":"queue_depth","tid":2,"ts":0.0,"args":{"value":1}})",
    R"({"ph":"C","name":"util","tid":2,"ts":0.000,"args":{"value":1}})",
    R"({"ph":"X","name":"request BS","tid":3,"ts":0.0,"dur":5.0,"args":{}})",
};

/// The object-form trace around `events`, listed under `key`.
std::string trace(const std::vector<std::string>& events,
                  const std::string& key = "traceEvents",
                  const std::string& extra = "") {
  std::string out = R"({"displayTimeUnit":"ms",)" + extra + "\"" + key + "\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n") + events[i];
  }
  return out + "\n]}\n";
}

/// `text` with the first `from` replaced by `to`.
std::string with(std::string text, const std::string& from,
                 const std::string& to) {
  return text.replace(text.find(from), from.size(), to);
}

struct Result {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

/// Writes `text` to a scratch file and runs trace_check `flags` on it.
Result check(const std::string& text, const std::string& flags = "") {
  const std::string path = testing::TempDir() + "trace_check_case.json";
  std::ofstream(path, std::ios::binary) << text;
  const std::string cmd =
      std::string(TRACE_CHECK_BIN) + " " + flags + " " + path + " 2>&1";
  Result r;
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), p)) > 0) r.output.append(buf, got);
  const int status = pclose(p);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

TEST(TraceCheck, AcceptsTheMinimalArtifactsAndRejectsEachDefect) {
  const std::string good = trace(kEvents);
  std::vector<std::string> deep = kEvents, scalar = kEvents;
  deep[3] = with(deep[3], "{}", "{\"v\":" + std::string(300, '[') +
                                    std::string(300, ']') + "}");
  scalar.insert(scalar.begin() + 5, "42");
  std::string members;
  for (std::size_t i = 0; i < kEvents.size(); ++i) {
    members += (i == 0 ? "\"" : ",\"") + std::to_string(i) + "\":" + kEvents[i];
  }
  const std::string window =
      R"({"schema":"strings.stream.v1","window":0,"start_ms":0,)"
      R"("end_ms":10,"series":{},"quantiles":{}})";
  const struct {
    std::string text;
    std::string flags;
    std::string message;  // expected in the output; exit 1 unless "OK"
  } cases[] = {
      {good, "", "OK (30 distinct strings)"},
      {good.substr(0, good.find("\"ts\":1.000") + 8), "",
       "invalid JSON: expected ',' or '}' at byte 216"},
      {good + "]", "", "invalid JSON: trailing characters after the value"},
      {with(good, "gpu0 compute", "gpu0\tcompute"), "",
       "raw control character in string at byte 165"},
      {with(good, "\"KL\"", "\"K\\qL\""), "", "unknown escape at byte 198"},
      {with(good, "\"app\":\"a\"", "\"app\":\"\\u12\""), "",
       "bad \\u escape at byte 246"},
      {trace(deep), "", "nesting deeper than 256 at byte"},
      // Check 2: the top level is an object whose traceEvents is an array
      // of objects. The last three cases passed while the checker only
      // looked for the word "traceEvents" anywhere in the file.
      {trace(kEvents, "events"), "", "missing traceEvents"},
      {R"({"displayTimeUnit":"ms","traceEvents":"none"})", "",
       "traceEvents is not an array"},
      {"{\"displayTimeUnit\":\"ms\",\"traceEvents\":{" + members + "}}", "",
       "traceEvents is not an array"},
      {trace(scalar), "", "traceEvents[5] is not an object"},
      {trace(kEvents, "events", "\"note\":\"traceEvents\","), "",
       "missing traceEvents"},
      // JSONL artifacts: every line names its schema and required fields.
      {window, "--stream", "OK (1 strings.stream.v1 lines)"},
      {with(window, R"("schema":"strings.stream.v1",)", ""), "--stream",
       "line 1: missing schema marker 'strings.stream.v1'"},
      {with(window, R"(,"quantiles":{})", ""), "--stream",
       "line 1: missing required field 'quantiles'"},
  };
  for (const auto& c : cases) {
    const Result r = check(c.text, c.flags);
    EXPECT_EQ(r.exit_code, c.message.rfind("OK", 0) == 0 ? 0 : 1) << c.text;
    EXPECT_NE(r.output.find(c.message), std::string::npos)
        << c.message << "\n" << r.output;
  }
}

}  // namespace
