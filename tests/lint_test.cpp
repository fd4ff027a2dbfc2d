// Pins strings_lint's observable contract: exact rule-id/file/line for every
// corpus fixture, NOLINT suppression semantics (honored + unused reported),
// baseline gating (clean / findings / regression exit codes, stale-entry
// warnings), and SARIF 2.1.0 well-formedness.
//
// The binary under test and the corpus root come in as compile definitions
// (STRINGS_LINT_BIN, LINT_CORPUS_DIR) from tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/wait.h>
#include <tuple>
#include <vector>

#include "obs/json.hpp"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

RunResult run(const std::string& args) {
  const std::string cmd = std::string(STRINGS_LINT_BIN) + " " + args + " 2>&1";
  RunResult r;
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), p)) > 0) r.output.append(buf, got);
  const int status = pclose(p);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string corpus(const std::string& rel = "") {
  std::string p = LINT_CORPUS_DIR;
  if (!rel.empty()) p += "/" + rel;
  return p;
}

std::string with_layering(const std::string& tail) {
  return "--layering " + corpus("layering.rules") + " " + tail;
}

// A reported finding: (rule, path, line), parsed from `path:line: [DLxxx]`.
using Finding = std::tuple<std::string, std::string, int>;

std::vector<Finding> parse_findings(const std::string& out) {
  std::vector<Finding> v;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    const std::string line = out.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t br = line.find(": [DL");
    if (br == std::string::npos) continue;
    const std::size_t colon = line.rfind(':', br - 1);
    if (colon == std::string::npos) continue;
    const std::string path = line.substr(0, colon);
    const int ln = std::atoi(line.substr(colon + 1, br - colon - 1).c_str());
    const std::size_t close = line.find(']', br);
    const std::string rule = line.substr(br + 3, close - br - 3);
    v.emplace_back(rule, path, ln);
  }
  return v;
}

using strings::obs::json::Value;

Value parse_json_file(const std::string& path, bool* ok) {
  std::string text;
  Value v;
  *ok = strings::obs::json::read_file(path, &text) &&
        strings::obs::json::parse(text, &v, nullptr);
  return v;
}

// ---------------------------------------------------------------------------
// Corpus: exact rule/file/line for every positive, silence for every negative.
// ---------------------------------------------------------------------------

TEST(LintCorpus, EveryRuleFiresAtItsPinnedLocationAndNowhereElse) {
  const RunResult r = run(with_layering(corpus()));
  EXPECT_EQ(r.exit_code, 1) << r.output;

  std::vector<Finding> expected = {
      {"DL001", "lint_corpus/dl001_pos.cpp", 4},
      {"DL001", "lint_corpus/dl001_pos.cpp", 5},
      {"DL002", "lint_corpus/dl002_pos.cpp", 5},
      {"DL002", "lint_corpus/dl002_pos.cpp", 6},
      {"DL003", "lint_corpus/dl003_pos.cpp", 5},
      {"DL004", "lint_corpus/dl004_pos.cpp", 6},
      {"DL004", "lint_corpus/dl004_pos.cpp", 7},
      {"DL005", "lint_corpus/dl005_pos.cpp", 2},
      {"DL005", "lint_corpus/dl005_pos.cpp", 2},  // __DATE__ and __TIME__
      {"DL006", "lint_corpus/src/c/dl006_pos.cpp", 3},
      {"DL007", "lint_corpus/src/x/dl007_pos.cpp", 3},
      {"DL008", "lint_corpus/src/obs/dl008_pos.cpp", 7},
      {"DL009", "lint_corpus/dl009_pos.cpp", 14},
      {"DL010", "lint_corpus/dl010_pos.cpp", 14},
      {"DL011", "lint_corpus/src/x/dl011_pos.cpp", 4},
      {"DL012", "lint_corpus/dl012_pos.cpp", 5},
  };
  std::vector<Finding> got = parse_findings(r.output);
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << r.output;

  // No negative fixture may produce a finding of any kind.
  for (const auto& f : got) {
    EXPECT_EQ(std::get<1>(f).find("_neg"), std::string::npos)
        << "negative fixture flagged: " << std::get<1>(f);
  }
  EXPECT_NE(r.output.find("16 finding(s) (0 baselined, 16 new)"),
            std::string::npos)
      << r.output;
}

TEST(LintCorpus, ReferenceAcrossEraseBugClassIsCaughtByDl009) {
  // The PR 6 GpuScheduler::unregister_app pattern, verbatim in the fixture:
  // a typed reference into a FlatMap used after erase() of the same map.
  const RunResult r = run(corpus("dl009_pos.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[DL009]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("used after erase()"), std::string::npos)
      << r.output;
  // The doctrine-approved shapes (copy-out-first, iterator re-seat) pass.
  const RunResult ok = run(corpus("dl009_neg.cpp"));
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

// ---------------------------------------------------------------------------
// NOLINT suppression semantics.
// ---------------------------------------------------------------------------

TEST(LintNolint, SuppressionOnAdjacentLineIsHonored) {
  const RunResult r = run(corpus("dl012_neg.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("[DL003]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 file(s) clean"), std::string::npos) << r.output;
}

TEST(LintNolint, UnusedSuppressionIsItselfAFinding) {
  const RunResult r = run(corpus("dl012_pos.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[DL012]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("suppresses nothing"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("[DL003]"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// Baseline gating.
// ---------------------------------------------------------------------------

TEST(LintBaseline, FullBaselineTurnsFindingsIntoCleanExitZero) {
  const std::string base = testing::TempDir() + "lint_full_baseline.txt";
  const RunResult w =
      run(with_layering("--write-baseline " + base + " " + corpus()));
  ASSERT_EQ(w.exit_code, 0) << w.output;
  EXPECT_NE(w.output.find("wrote 16 baseline entries"), std::string::npos)
      << w.output;

  const RunResult r = run(with_layering("--baseline " + base + " " + corpus()));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("27 file(s) clean (16 baselined finding(s))"),
            std::string::npos)
      << r.output;
}

TEST(LintBaseline, NewFindingBeyondBaselineExitsThree) {
  const std::string base = testing::TempDir() + "lint_partial_baseline.txt";
  const RunResult w =
      run("--write-baseline " + base + " " + corpus("dl001_pos.cpp"));
  ASSERT_EQ(w.exit_code, 0) << w.output;

  const RunResult r = run("--baseline " + base + " " + corpus("dl001_pos.cpp") +
                          " " + corpus("dl003_pos.cpp"));
  EXPECT_EQ(r.exit_code, 3) << r.output;
  // Old findings print as baselined; only the DL003 one is new.
  EXPECT_NE(r.output.find("[DL001] (baselined)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[DL003]"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("[DL003] (baselined)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("3 finding(s) (2 baselined, 1 new)"),
            std::string::npos)
      << r.output;
}

TEST(LintBaseline, StaleEntriesAreWarnedButDoNotFail) {
  const std::string base = testing::TempDir() + "lint_stale_baseline.txt";
  const RunResult w =
      run("--write-baseline " + base + " " + corpus("dl001_pos.cpp"));
  ASSERT_EQ(w.exit_code, 0) << w.output;

  // Scan a clean file against that baseline: both entries are now stale.
  const RunResult r =
      run("--baseline " + base + " " + corpus("dl001_neg.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("stale baseline entry"), std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------------
// SARIF output.
// ---------------------------------------------------------------------------

TEST(LintSarif, ReportIsWellFormedAndMirrorsTheFindings) {
  const std::string out = testing::TempDir() + "lint_corpus.sarif";
  const RunResult r = run(with_layering("--sarif " + out + " " + corpus()));
  EXPECT_EQ(r.exit_code, 1) << r.output;

  bool ok = false;
  const Value doc = parse_json_file(out, &ok);
  ASSERT_TRUE(ok) << "SARIF is not valid JSON";
  EXPECT_EQ(doc["version"].text, "2.1.0");
  ASSERT_EQ(doc["runs"].items.size(), 1u);
  const Value& run0 = doc["runs"].items[0];
  const Value& driver = run0["tool"]["driver"];
  EXPECT_EQ(driver["name"].text, "strings_lint");
  ASSERT_EQ(driver["rules"].items.size(), 12u);  // DL001..DL012
  for (int i = 0; i < 12; ++i) {
    char id[8];
    std::snprintf(id, sizeof(id), "DL%03d", i + 1);
    EXPECT_EQ(driver["rules"].items[i]["id"].text, id);
  }

  const std::vector<Value>& results = run0["results"].items;
  ASSERT_EQ(results.size(), 16u);
  bool saw_dl009 = false;
  for (const Value& res : results) {
    EXPECT_FALSE(res["ruleId"].text.empty());
    EXPECT_EQ(res["level"].text, "error");  // nothing baselined here
    EXPECT_FALSE(res["message"]["text"].text.empty());
    ASSERT_EQ(res["locations"].items.size(), 1u);
    const Value& loc = res["locations"].items[0]["physicalLocation"];
    EXPECT_FALSE(loc["artifactLocation"]["uri"].text.empty());
    EXPECT_GT(loc["region"]["startLine"].number(), 0);
    if (res["ruleId"].text == "DL009") {
      saw_dl009 = true;
      EXPECT_EQ(loc["artifactLocation"]["uri"].text,
                "lint_corpus/dl009_pos.cpp");
      EXPECT_EQ(loc["region"]["startLine"].number(), 14);
    }
  }
  EXPECT_TRUE(saw_dl009);
}

TEST(LintSarif, BaselinedFindingsDowngradeToSuppressedNotes) {
  const std::string base = testing::TempDir() + "lint_sarif_baseline.txt";
  ASSERT_EQ(
      run(with_layering("--write-baseline " + base + " " + corpus()))
          .exit_code,
      0);
  const std::string out = testing::TempDir() + "lint_baselined.sarif";
  const RunResult r = run(with_layering("--baseline " + base + " --sarif " +
                                        out + " " + corpus()));
  EXPECT_EQ(r.exit_code, 0) << r.output;

  bool ok = false;
  const Value doc = parse_json_file(out, &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(doc["runs"].items.size(), 1u);
  const std::vector<Value>& results = doc["runs"].items[0]["results"].items;
  ASSERT_EQ(results.size(), 16u);
  for (const Value& res : results) {
    EXPECT_EQ(res["level"].text, "note");
    ASSERT_EQ(res["suppressions"].items.size(), 1u);
    EXPECT_EQ(res["suppressions"].items[0]["kind"].text, "external");
  }
}

// ---------------------------------------------------------------------------
// Layering summary on the corpus rules: the violation and the unused allow
// both surface in the machine-readable file.
// ---------------------------------------------------------------------------

TEST(LintLayering, SummaryReportsViolationsAndUnusedAllows) {
  const std::string out = testing::TempDir() + "lint_corpus_summary.txt";
  const RunResult r =
      run(with_layering("--layering-summary " + out + " " + corpus()));
  EXPECT_EQ(r.exit_code, 1) << r.output;

  std::ifstream in(out);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("# strings_lint layering summary v1"),
            std::string::npos);
  EXPECT_NE(text.find("edge a b uses=1 allowed"), std::string::npos) << text;
  EXPECT_NE(text.find("edge c b uses=0 VIOLATION"), std::string::npos) << text;
  EXPECT_NE(text.find("unused-allow a unused_layer"), std::string::npos)
      << text;
  EXPECT_NE(text.find("violations=1 unused_allows=1"), std::string::npos)
      << text;
}

}  // namespace
