// Fig. 14: feedback-based load balancing (RTF, GUF) on the supernode. The
// Policy Arbiter starts every app type on GWtMin and switches to the
// feedback policy once the first Feedback Engine record for that type
// arrives (dynamic policy switching).
//
// Paper result (averages): RTF-Rain 2.22x, GUF-Rain 2.51x, RTF-Strings
// 3.23x, GUF-Strings 3.96x; GUF wins on pairs mixing very high (DC, HI,
// MM, BO) and very low (GA, SN, BS) GPU utilization.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("fig14_feedback",
               "Fig. 14 (RTF/GUF feedback balancing vs single-node GRR)",
               opt);

  std::vector<workloads::WorkloadPair> pairs = workloads::workload_pairs();
  if (opt.quick) pairs = {pairs[2], pairs[9], pairs[16], pairs[23]};

  struct Config {
    const char* label;
    workloads::Mode mode;
    const char* feedback;
  };
  const std::vector<Config> configs = {
      {"RTF-Rain", workloads::Mode::kRain, "RTF"},
      {"RTF-Strings", workloads::Mode::kStrings, "RTF"},
      {"GUF-Rain", workloads::Mode::kRain, "GUF"},
      {"GUF-Strings", workloads::Mode::kStrings, "GUF"},
  };

  const auto baseline = pair_baselines(pairs, opt);

  std::vector<std::string> headers{"Pair", "Mix"};
  for (const auto& c : configs) headers.push_back(c.label);
  metrics::Table table(headers);
  std::vector<std::vector<double>> speedups(configs.size());

  for (const auto& pair : pairs) {
    std::vector<std::string> row{std::string(1, pair.label),
                                 pair.long_app + "-" + pair.short_app};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      workloads::ScenarioConfig cfg;
      cfg.testbed.mode = configs[c].mode;
      cfg.testbed.nodes = workloads::supernode();
      // GWtMin until feedback exists, then the Arbiter switches.
      cfg.testbed.balancing_policy = "GWtMin";
      cfg.testbed.feedback_policy = configs[c].feedback;
      cfg.streams = pair_streams(pair, opt);
      const double ws =
          pair_speedup(baseline, pair, bench::run(configs[c].label, cfg));
      speedups[c].push_back(ws);
      row.push_back(metrics::Table::fmt(ws) + "x");
    }
    table.add_row(std::move(row));
  }

  std::vector<std::string> avg{"avg", "-"};
  for (const auto& s : speedups) {
    avg.push_back(metrics::Table::fmt(metrics::mean(s)) + "x");
  }
  table.add_row(std::move(avg));
  report_table("fig14_feedback", table);

  std::printf("\npaper: RTF-Rain 2.22x  GUF-Rain 2.51x  RTF-Strings 3.23x  "
              "GUF-Strings 3.96x\n");
  return 0;
}
