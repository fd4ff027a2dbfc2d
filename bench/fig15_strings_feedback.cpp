// Fig. 15: the two Strings-specific feedback policies. DTF collocates apps
// with contrasting data-transfer vs compute intensity so the copy and
// compute engines run concurrently; MBF spreads bandwidth-bound apps so
// compute-bound neighbours hide their memory latency. Both rely on CUDA
// streams + context packing, so they are Strings-only.
//
// Paper result (averages): DTF 3.73x, MBF 4.02x vs single-node GRR
// (8.06x / 8.70x vs the bare CUDA runtime); DTF peaks on pairs of high-
// compute (DC, EV, HI, MM) with high-transfer (MC, SN) apps; MBF peaks on
// low-bandwidth long apps (EV, DC) paired with high-bandwidth short apps
// (BS, HI, MC).
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("fig15_strings_feedback",
               "Fig. 15 (DTF/MBF, Strings-only, vs single-node GRR)", opt);

  std::vector<workloads::WorkloadPair> pairs = workloads::workload_pairs();
  if (opt.quick) pairs = {pairs[1], pairs[3], pairs[17], pairs[21]};

  const auto baseline = pair_baselines(pairs, opt);

  const std::vector<std::string> policies = {"DTF", "MBF"};
  metrics::Table table({"Pair", "Mix", "DTF-Strings", "MBF-Strings"});
  std::vector<std::vector<double>> speedups(policies.size());

  for (const auto& pair : pairs) {
    std::vector<std::string> row{std::string(1, pair.label),
                                 pair.long_app + "-" + pair.short_app};
    for (std::size_t c = 0; c < policies.size(); ++c) {
      workloads::ScenarioConfig cfg;
      cfg.testbed.mode = workloads::Mode::kStrings;
      cfg.testbed.nodes = workloads::supernode();
      cfg.testbed.balancing_policy = "GWtMin";
      cfg.testbed.feedback_policy = policies[c];
      cfg.streams = pair_streams(pair, opt);
      const double ws = pair_speedup(
          baseline, pair, bench::run(policies[c] + "-Strings", cfg));
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
  report_table("fig15_strings_feedback", table);

  std::printf("\npaper: DTF 3.73x  MBF 4.02x (vs single-node GRR); MBF is "
              "the best feedback policy overall\n");
  return 0;
}
