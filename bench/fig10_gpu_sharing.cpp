// Fig. 10: benefits of GPU sharing on the emulated 4-GPU supernode.
//
// Each of the 24 workload pairs A..X runs as two independent exponential
// request streams: the long-running app arrives at NodeA, the short-running
// app at NodeB. Baseline: each stream served by its own single 2-GPU node
// under GRR ("single node GRR"); policies pool all four GPUs.
//
// Paper result (averages over pairs): GRR-Rain 1.60x, GMin-Rain 1.80x,
// GWtMin-Rain 1.82x, GRR-Strings 2.64x, GMin-Strings 2.69x,
// GWtMin-Strings 2.88x; peaks on pairs containing BS or GA (I, K, W).
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("fig10_gpu_sharing",
               "Fig. 10 (24 pairs, supernode, vs single-node GRR)", opt);

  std::vector<workloads::WorkloadPair> pairs = workloads::workload_pairs();
  if (opt.quick) {
    pairs = {pairs[0], pairs[8], pairs[10], pairs[22]};  // A, I, K, W
  }
  const auto baseline = pair_baselines(pairs, opt);

  auto configs = balancing_matrix(workloads::supernode());

  std::vector<std::string> headers{"Pair", "Mix"};
  for (const auto& c : configs) headers.push_back(c.first);
  metrics::Table table(headers);
  std::vector<std::vector<double>> speedups(configs.size());

  for (const auto& pair : pairs) {
    std::vector<std::string> row{std::string(1, pair.label),
                                 pair.long_app + "-" + pair.short_app};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const workloads::ScenarioConfig cfg{configs[c].second,
                                          pair_streams(pair, opt), {}};
      const double ws =
          pair_speedup(baseline, pair, bench::run(configs[c].first, cfg));
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
  report_table("fig10_gpu_sharing", table);

  std::printf("\npaper: GRR-Rain 1.60x  GMin-Rain 1.80x  GWtMin-Rain 1.82x  "
              "GRR-Strings 2.64x  GMin-Strings 2.69x  GWtMin-Strings 2.88x\n");
  return 0;
}
