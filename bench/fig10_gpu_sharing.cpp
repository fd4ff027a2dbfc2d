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
  const Sweep sweep =
      run_sweep(pair_rows(pairs, opt), balancing_matrix(workloads::supernode()),
                single_node_grr(pairs, opt));
  report_table("fig10_gpu_sharing", sweep.table("Pair", {mix_column(pairs)}));

  std::printf("\npaper: GRR-Rain 1.60x  GMin-Rain 1.80x  GWtMin-Rain 1.82x  "
              "GRR-Strings 2.64x  GMin-Strings 2.69x  GWtMin-Strings 2.88x\n");
  return 0;
}
