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

  std::vector<SweepConfig> configs;
  for (const char* policy : {"DTF", "MBF"}) {
    SweepConfig c{std::string(policy) + "-Strings", {}};
    c.testbed.mode = workloads::Mode::kStrings;
    c.testbed.nodes = workloads::supernode();
    c.testbed.balancing_policy = "GWtMin";
    c.testbed.feedback_policy = policy;
    configs.push_back(std::move(c));
  }
  const Sweep sweep =
      run_sweep(pair_rows(pairs, opt), configs, single_node_grr(pairs, opt));
  report_table("fig15_strings_feedback",
               sweep.table("Pair", {mix_column(pairs)}));

  std::printf("\npaper: DTF 3.73x  MBF 4.02x (vs single-node GRR); MBF is "
              "the best feedback policy overall\n");
  return 0;
}
