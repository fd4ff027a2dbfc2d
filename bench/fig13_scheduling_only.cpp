// Fig. 13: isolating the benefit of device-level GPU scheduling. Baseline is
// "the GRR policy with four GPUs shared" (paper wording): GRR over the
// supernode pool with no device-level dispatcher, in the previous scheduler
// generation (Rain). The three policy configurations are measured against
// that single baseline, so the Strings rows also carry the context-packing
// gain — which is how the paper's 1.40x / 1.95x / 1.90x split reads.
//
// Paper result: LAS-Rain 1.40x, LAS-Strings 1.95x, PS-Strings 1.90x.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("fig13_scheduling_only",
               "Fig. 13 (LAS/PS vs GRR with 4 GPUs shared)", opt);

  std::vector<workloads::WorkloadPair> pairs = workloads::workload_pairs();
  if (opt.quick) pairs = {pairs[1], pairs[9], pairs[13], pairs[20]};

  // GRR over the shared 4-GPU pool, for the baseline and every config.
  const auto config = [](const char* label, workloads::Mode mode,
                         const char* device_policy) {
    SweepConfig c{label, {}};
    c.testbed.mode = mode;
    c.testbed.nodes = workloads::supernode();
    c.testbed.balancing_policy = "GRR";
    c.testbed.device_policy = device_policy;
    return c;
  };
  // Baseline: no device-level dispatcher, Rain.
  const SweepConfig base =
      config("GRR-Rain", workloads::Mode::kRain, "AllAwake");
  const Sweep sweep = run_sweep(
      pair_rows(pairs, opt),
      {config("LAS-Rain", workloads::Mode::kRain, "LAS"),
       config("LAS-Strings", workloads::Mode::kStrings, "LAS"),
       config("PS-Strings", workloads::Mode::kStrings, "PS")},
      [&base](const SweepRow& row) {
        return mean_responses(bench::run(base.label + "." + row.name,
                                         {base.testbed, row.streams, {}}));
      });
  report_table("fig13_scheduling_only",
               sweep.table("Pair", {mix_column(pairs)}));

  std::printf("\npaper: LAS-Rain 1.40x  LAS-Strings 1.95x  PS-Strings 1.90x\n");
  return 0;
}
