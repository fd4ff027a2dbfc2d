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

  const auto config = [](const char* label, workloads::Mode mode,
                         const char* feedback) {
    SweepConfig c{label, {}};
    c.testbed.mode = mode;
    c.testbed.nodes = workloads::supernode();
    // GWtMin until feedback exists, then the Arbiter switches.
    c.testbed.balancing_policy = "GWtMin";
    c.testbed.feedback_policy = feedback;
    return c;
  };
  const Sweep sweep = run_sweep(
      pair_rows(pairs, opt),
      {config("RTF-Rain", workloads::Mode::kRain, "RTF"),
       config("RTF-Strings", workloads::Mode::kStrings, "RTF"),
       config("GUF-Rain", workloads::Mode::kRain, "GUF"),
       config("GUF-Strings", workloads::Mode::kStrings, "GUF")},
      single_node_grr(pairs, opt));
  report_table("fig14_feedback", sweep.table("Pair", {mix_column(pairs)}));

  std::printf("\npaper: RTF-Rain 2.22x  GUF-Rain 2.51x  RTF-Strings 3.23x  "
              "GUF-Strings 3.96x\n");
  return 0;
}
