// Fig. 12: throughput-oriented GPU scheduling (LAS, PS) combined with the
// best workload balancer (GWtMin), on the 4-GPU supernode, versus the
// single-node GRR baseline. Includes the paper's §V-D point that PS nearly
// matches LAS's throughput without LAS's unfairness (Jain column).
//
// Paper result (averages): GWtMinLAS-Rain 2.18x, GWtMinLAS-Strings 3.10x,
// GWtMin-PS-Strings 2.97x (PS within ~4% of LAS-Strings, ~27% above
// LAS-Rain).
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("fig12_gpu_scheduling",
               "Fig. 12 (GWtMin + LAS/PS, supernode, vs single-node GRR)",
               opt);

  std::vector<workloads::WorkloadPair> pairs = workloads::workload_pairs();
  if (opt.quick) pairs = {pairs[1], pairs[9], pairs[13], pairs[20]};

  const auto config = [](const char* label, workloads::Mode mode,
                         const char* device_policy) {
    SweepConfig c{label, {}};
    c.testbed.mode = mode;
    c.testbed.nodes = workloads::supernode();
    c.testbed.balancing_policy = "GWtMin";
    c.testbed.device_policy = device_policy;
    return c;
  };
  const Sweep sweep = run_sweep(
      pair_rows(pairs, opt),
      {config("GWtMinLAS-Rain", workloads::Mode::kRain, "LAS"),
       config("GWtMinLAS-Strings", workloads::Mode::kStrings, "LAS"),
       config("GWtMinPS-Strings", workloads::Mode::kStrings, "PS")},
      single_node_grr(pairs, opt));

  // Jain's index over the two tenants' attained service, per pair, of the
  // sweep's config `c`.
  const auto jain_column = [&sweep](const char* header, std::size_t c) {
    Column col{header, {}};
    std::vector<double> jain;
    for (const auto& results : sweep.results) {
      const auto& service = results[c].tenant_service_s;
      jain.push_back(metrics::jain_fairness(
          {service.at("tenantA"), service.at("tenantB")}));
      col.cells.push_back(metrics::Table::fmt(100 * jain.back(), 1) + "%");
    }
    col.avg = metrics::Table::fmt(100 * metrics::mean(jain), 1) + "%";
    return col;
  };
  report_table("fig12_gpu_scheduling",
               sweep.table("Pair", {mix_column(pairs)},
                           {jain_column("Jain(LAS-S)", 1),
                            jain_column("Jain(PS-S)", 2)}));

  std::printf("\npaper: GWtMinLAS-Rain 2.18x  GWtMinLAS-Strings 3.10x  "
              "GWtMinPS-Strings 2.97x; PS matches LAS throughput without "
              "its unfairness\n");
  return 0;
}
