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

  struct Config {
    const char* label;
    workloads::Mode mode;
    const char* device_policy;
  };
  const std::vector<Config> configs = {
      {"GWtMinLAS-Rain", workloads::Mode::kRain, "LAS"},
      {"GWtMinLAS-Strings", workloads::Mode::kStrings, "LAS"},
      {"GWtMinPS-Strings", workloads::Mode::kStrings, "PS"},
  };

  const auto baseline = pair_baselines(pairs, opt);

  std::vector<std::string> headers{"Pair", "Mix"};
  for (const auto& c : configs) headers.push_back(c.label);
  headers.push_back("Jain(LAS-S)");
  headers.push_back("Jain(PS-S)");
  metrics::Table table(headers);
  std::vector<std::vector<double>> speedups(configs.size());
  std::vector<double> jain_las, jain_ps;

  for (const auto& pair : pairs) {
    std::vector<std::string> row{std::string(1, pair.label),
                                 pair.long_app + "-" + pair.short_app};
    double las_jain = 0.0, ps_jain = 0.0;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      workloads::ScenarioConfig cfg;
      cfg.testbed.mode = configs[c].mode;
      cfg.testbed.nodes = workloads::supernode();
      cfg.testbed.balancing_policy = "GWtMin";
      cfg.testbed.device_policy = configs[c].device_policy;
      cfg.streams = pair_streams(pair, opt);
      const auto out = bench::run(configs[c].label, cfg);
      const double ws = pair_speedup(baseline, pair, out);
      speedups[c].push_back(ws);
      row.push_back(metrics::Table::fmt(ws) + "x");
      const double j = metrics::jain_fairness(
          {out.tenant_service_s.at("tenantA"),
           out.tenant_service_s.at("tenantB")});
      if (std::string(configs[c].label) == "GWtMinLAS-Strings") las_jain = j;
      if (std::string(configs[c].label) == "GWtMinPS-Strings") ps_jain = j;
    }
    jain_las.push_back(las_jain);
    jain_ps.push_back(ps_jain);
    row.push_back(metrics::Table::fmt(100 * las_jain, 1) + "%");
    row.push_back(metrics::Table::fmt(100 * ps_jain, 1) + "%");
    table.add_row(std::move(row));
  }

  std::vector<std::string> avg{"avg", "-"};
  for (const auto& s : speedups) {
    avg.push_back(metrics::Table::fmt(metrics::mean(s)) + "x");
  }
  avg.push_back(metrics::Table::fmt(100 * metrics::mean(jain_las), 1) + "%");
  avg.push_back(metrics::Table::fmt(100 * metrics::mean(jain_ps), 1) + "%");
  table.add_row(std::move(avg));
  report_table("fig12_gpu_scheduling", table);

  std::printf("\npaper: GWtMinLAS-Rain 2.18x  GWtMinLAS-Strings 3.10x  "
              "GWtMinPS-Strings 2.97x; PS matches LAS throughput without "
              "its unfairness\n");
  return 0;
}
