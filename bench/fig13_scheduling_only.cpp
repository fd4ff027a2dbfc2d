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

  struct Config {
    const char* label;
    workloads::Mode mode;
    const char* device_policy;
  };
  const std::vector<Config> configs = {
      {"LAS-Rain", workloads::Mode::kRain, "LAS"},
      {"LAS-Strings", workloads::Mode::kStrings, "LAS"},
      {"PS-Strings", workloads::Mode::kStrings, "PS"},
  };

  std::vector<std::string> headers{"Pair", "Mix"};
  for (const auto& c : configs) headers.push_back(c.label);
  metrics::Table table(headers);
  std::vector<std::vector<double>> speedups(configs.size());

  for (const auto& pair : pairs) {
    // Baseline: GRR over the shared 4-GPU pool, no dispatcher, Rain.
    workloads::ScenarioConfig cfg;
    cfg.testbed.mode = workloads::Mode::kRain;
    cfg.testbed.nodes = workloads::supernode();
    cfg.testbed.balancing_policy = "GRR";
    cfg.testbed.device_policy = "AllAwake";
    cfg.streams = pair_streams(pair, opt);
    const auto base_out = bench::run("run", cfg);
    const std::vector<double> base = {base_out.streams.at(0).mean_response_s(),
                                      base_out.streams.at(1).mean_response_s()};

    std::vector<std::string> row{std::string(1, pair.label),
                                 pair.long_app + "-" + pair.short_app};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      cfg.testbed.mode = configs[c].mode;
      cfg.testbed.device_policy = configs[c].device_policy;
      const auto out = bench::run(configs[c].label, cfg);
      const double ws = metrics::weighted_speedup(
          base, {out.streams.at(0).mean_response_s(),
                 out.streams.at(1).mean_response_s()});
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
  report_table("fig13_scheduling_only", table);

  std::printf("\npaper: LAS-Rain 1.40x  LAS-Strings 1.95x  PS-Strings 1.90x\n");
  return 0;
}
