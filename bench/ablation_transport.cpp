// Ablation: RPC transport cost. The frontend/backend split of Fig. 3 puts
// every intercepted CUDA call on a channel; this sweep varies the link
// model from ideal (zero cost) through shared memory to Gigabit and a slow
// WAN-ish link, for a local binding, quantifying how much interposition
// overhead the asynchrony optimizations hide.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("ablation_transport",
               "frontend/backend link model sweep (local binding)", opt);

  struct Link {
    const char* label;
    const char* key;
    rpc::LinkModel model;
  };
  const Link links[] = {
      {"ideal (0, inf)", "ideal", rpc::LinkModel{0, 0.0}},
      {"shared memory", "shared-memory", rpc::LinkModel::shared_memory()},
      {"10GbE-ish", "10GbE", rpc::LinkModel{sim::usec(20), 1.17}},
      {"GigE", "GigE", rpc::LinkModel::gigabit_ethernet()},
      {"WAN-ish", "WAN", rpc::LinkModel{sim::msec(2), 0.05}},
  };

  workloads::ScenarioConfig cfg;
  cfg.testbed.mode = workloads::Mode::kStrings;
  cfg.testbed.nodes = workloads::small_server();
  workloads::ArrivalConfig s;
  s.app = "BS";  // many small calls relative to work
  s.requests = opt.quick ? 6 : 12;
  s.lambda_scale = 0.5;
  s.seed = 3;
  cfg.streams = {s};

  metrics::Table table({"Link", "one-way RPC", "blocking RPC", "overhead"});
  double ideal_oneway = 0.0;
  for (const auto& link : links) {
    double resp[2] = {0, 0};
    int i = 0;
    for (const bool oneway : {true, false}) {
      cfg.testbed.nonblocking_rpc = oneway;
      cfg.testbed.local_link = link.model;
      const std::string label =
          std::string(oneway ? "oneway." : "blocking.") + link.key;
      resp[i++] = bench::run(label, cfg).streams.at(0).mean_response_s();
    }
    if (ideal_oneway == 0.0) ideal_oneway = resp[0];
    table.add_row({link.label, metrics::Table::fmt(resp[0]),
                   metrics::Table::fmt(resp[1]),
                   metrics::Table::fmt(100.0 * (resp[0] / ideal_oneway - 1.0),
                                       1) +
                       "%"});
  }
  table.print();
  std::printf("\nexpected: one-way posting hides latency until the link "
              "itself becomes the data-path bottleneck (WAN row)\n");
  return 0;
}
