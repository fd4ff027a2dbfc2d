// Ablation: the GPU scheduler's epoch length. Short epochs react quickly
// but wake/sleep churn delays work; long epochs strand sleeping backend
// threads. Workload: two streams sharing one GPU under TFS, reporting both
// throughput (mean response) and fairness.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("ablation_dispatcher_epoch",
               "dispatcher epoch sweep (TFS on one shared GPU)", opt);

  workloads::ScenarioConfig cfg;
  cfg.testbed.mode = workloads::Mode::kStrings;
  cfg.testbed.nodes = {{gpu::tesla_c2050()}};
  cfg.testbed.device_policy = "TFS";
  workloads::ArrivalConfig a;
  a.app = "MC";
  a.requests = opt.quick ? 8 : 14;
  a.lambda_scale = 0.2;
  a.server_threads = 4;
  a.seed = 4;
  a.tenant = "tenantA";
  workloads::ArrivalConfig b = a;
  b.app = "BS";
  b.seed = 7;
  b.tenant = "tenantB";
  cfg.streams = {a, b};

  metrics::Table table({"Epoch", "MC resp(s)", "BS resp(s)", "Jain"});
  for (const sim::SimTime epoch :
       {sim::msec(1), sim::msec(5), sim::msec(10), sim::msec(50),
        sim::msec(200)}) {
    cfg.testbed.sched_epoch = epoch;
    const std::string ms = metrics::Table::fmt(sim::to_millis(epoch), 0);
    const auto out = bench::run("epoch-" + ms + "ms", cfg);
    const double j =
        metrics::jain_fairness({out.tenant_service_s.at("tenantA"),
                                out.tenant_service_s.at("tenantB")});
    table.add_row({ms + "ms",
                   metrics::Table::fmt(out.streams.at(0).mean_response_s()),
                   metrics::Table::fmt(out.streams.at(1).mean_response_s()),
                   metrics::Table::fmt(100 * j, 1) + "%"});
  }
  table.print();
  std::printf("\nexpected: fairness robust across epochs; very long epochs "
              "cost responsiveness for the short-episode stream\n");
  return 0;
}
