// Fig. 9: importance of workload balancing on a single 2-GPU node.
//
// A node receives an exponential stream of requests for one application.
// The CUDA-runtime baseline honours the app's static device selection (all
// requests collide on device 0); Rain and Strings balance across both GPUs
// with GRR / GMin / GWtMin. Reported: relative speedup of mean request
// completion time over the CUDA runtime, per application and averaged.
//
// Paper result (averages over apps): GRR-Rain 2.16x, GMin-Rain 2.37x,
// GWtMin-Rain 2.34x, GRR-Strings 3.10x, GMin-Strings 4.90x,
// GWtMin-Strings 4.73x; every Strings policy beats its Rain counterpart;
// GMin beats GWtMin on BO, BS, DC.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("fig9_workload_balancing",
               "Fig. 9 (single node, 2 GPUs, per-application streams)", opt);

  std::vector<std::string> apps;
  for (const auto& p : workloads::all_profiles()) apps.push_back(p.name);
  if (opt.quick) apps = {"DC", "BO", "MC", "GA"};

  std::vector<SweepRow> rows;
  for (const auto& app : apps) {
    workloads::ArrivalConfig spec;
    spec.app = app;
    spec.requests = opt.quick ? 6 : 12;
    spec.lambda_scale = 0.45;  // bursty overload: requests queue and collide
    spec.server_threads = 8;
    spec.seed = 1;
    rows.push_back({app, {spec}});
  }
  const Sweep sweep = run_sweep(
      std::move(rows), balancing_matrix(workloads::small_server()),
      [](const SweepRow& row) {
        workloads::ScenarioConfig base;
        base.testbed.mode = workloads::Mode::kCudaBaseline;
        base.testbed.nodes = workloads::small_server();
        base.streams = row.streams;
        return mean_responses(bench::run("CUDA." + row.name, base));
      });

  Column cuda{"CUDA(s)", {}};
  for (const auto& b : sweep.baseline) {
    cuda.cells.push_back(metrics::Table::fmt(b.at(0)));
  }
  report_table("fig9_workload_balancing", sweep.table("App", {cuda}));

  std::printf("\npaper: GRR-Rain 2.16x  GMin-Rain 2.37x  GWtMin-Rain 2.34x  "
              "GRR-Strings 3.10x  GMin-Strings 4.90x  GWtMin-Strings 4.73x\n");
  return 0;
}
