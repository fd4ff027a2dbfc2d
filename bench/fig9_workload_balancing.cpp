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
  const int requests = opt.quick ? 6 : 12;

  auto configs = balancing_matrix(workloads::small_server());

  std::vector<std::string> headers{"App", "CUDA(s)"};
  for (const auto& c : configs) headers.push_back(c.first);
  metrics::Table table(headers);

  std::vector<std::vector<double>> speedups(configs.size());
  for (const auto& app : apps) {
    workloads::ArrivalConfig spec;
    spec.app = app;
    spec.requests = requests;
    spec.lambda_scale = 0.45;  // bursty overload: requests queue and collide
    spec.server_threads = 8;
    spec.seed = 1;

    workloads::ScenarioConfig base;
    base.testbed.mode = workloads::Mode::kCudaBaseline;
    base.testbed.nodes = workloads::small_server();
    base.streams = {spec};
    const double cuda_time =
        bench::run("CUDA", base).streams.at(0).mean_response_s();

    std::vector<std::string> row{app, metrics::Table::fmt(cuda_time)};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const workloads::ScenarioConfig cfg{configs[c].second, {spec}, {}};
      const double t =
          bench::run(configs[c].first, cfg).streams.at(0).mean_response_s();
      const double speedup = t > 0 ? cuda_time / t : 0.0;
      speedups[c].push_back(speedup);
      row.push_back(metrics::Table::fmt(speedup) + "x");
    }
    table.add_row(std::move(row));
  }

  std::vector<std::string> avg{"avg", "-"};
  for (const auto& s : speedups) {
    avg.push_back(metrics::Table::fmt(metrics::mean(s)) + "x");
  }
  table.add_row(std::move(avg));
  report_table("fig9_workload_balancing", table);

  std::printf("\npaper: GRR-Rain 2.16x  GMin-Rain 2.37x  GWtMin-Rain 2.34x  "
              "GRR-Strings 3.10x  GMin-Strings 4.90x  GWtMin-Strings 4.73x\n");
  return 0;
}
