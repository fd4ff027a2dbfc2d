// Ablation: the three frontend/backend mapping designs of paper Fig. 5,
// plus the bare CUDA runtime, under the same mixed workload on one 2-GPU
// node. Shows Design III (Strings) inheriting Design II's sharing benefits
// without a single master thread serializing blocking calls, and Design I
// (Rain) paying context switches.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("ablation_designs",
               "Fig. 5 designs: process/app vs master thread vs thread/app",
               opt);

  workloads::ArrivalConfig a;
  a.app = "MC";
  a.requests = opt.quick ? 6 : 12;
  a.lambda_scale = 0.3;
  a.server_threads = 6;
  a.seed = 4;
  a.tenant = "tenantA";
  workloads::ArrivalConfig b = a;
  b.app = "HI";
  b.requests = opt.quick ? 4 : 8;
  b.seed = 7;
  b.tenant = "tenantB";

  struct Variant {
    const char* label;
    workloads::Mode mode;
  };
  const Variant variants[] = {
      {"CUDA runtime (static)", workloads::Mode::kCudaBaseline},
      {"Design I (Rain)", workloads::Mode::kRain},
      {"Design II (master)", workloads::Mode::kDesign2},
      {"Design III (Strings)", workloads::Mode::kStrings},
  };

  metrics::Table table({"Design", "MC resp(s)", "HI resp(s)", "CtxSwitches"});
  for (const auto& v : variants) {
    workloads::ScenarioConfig cfg;
    cfg.testbed.mode = v.mode;
    cfg.testbed.nodes = workloads::small_server();
    cfg.testbed.balancing_policy = "GMin";
    cfg.streams = {a, b};
    const auto out = bench::run(workloads::mode_name(v.mode), cfg);
    std::int64_t switches = 0;
    for (const auto& c : out.device_counters) switches += c.context_switches;
    table.add_row({v.label,
                   metrics::Table::fmt(out.streams.at(0).mean_response_s()),
                   metrics::Table::fmt(out.streams.at(1).mean_response_s()),
                   std::to_string(switches)});
  }
  table.print();
  std::printf("\nexpected: III fastest; II close but hurt by blocking calls "
              "on its single master thread; I pays context switches; the "
              "static baseline collides everything on one GPU\n");
  return 0;
}
