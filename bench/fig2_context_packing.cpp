// Fig. 2: GPU utilization of Monte Carlo request streams — sequential
// execution from separate GPU contexts vs concurrent execution over CUDA
// streams from a single (packed) context. The paper's claim: one context +
// streams gives much more uniform utilization and eliminates the context-
// switch "glitches".
//
// Reported: utilization coefficient of variation on a 100ms grid (lower =
// more uniform), idle gaps >= 5ms, context switches, and switch time share.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("fig2_context_packing",
               "Fig. 2 (MC stream: separate contexts vs packed context)",
               opt);

  workloads::ArrivalConfig s;
  s.app = "MC";
  s.requests = opt.quick ? 8 : 14;
  s.lambda_scale = 0.15;  // busy server: utilization gaps are scheduler-made
  s.server_threads = 8;
  s.seed = 9;

  struct Variant {
    const char* label;
    workloads::Mode mode;
  };
  const Variant variants[] = {
      {"sequential (CUDA contexts)", workloads::Mode::kCudaBaseline},
      {"concurrent (Strings, packed)", workloads::Mode::kStrings},
  };

  metrics::Table table({"Execution", "Mean util", "Util CoV", "Idle gaps",
                        "Ctx switches", "Switch time"});
  double cov[2] = {0, 0};
  int idx = 0;
  for (const auto& v : variants) {
    workloads::ScenarioConfig cfg;
    cfg.testbed.mode = v.mode;
    cfg.testbed.nodes = {{gpu::tesla_c2050()}};  // one GPU, as in Fig. 2
    cfg.testbed.trace = true;
    cfg.streams = {s};
    const auto out = bench::run(workloads::mode_name(v.mode), cfg);
    const gpu::DeviceUtilSummary& u = out.device_util.at(0);
    const auto& c = out.device_counters.at(0);
    cov[idx++] = u.util_cov;
    table.add_row(
        {v.label, metrics::Table::fmt(u.mean_compute_util, 3),
         metrics::Table::fmt(u.util_cov, 3), std::to_string(u.idle_gaps),
         std::to_string(static_cast<int>(c.context_switches)),
         metrics::Table::fmt(sim::to_millis(c.context_switch_time), 1) +
             "ms"});
  }
  report_table("fig2_context_packing", table);

  std::printf("\nuniformity gain (CoV ratio sequential/concurrent): %.2fx\n",
              cov[1] > 0 ? cov[0] / cov[1] : 0.0);
  std::printf("paper: concurrent streams from one context show much more "
              "uniform peaks and no context-switch glitches\n");
  return 0;
}
