// Fig. 1: compute and memory characteristics of GPU-based cloud apps under
// exponentially distributed request arrivals. The paper color-codes
// utilization (red > 90%, green < 10%); we print the measured mean compute
// and bandwidth utilization plus the same H/M/L classification, showing
// compute-intensive (DC/MM analogues of BFS), memory-intensive (HI/MC
// analogues of Monte Carlo), and average (EV/BS, the FD analogue) classes,
// and the frequent idle intervals even for efficient codes.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

namespace {
const char* classify_compute(double util) {
  if (util > 0.6) return "H";
  if (util < 0.1) return "L";
  return "M";
}
// Classifies an app's memory intensity by its absolute bandwidth demand
// (Table I spans 0.018..13.7 GB/s).
const char* classify_bw(double gbps) {
  if (gbps > 3.0) return "H";
  if (gbps < 0.3) return "L";
  return "M";
}
}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("fig1_app_characteristics",
               "Fig. 1 (per-app compute/memory utilization classes)", opt);

  std::vector<std::string> apps;
  for (const auto& p : workloads::all_profiles()) apps.push_back(p.name);
  if (opt.quick) apps = {"DC", "HI", "MC", "GA"};

  metrics::Table table({"App", "Compute util", "class", "Mem-BW(GB/s)",
                        "class", "Idle frac", "Idle gaps>=5ms"});

  for (const auto& app : apps) {
    workloads::ScenarioConfig cfg;
    cfg.testbed.mode = workloads::Mode::kStrings;
    cfg.testbed.nodes = {{gpu::tesla_c2050()}};
    cfg.testbed.trace = true;
    workloads::ArrivalConfig s;
    s.app = app;
    s.requests = opt.quick ? 3 : 5;
    s.lambda_scale = 0.9;  // exponential arrivals, moderate load
    s.seed = 3;
    cfg.streams = {s};
    const auto out = bench::run(app, cfg);
    const gpu::DeviceUtilSummary& u = out.device_util.at(0);
    // Bandwidth utilization classes compare the app's demand to what it
    // could demand; normalize against the busy (non-idle) window.
    const double busy = 1.0 - u.idle_frac;
    const double compute_when_busy =
        busy > 0 ? u.mean_compute_util / busy : 0.0;
    const double bw_gbps =
        (busy > 0 ? u.mean_bw_util / busy : 0.0) * 144.0;  // C2050
    table.add_row({app, metrics::Table::fmt(compute_when_busy, 3),
                   classify_compute(compute_when_busy),
                   metrics::Table::fmt(bw_gbps, 2), classify_bw(bw_gbps),
                   metrics::Table::fmt(u.idle_frac, 3),
                   std::to_string(u.idle_gaps)});
  }
  report_table("fig1_app_characteristics", table);
  std::printf("\npaper: BFS-like apps compute-heavy, Monte Carlo "
              "memory-heavy, face-detection average; frequent idle "
              "intervals even for efficient codes\n");
  return 0;
}
