// Ablation: CPU fallback — the paper's future-work direction ("dynamic
// opportunities and tradeoffs in mapping executions to either GPUs or
// CPUs"). Every node gains a CPU pseudo-device (~20x slower kernels, no
// PCIe). Under the runtime-aware RTF balancer, requests spill to host
// cores only when every GPU queue is deep enough that the slow executor
// still finishes sooner; under extreme overload that trims tail latency.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("ablation_cpu_fallback",
               "future work: spilling to CPU pseudo-devices under overload",
               opt);

  metrics::Table table({"Load", "Config", "mean resp(s)", "p95(s)",
                        "CPU kernels %"});

  struct Load {
    const char* label;
    double lambda;
    int requests;
    int servers;
  };
  const Load loads[] = {
      {"light", 0.5, 20, 12},
      {"burst", 0.05, 40, 40},
      {"extreme", 0.01, 60, 60},
  };
  for (const Load& load : loads) {
    for (const bool fallback : {false, true}) {
      workloads::ScenarioConfig cfg;
      cfg.testbed.mode = workloads::Mode::kStrings;
      cfg.testbed.nodes = workloads::small_server();
      cfg.testbed.balancing_policy = "GWtMin";
      // Runtime-aware: knows the CPU is slow.
      cfg.testbed.feedback_policy = "RTF";
      cfg.testbed.cpu_fallback_devices = fallback;
      workloads::ArrivalConfig a;
      a.app = "BS";
      a.requests = opt.quick ? load.requests / 2 : load.requests;
      a.lambda_scale = load.lambda;
      a.server_threads = load.servers;
      a.seed = 9;
      cfg.streams = {a};
      const auto out = bench::run(
          std::string(load.label) + (fallback ? ".cpu-fallback" : ".gpus-only"),
          cfg);

      // Device kinds by GID: the testbed numbers devices node by node and
      // appends each node's CPU executor after its GPUs.
      std::vector<bool> is_cpu;
      for (const auto& node : cfg.testbed.nodes) {
        is_cpu.insert(is_cpu.end(), node.size(), false);
        if (fallback) is_cpu.push_back(true);
      }
      std::int64_t gpu_kernels = 0, cpu_kernels = 0;
      for (std::size_t g = 0; g < out.device_counters.size(); ++g) {
        (is_cpu.at(g) ? cpu_kernels : gpu_kernels) +=
            out.device_counters[g].kernels_completed;
      }
      const auto& stats = out.streams;
      std::vector<double> resp;
      for (const auto t : stats[0].response_times) {
        resp.push_back(sim::to_seconds(t));
      }
      table.add_row(
          {load.label,
           fallback ? "GPUs + CPU fallback" : "GPUs only",
           metrics::Table::fmt(stats[0].mean_response_s()),
           metrics::Table::fmt(metrics::percentile(resp, 95)),
           metrics::Table::fmt(
               100.0 * static_cast<double>(cpu_kernels) /
                   static_cast<double>(std::max<std::int64_t>(
                       1, cpu_kernels + gpu_kernels)),
               1) +
               "%"});
    }
  }
  report_table("ablation_cpu_fallback", table);
  std::printf("\nexpected: no CPU use at light load (the balancer knows the "
              "executor is ~20x slower); under extreme bursts some requests "
              "spill and tail latency improves\n");
  return 0;
}
