// Ablation: the paper's memory-pressure assumption (§V-C: "lambda is large
// enough ... GPU requests never pile up to the degree that they run out of
// device memory"). We violate it deliberately: a stream of fat-buffer
// requests is consolidated on the 1 GiB Quadro 2000 at increasing arrival
// pressure, and we count cudaMalloc failures. Strings stays error-free as
// long as the assumption holds, then degrades gracefully (failed requests
// report errors; the rest complete).
#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <random>

using namespace strings;
using namespace strings::bench;

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("ablation_memory_pressure",
               "device-memory pressure under consolidation", opt);

  metrics::Table table({"lambda scale", "in-flight bound", "completed",
                        "alloc errors", "mean resp(s)"});

  for (const double lambda : {1.0, 0.5, 0.2, 0.05}) {
    sim::Simulation sim;
    workloads::TestbedConfig cfg;
    cfg.mode = workloads::Mode::kStrings;
    auto weak = gpu::quadro2000();  // 1 GiB
    cfg.nodes = {{weak}};
    workloads::Testbed bed(sim, cfg);

    // 160 MiB resident per request: more than 6 concurrent requests
    // exhaust the device.
    workloads::AppProfile fat;
    fat.name = "FAT";
    fat.iterations = 2;
    fat.cpu_per_iter = sim::msec(50);
    fat.h2d_bytes_per_iter = 320u << 20;
    fat.d2h_bytes_per_iter = 32u << 20;
    fat.kernels_per_iter = 2;
    fat.kernel = gpu::KernelDesc{sim::msec(200), 0.4, 5.0};
    fat.alloc_bytes = 160u << 20;

    const int requests = opt.quick ? 8 : 16;
    const int servers = 12;
    int completed = 0, errors = 0;
    sim::SimTime total_resp = 0;
    std::vector<double> responses;
    // Hand-rolled service loop so we can use the custom profile.
    auto queue = std::make_shared<sim::Mailbox<sim::SimTime>>(sim);
    sim.spawn("gen", [&sim, queue, requests, servers, lambda, &fat] {
      std::mt19937 rng(3);
      std::uniform_real_distribution<double> uniform(1e-9, 1.0);
      const double mean_gap =
          lambda * static_cast<double>(
                       workloads::standalone_runtime(fat) / 1);
      for (int i = 0; i < requests; ++i) {
        sim.wait_for(std::max<sim::SimTime>(
            1, static_cast<sim::SimTime>(-mean_gap * std::log(uniform(rng)))));
        queue->send(sim.now());
      }
      for (int t = 0; t < servers; ++t) queue->send(-1);
    });
    for (int t = 0; t < servers; ++t) {
      sim.spawn("srv" + std::to_string(t), [&, queue] {
        while (true) {
          const sim::SimTime arrived = queue->receive();
          if (arrived < 0) break;
          backend::AppDescriptor desc;
          desc.app_type = "FAT";
          auto api = bed.make_api(desc);
          const auto r = workloads::run_app(sim, *api, fat);
          ++completed;
          errors += r.errors;
          total_resp += r.finished - arrived;
          responses.push_back(sim::to_seconds(r.finished - arrived));
        }
      });
    }
    sim.run();
    char value[160];
    std::snprintf(value, sizeof(value),
                  "{\"p50_s\":%.9f,\"p99_s\":%.9f,\"completed\":%d,"
                  "\"alloc_errors\":%d}",
                  metrics::percentile(responses, 50.0),
                  metrics::percentile(responses, 99.0), completed, errors);
    record_bench_entry("lambda-" + metrics::Table::fmt(lambda, 2), value);

    table.add_row({metrics::Table::fmt(lambda, 2),
                   std::to_string((1024 / 160)) + " requests",
                   std::to_string(completed), std::to_string(errors),
                   metrics::Table::fmt(sim::to_seconds(total_resp) /
                                       std::max(1, completed))});
  }
  table.print();
  std::printf("\nexpected: zero allocation errors while the paper's "
              "assumption holds (lambda >= ~0.5 here); under overload, "
              "cudaMalloc returns cudaErrorMemoryAllocation and the "
              "affected requests report errors instead of wedging\n");
  return 0;
}
