// Trace timeline example: a terminal rendition of the paper's Fig. 2.
//
// Runs the same Monte-Carlo request stream twice on one GPU — first under
// the bare CUDA runtime (each request its own GPU context), then under
// Strings (all requests packed into one context over streams) — and draws
// the device's compute utilization as ASCII strips. The sequential run
// shows ragged utilization with 'x' context-switch glitches; the packed run
// is denser and uniform.
//
//   $ ./examples/trace_timeline
#include <cstdio>

#include "metrics/timeline.hpp"
#include "workloads/service.hpp"
#include "workloads/testbed.hpp"

using namespace strings;

namespace {

void run_variant(const char* label, workloads::Mode mode) {
  sim::Simulation sim;
  workloads::TestbedConfig config;
  config.mode = mode;
  config.nodes = {{gpu::tesla_c2050()}};
  config.trace = true;
  workloads::Testbed bed(sim, config);

  workloads::ArrivalConfig a;
  a.app = "MC";
  a.requests = 8;
  a.lambda_scale = 0.25;
  a.server_threads = 6;
  a.seed = 9;
  const auto stats = workloads::run_streams(bed, {a});

  metrics::TimelineOptions opt;
  opt.columns = 96;
  std::printf("%s (makespan %.1fs, %lld context switches)\n", label,
              sim::to_seconds(stats[0].makespan),
              static_cast<long long>(
                  bed.device(0).counters().context_switches));
  std::fputs(metrics::render_timeline({{"C2050", &bed.device(0).tracer()}},
                                      opt)
                 .c_str(),
             stdout);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Monte Carlo request stream on one Tesla C2050 — "
              "paper Fig. 2 as ASCII art\n\n");
  run_variant("sequential execution (separate CUDA contexts)",
              workloads::Mode::kCudaBaseline);
  run_variant("concurrent execution (Strings: one packed context, streams)",
              workloads::Mode::kStrings);
  return 0;
}
