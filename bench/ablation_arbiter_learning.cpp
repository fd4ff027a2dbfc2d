// Ablation: the Policy Arbiter's dynamic policy switching (paper claim (3):
// "further improvements ... derived from dynamic changes to the workload
// balancing policies being used in response to device-level observations").
//
// A mixed HI+EV workload runs on the supernode; we report mean response of
// each third of the request stream (early / middle / late) under
//   - pure static GWtMin (no feedback),
//   - GWtMin with the Arbiter switching to MBF after the first feedback
//     record per app type.
// The switched configuration improves as the SFT fills, while the static
// one stays flat.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

namespace {

std::vector<double> thirds(const std::vector<sim::SimTime>& responses) {
  std::vector<double> out(3, 0.0);
  if (responses.empty()) return out;
  const std::size_t n = responses.size();
  std::vector<int> counts(3, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bucket = std::min<std::size_t>(2, i * 3 / n);
    out[bucket] += sim::to_seconds(responses[i]);
    ++counts[bucket];
  }
  for (int b = 0; b < 3; ++b) {
    if (counts[b] > 0) out[static_cast<std::size_t>(b)] /= counts[b];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("ablation_arbiter_learning",
               "Policy Arbiter: response time as feedback accumulates", opt);

  metrics::Table table({"Config", "early third(s)", "middle(s)", "late(s)"});

  for (const bool with_feedback : {false, true}) {
    workloads::ScenarioConfig cfg;
    cfg.testbed.mode = workloads::Mode::kStrings;
    cfg.testbed.nodes = workloads::supernode();
    cfg.testbed.balancing_policy = "GWtMin";
    if (with_feedback) cfg.testbed.feedback_policy = "MBF";

    workloads::ArrivalConfig hi;
    hi.app = "HI";
    hi.origin = 0;
    hi.requests = opt.quick ? 9 : 18;
    hi.lambda_scale = 0.25;
    hi.server_threads = 8;
    hi.seed = 12;
    hi.tenant = "tenantA";
    workloads::ArrivalConfig ev = hi;
    ev.app = "EV";
    ev.origin = 1;
    ev.seed = 13;
    ev.tenant = "tenantB";

    cfg.streams = {hi, ev};
    const auto out =
        bench::run(with_feedback ? "GWtMin-MBF" : "GWtMin-static", cfg);
    // Interleave both streams' responses in arrival order approximation:
    // report HI's (the bandwidth-sensitive one).
    const auto t = thirds(out.streams[0].response_times);
    table.add_row({with_feedback ? "GWtMin -> MBF (arbiter)" : "GWtMin static",
                   metrics::Table::fmt(t[0]), metrics::Table::fmt(t[1]),
                   metrics::Table::fmt(t[2])});
  }
  table.print();
  std::printf("\nexpected: the arbiter configuration improves from the "
              "early to the late third as the SFT learns HI's bandwidth "
              "profile; the static configuration does not\n");
  return 0;
}
