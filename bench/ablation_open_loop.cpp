// Ablation: device-level fair queueing under open-loop overload.
//
// A heavy tenant (MonteCarlo, ~3 s of GPU per request) and a light tenant
// (BlackScholes, ~0.5 s of GPU per request) share one Tesla C2050. Arrivals
// are open loop (workloads/arrivals.hpp): the offered GPU load is swept from
// 1.2x to 3x device capacity, so queues genuinely build instead of the
// closed-loop streams' self-throttling. For each overload factor the same
// traffic runs under MQFQ-Sticky, TFS and LAS and we report
//
//   * p99 slowdown per tenant: p99 response time / the app's standalone
//     runtime (profiles.hpp) — the tail cost of sharing, and
//   * Jain's index over attained GPU service — the allocation itself.
//
// Expected shape: TFS meters long-term shares but lets the heavy tenant's
// queued backlog delay light requests; LAS favours whoever has attained
// least; MQFQ-Sticky bounds any tenant's virtual-time lead by T, so the
// light tenant's tail tracks its own demand while the allocation stays
// near-even. The self-check at the bottom pins that claim: at 2x overload
// MQFQ must match-or-beat LAS on Jain AND beat TFS on light-tenant p99
// slowdown, else exit 1.
//
// --quick runs only the 2x arm; that arm is sized identically in both modes
// so the perf-gate entries (recorded for 2x only) are mode-independent.
#include "common.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "gpu/device_props.hpp"
#include "workloads/arrivals.hpp"
#include "workloads/profiles.hpp"

using namespace strings;
using namespace strings::bench;

namespace {

struct ArmResult {
  double light_p99_slowdown = 0.0;
  double heavy_p99_slowdown = 0.0;
  double jain = 0.0;
};

double p99_seconds(const workloads::StreamStats& st) {
  std::vector<double> resp;
  for (const sim::SimTime t : st.response_times) {
    resp.push_back(sim::to_seconds(t));
  }
  return metrics::percentile(resp, 99.0);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("ablation_open_loop",
               "open-loop overload: MQFQ-Sticky vs TFS vs LAS on one GPU",
               opt);

  const double light_standalone_s =
      sim::to_seconds(workloads::standalone_runtime(workloads::profile("BS")));
  const double heavy_standalone_s =
      sim::to_seconds(workloads::standalone_runtime(workloads::profile("MC")));
  // Offered GPU seconds per wall second: light at a fixed trickle, heavy
  // scaled to hit the target overload factor. GPU demand per request comes
  // from the profiles (BS ~0.49 s, MC ~3.0 s of kernel time).
  const double kLightRate = 0.5;      // req/s
  const double kLightGpuS = 0.488;    // 4 iters x 2 kernels x 61 ms
  const double kHeavyGpuS = 3.0;      // 6 iters x 4 kernels x 125 ms

  const std::vector<double> factors =
      opt.quick ? std::vector<double>{2.0}
                : std::vector<double>{1.2, 2.0, 3.0};
  const std::vector<std::string> policies = {"MQFQ", "TFS", "LAS"};

  metrics::Table table({"Overload", "Policy", "Light p99 slow", "Heavy p99 "
                        "slow", "Jain", "Light p99(s)", "Completed"});
  ArmResult at2x_mqfq, at2x_tfs, at2x_las;

  for (const double factor : factors) {
    const double heavy_rate = (factor - kLightRate * kLightGpuS) / kHeavyGpuS;
    for (const auto& policy : policies) {
      workloads::ScenarioConfig cfg;
      cfg.testbed.mode = workloads::Mode::kStrings;
      cfg.testbed.nodes = {{gpu::tesla_c2050()}};  // one shared GPU
      cfg.testbed.balancing_policy = "GWtMin";
      cfg.testbed.device_policy = policy;

      workloads::OpenLoopTenant light;
      light.name = "light-svc";
      light.app = "BS";
      light.arrival = workloads::ArrivalKind::kPoisson;
      light.rate_rps = kLightRate;
      light.requests = 40;
      light.seed = 21;
      workloads::OpenLoopTenant heavy;
      heavy.name = "heavy-svc";
      heavy.app = "MC";
      heavy.arrival = workloads::ArrivalKind::kPoisson;
      heavy.rate_rps = heavy_rate;
      heavy.requests = 30;
      heavy.seed = 22;

      cfg.tenants = {light, heavy};
      const auto out = workloads::run(cfg);
      const auto& stats = out.streams;

      ArmResult r;
      r.light_p99_slowdown = p99_seconds(stats[0]) / light_standalone_s;
      r.heavy_p99_slowdown = p99_seconds(stats[1]) / heavy_standalone_s;
      r.jain = metrics::jain_fairness({out.tenant_service_s.at("light-svc"),
                                       out.tenant_service_s.at("heavy-svc")});

      char factor_label[32];
      std::snprintf(factor_label, sizeof(factor_label), "%.1fx", factor);
      table.add_row({factor_label, policy,
                     metrics::Table::fmt(r.light_p99_slowdown),
                     metrics::Table::fmt(r.heavy_p99_slowdown),
                     metrics::Table::fmt(r.jain, 3),
                     metrics::Table::fmt(p99_seconds(stats[0])),
                     std::to_string(stats[0].completed + stats[1].completed)});

      if (factor == 2.0) {
        // Only the 2x arm feeds the perf gate: it runs identically sized in
        // --quick and full sweeps, so baseline entries are mode-independent.
        char value[128];
        std::snprintf(value, sizeof(value),
                      "{\"p99_s\":%.9f,\"jain\":%.6f}", p99_seconds(stats[0]),
                      r.jain);
        record_bench_entry(std::string("2x/") + policy, value);
        if (policy == "MQFQ") at2x_mqfq = r;
        if (policy == "TFS") at2x_tfs = r;
        if (policy == "LAS") at2x_las = r;
      }
    }
  }
  report_table("ablation_open_loop", table);

  std::printf("\nself-check (2x overload): MQFQ jain %.3f vs LAS %.3f; "
              "light p99 slowdown MQFQ %.2f vs TFS %.2f\n",
              at2x_mqfq.jain, at2x_las.jain, at2x_mqfq.light_p99_slowdown,
              at2x_tfs.light_p99_slowdown);
  if (at2x_mqfq.jain + 1e-9 < at2x_las.jain) {
    std::fprintf(stderr, "FAIL: MQFQ Jain fell below LAS at 2x overload\n");
    return 1;
  }
  if (at2x_mqfq.light_p99_slowdown >= at2x_tfs.light_p99_slowdown) {
    std::fprintf(stderr,
                 "FAIL: MQFQ did not improve light-tenant p99 over TFS\n");
    return 1;
  }
  std::printf("self-check passed\n");
  return 0;
}
