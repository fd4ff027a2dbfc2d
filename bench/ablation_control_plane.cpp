// Ablation: Affinity Mapper deployment. The control-plane refactor splits
// the monolithic mapper into a PlacementService plus per-node caching
// MapperAgents; this sweep quantifies what that split costs (and buys) on
// the 2-GPU server and the 4-GPU supernode:
//
//   centralized-oracle  — direct function calls (the pre-split mapper)
//   centralized-rpc     — same decisions over zero-cost control channels
//   distributed-fresh   — agents decide locally, DST synced before every
//                         select (refresh_epoch = 0)
//   distributed-stale   — agents decide on cached snapshots up to 30 s
//                         old (requests arrive seconds apart, so a
//                         millisecond-scale epoch would never hit the
//                         cache), control traffic on real data-plane links
//   distributed-push    — agents subscribe once and the service fans out
//                         versioned kDstDelta invalidations; sync traffic
//                         scales with change rate, not decision rate
//
// Reported per deployment: weighted speedup over the CUDA baseline (eq. 2)
// and the control-plane bill — RPC/byte counters, stale-hit rate, and
// p50/p95/p99 placement latency. centralized-oracle and centralized-rpc
// must agree bit-for-bit (the equivalence the refactor preserves); the
// stale row shows the latency the cache buys and the decisions it risks.
#include "common.hpp"

#include <cstdio>

using namespace strings;
using namespace strings::bench;

namespace {

struct Deployment {
  const char* label;
  core::ControlPlaneConfig cp;
};

std::vector<Deployment> deployments() {
  std::vector<Deployment> out;
  {
    Deployment d{"centralized-oracle", {}};
    d.cp.transport = core::ControlTransport::kDirect;
    out.push_back(d);
  }
  {
    Deployment d{"centralized-rpc", {}};
    d.cp.transport = core::ControlTransport::kZeroCost;
    out.push_back(d);
  }
  {
    Deployment d{"distributed-fresh", {}};
    d.cp.placement = core::PlacementMode::kDistributed;
    d.cp.refresh_epoch = 0;
    out.push_back(d);
  }
  {
    Deployment d{"distributed-stale", {}};
    d.cp.placement = core::PlacementMode::kDistributed;
    d.cp.transport = core::ControlTransport::kDataPlane;
    d.cp.refresh_epoch = sim::sec(30);
    d.cp.feedback_batch_size = 4;
    out.push_back(d);
  }
  {
    Deployment d{"distributed-push", {}};
    d.cp.placement = core::PlacementMode::kDistributed;
    d.cp.sync_mode = core::SyncMode::kPush;
    out.push_back(d);
  }
  return out;
}

std::vector<workloads::ArrivalConfig> make_streams(int nodes, int requests) {
  std::vector<workloads::ArrivalConfig> streams;
  const char* apps[] = {"MC", "BS", "DC"};
  std::uint32_t seed = 3;
  for (int i = 0; i < 3; ++i) {
    workloads::ArrivalConfig s;
    s.app = apps[i];
    s.origin = i % nodes;
    s.requests = requests;
    s.lambda_scale = 0.45;
    s.server_threads = 8;
    s.seed = seed++;
    s.tenant = std::string("tenant") + apps[i];
    streams.push_back(std::move(s));
  }
  return streams;
}

void run_topology(const char* name,
                  const std::vector<std::vector<gpu::DeviceProps>>& nodes,
                  const Options& opt) {
  const int requests = opt.quick ? 4 : 8;
  workloads::ScenarioConfig cfg;
  cfg.testbed.nodes = nodes;
  cfg.streams = make_streams(static_cast<int>(nodes.size()), requests);

  // CUDA-runtime baseline: static provisioning, all requests collide on the
  // app's programmed device (the denominator of eq. 2).
  cfg.testbed.mode = workloads::Mode::kCudaBaseline;
  const std::vector<double> base_times =
      mean_responses(bench::run(std::string("CUDA.") + name, cfg));

  metrics::Table speedup_table({"Deployment", "weighted speedup"});
  std::vector<std::pair<std::string, core::ControlPlaneStats>> rows;
  cfg.testbed.mode = workloads::Mode::kStrings;
  cfg.testbed.balancing_policy = "GWtMin";
  cfg.testbed.feedback_policy = "MBF";
  for (const auto& d : deployments()) {
    cfg.testbed.control_plane = d.cp;
    // The stale row pays for its control traffic on the shared wires.
    cfg.testbed.shared_network =
        d.cp.transport == core::ControlTransport::kDataPlane;
    const auto out = bench::run(std::string(d.label) + "." + name, cfg);
    speedup_table.add_row(
        {d.label, metrics::Table::fmt(metrics::weighted_speedup(
                      base_times, mean_responses(out))) +
                      "x"});
    rows.emplace_back(d.label, out.control_plane);
  }

  std::printf("-- %s --\n", name);
  speedup_table.print();
  std::printf("\n");
  report_table(std::string("ablation_control_plane_") + name,
               control_plane_table(rows));
  std::printf("\n");
}

// Push-vs-pull on a bursty arrival pattern: many decisions per unit time
// make per-select pulls expensive, while delta fan-out stays proportional
// to the (same) mutation rate. Self-checking, so the CI sweep fails loudly
// if the protocol stops paying for itself: placements must be identical
// (both deployments see fresh state at every decision instant) and push
// must cut sync round-trips by at least 5x.
int run_push_vs_pull_check(const Options& opt) {
  workloads::ScenarioConfig pull;
  pull.testbed.mode = workloads::Mode::kStrings;
  pull.testbed.nodes = workloads::supernode();
  pull.testbed.balancing_policy = "GWtMin";
  pull.testbed.feedback_policy = "MBF";
  pull.testbed.control_plane.placement = core::PlacementMode::kDistributed;
  pull.testbed.control_plane.refresh_epoch = 0;
  pull.streams = make_streams(static_cast<int>(pull.testbed.nodes.size()),
                              opt.quick ? 6 : 10);
  for (auto& s : pull.streams) s.lambda_scale = 0.15;  // bursty arrivals

  workloads::ScenarioConfig push = pull;
  push.testbed.control_plane.sync_mode = core::SyncMode::kPush;

  const auto a = bench::run("push-check-pull-fresh", pull);
  const auto b = bench::run("push-check-push", push);

  std::printf("-- push vs pull(fresh), bursty supernode --\n");
  std::printf("pull: sync=%lld deltas=%lld   push: sync=%lld deltas=%lld "
              "applied=%lld gap-syncs=%lld\n",
              static_cast<long long>(a.control_plane.sync_rpcs),
              static_cast<long long>(a.control_plane.deltas_sent),
              static_cast<long long>(b.control_plane.sync_rpcs),
              static_cast<long long>(b.control_plane.deltas_sent),
              static_cast<long long>(b.control_plane.deltas_applied),
              static_cast<long long>(b.control_plane.delta_gap_syncs));
  if (a.control_plane.placements != b.control_plane.placements) {
    std::fprintf(stderr,
                 "FAIL: push placements diverge from pull(refresh=0)\n");
    return 1;
  }
  if (b.control_plane.sync_rpcs <= 0 ||
      a.control_plane.sync_rpcs < 5 * b.control_plane.sync_rpcs) {
    std::fprintf(stderr,
                 "FAIL: push did not cut sync RPCs >= 5x (pull=%lld "
                 "push=%lld)\n",
                 static_cast<long long>(a.control_plane.sync_rpcs),
                 static_cast<long long>(b.control_plane.sync_rpcs));
    return 1;
  }
  std::printf("push cuts sync RPCs %.1fx with identical placements\n\n",
              static_cast<double>(a.control_plane.sync_rpcs) /
                  static_cast<double>(b.control_plane.sync_rpcs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  print_header("ablation_control_plane",
               "Affinity Mapper deployment sweep (PlacementService + "
               "per-node MapperAgents)",
               opt);
  run_topology("small_server", workloads::small_server(), opt);
  run_topology("supernode", workloads::supernode(), opt);
  const int rc = run_push_vs_pull_check(opt);
  std::printf(
      "expected: centralized-oracle == centralized-rpc speedups (zero-cost "
      "equivalence); distributed-fresh pays sync RPCs for identical "
      "decisions; distributed-stale trades placement quality for sub-sync "
      "select latency; distributed-push replaces per-select pulls with "
      "change-rate delta fan-out\n");
  return rc;
}
