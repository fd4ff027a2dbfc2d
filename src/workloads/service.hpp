// The GPGPU application service model (paper Fig. 8, after
// SPECpower_ssj2008): end-user requests with negative-exponential
// inter-arrival times T = -lambda * ln(X) enter a queue served by a finite
// pool of server threads; each request executes one application instance
// end to end. Completion time includes queueing delay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/app.hpp"
#include "workloads/testbed.hpp"

namespace strings::workloads {

struct ArrivalConfig {
  std::string app;              // Table I abbreviation
  core::NodeId origin = 0;      // node receiving the request stream
  int programmed_device = 0;    // the app's own cudaSetDevice target
  int requests = 16;            // stream length
  /// Mean inter-arrival time = lambda_scale * standalone runtime (the paper
  /// sets lambda proportional to the application's runtime).
  double lambda_scale = 1.0;
  int server_threads = 4;       // finite servers (SPECpower model)
  std::uint32_t seed = 1;
  std::string tenant = "tenantA";
  double tenant_weight = 1.0;
};

struct StreamStats {
  std::string app;
  std::string tenant;
  int completed = 0;
  int errors = 0;
  sim::SimTime total_response = 0;   // sum over requests (queue + service)
  sim::SimTime max_response = 0;
  sim::SimTime total_service = 0;    // sum of pure run times (no queueing)
  sim::SimTime makespan = 0;         // last completion
  std::vector<sim::SimTime> response_times;

  /// Folds in one completed request that arrived at `arrived`.
  void record(const AppRunResult& r, sim::SimTime arrived);

  double mean_response_s() const {
    return completed > 0
               ? sim::to_seconds(total_response) / completed
               : 0.0;
  }
  double mean_service_s() const {
    return completed > 0 ? sim::to_seconds(total_service) / completed : 0.0;
  }
};

/// Serves one end-user request that arrived at `arrived`, as both the
/// closed-loop servers and the open-loop request fibers do: bind an API for
/// `app`, run `prof` end to end, detach (the full RCB/DST unbind
/// handshake), then charge the request its queueing plus service in `row`
/// and in the tenant's stream instruments. Must run in a simulation process.
void serve_request(Testbed& bed, const backend::AppDescriptor& app,
                   const AppProfile& prof, int programmed_device,
                   sim::SimTime arrived, StreamStats& row);

/// Runs the given request streams to completion on `bed` (drives the
/// simulation). Returns one StreamStats per ArrivalConfig, in order.
std::vector<StreamStats> run_streams(Testbed& bed,
                                     const std::vector<ArrivalConfig>& streams);

/// Spawns the generators and server pools without driving the simulation;
/// the caller decides how far to run (e.g. Simulation::run_until for
/// fixed-horizon fairness measurements). Stats fill in as requests finish.
std::shared_ptr<std::vector<StreamStats>> start_streams(
    Testbed& bed, const std::vector<ArrivalConfig>& streams);

}  // namespace strings::workloads
