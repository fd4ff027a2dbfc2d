#include "workloads/service.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>

namespace strings::workloads {

namespace {

/// Inter-arrival time per paper eq. (4): T = -lambda * ln(X), X in (0, 1].
sim::SimTime exponential_gap(std::mt19937& rng, double lambda_ns) {
  std::uniform_real_distribution<double> uniform(
      std::nextafter(0.0, 1.0), 1.0);
  const double x = uniform(rng);
  return std::max<sim::SimTime>(
      1, static_cast<sim::SimTime>(-lambda_ns * std::log(x)));
}

}  // namespace

void StreamStats::record(const AppRunResult& r, sim::SimTime arrived) {
  const sim::SimTime response = r.finished - arrived;
  ++completed;
  errors += r.errors;
  total_response += response;
  max_response = std::max(max_response, response);
  total_service += r.elapsed();
  makespan = std::max(makespan, r.finished);
  response_times.push_back(response);
}

void serve_request(Testbed& bed, const backend::AppDescriptor& app,
                   const AppProfile& prof, int programmed_device,
                   sim::SimTime arrived, StreamStats& row) {
  auto api = bed.make_api(app);
  const AppRunResult r =
      run_app(bed.simulation(), *api, prof, programmed_device);
  api.reset();  // detach: full RCB/DST unbind handshake
  row.record(r, arrived);
  bed.observe_request(app.tenant, r.finished - arrived, r.elapsed(), r.errors);
}

std::vector<StreamStats> run_streams(
    Testbed& bed, const std::vector<ArrivalConfig>& streams) {
  auto stats = start_streams(bed, streams);
  bed.simulation().run();
  return std::move(*stats);
}

std::shared_ptr<std::vector<StreamStats>> start_streams(
    Testbed& bed, const std::vector<ArrivalConfig>& streams) {
  sim::Simulation& sim = bed.simulation();
  auto stats = std::make_shared<std::vector<StreamStats>>(streams.size());

  for (std::size_t s = 0; s < streams.size(); ++s) {
    const ArrivalConfig cfg = streams[s];
    (*stats)[s].app = cfg.app;
    (*stats)[s].tenant = cfg.tenant;
    const AppProfile& prof = profile(cfg.app);
    const double lambda_ns =
        cfg.lambda_scale * static_cast<double>(standalone_runtime(prof));

    // Arrival queue: timestamps of queued requests; -1 is the shutdown
    // sentinel for server threads.
    auto queue = std::make_shared<sim::Mailbox<sim::SimTime>>(sim);

    // Request generator (one per stream).
    sim.spawn("gen/" + cfg.app + "/" + std::to_string(s),
              [&sim, cfg, queue, lambda_ns] {
                std::mt19937 rng(cfg.seed);
                for (int i = 0; i < cfg.requests; ++i) {
                  sim.wait_for(exponential_gap(rng, lambda_ns));
                  queue->send(sim.now());
                }
                for (int t = 0; t < cfg.server_threads; ++t) queue->send(-1);
              });

    // Finite server pool (SPECpower model).
    const backend::AppDescriptor desc{.app_type = cfg.app,
                                      .tenant = cfg.tenant,
                                      .tenant_weight = cfg.tenant_weight,
                                      .origin_node = cfg.origin};
    for (int t = 0; t < cfg.server_threads; ++t) {
      sim.spawn(
          "srv/" + cfg.app + "/" + std::to_string(s) + "." + std::to_string(t),
          [&bed, desc, queue, row = &(*stats)[s], &prof,
           device = cfg.programmed_device] {
            while (true) {
              const sim::SimTime arrived = queue->receive();
              if (arrived < 0) break;
              serve_request(bed, desc, prof, device, arrived, *row);
            }
          });
    }
  }
  return stats;
}

}  // namespace strings::workloads
