// Seeded workload generator of the host-time benchmark. Every workload is a
// ScenarioConfig built in code from the seed argument alone: the same seed
// gives the same scenario, and the simulator receives nothing else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/scenario_config.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Why the benchmark carries this workload: the layer it stresses.
  std::string why;
  /// "open" (arrivals on their own clock) or "closed" (clients wait for
  /// their previous request), with the rate or client count.
  std::string loop;
  strings::workloads::ScenarioConfig scenario;
};

/// Builds workload `name` for `seed`; throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Requests the scenario will issue: every closed-loop stream's length plus
/// every open-loop tenant's precomputed arrival schedule.
std::int64_t scheduled_requests(const strings::workloads::ScenarioConfig& s);

}  // namespace perfbench
