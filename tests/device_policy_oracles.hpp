// Test oracles: the LAS and PS decision procedures as they were written
// with std::stable_sort over every backlogged entry, kept as the reference
// the allocation-free top-3 selections in LasPolicy/PsPolicy must match
// decision for decision. The sort is stable, so ties on cgs /
// total_service keep snapshot order — the property the fast versions must
// preserve.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "policies/device_policies.hpp"

namespace strings::testing_oracle {

using policies::Phase;
using policies::RcbSnapshot;

inline std::vector<std::uint64_t> stable_sort_las(
    const std::vector<RcbSnapshot>& rcb) {
  std::vector<const RcbSnapshot*> backlogged;
  for (const auto& r : rcb) {
    if (r.backlogged) backlogged.push_back(&r);
  }
  std::stable_sort(backlogged.begin(), backlogged.end(),
                   [](const RcbSnapshot* a, const RcbSnapshot* b) {
                     return a->cgs < b->cgs;
                   });
  std::vector<std::uint64_t> awake;
  for (std::size_t i = 0; i < backlogged.size() && i < 3; ++i) {
    awake.push_back(backlogged[i]->key);
  }
  return awake;
}

inline std::vector<std::uint64_t> stable_sort_ps(
    const std::vector<RcbSnapshot>& rcb) {
  std::vector<const RcbSnapshot*> backlogged;
  for (const auto& r : rcb) {
    if (r.backlogged) backlogged.push_back(&r);
  }
  if (backlogged.empty()) return {};
  std::stable_sort(backlogged.begin(), backlogged.end(),
                   [](const RcbSnapshot* a, const RcbSnapshot* b) {
                     return a->total_service < b->total_service;
                   });

  std::vector<std::uint64_t> awake;
  auto take_phase = [&](Phase p) -> bool {
    for (const auto* r : backlogged) {
      if (r->phase != p) continue;
      if (std::find(awake.begin(), awake.end(), r->key) != awake.end()) {
        continue;
      }
      awake.push_back(r->key);
      return true;
    }
    return false;
  };
  int slots = 3;
  if (take_phase(Phase::kKernelLaunch)) --slots;
  if (take_phase(Phase::kH2D)) --slots;
  if (take_phase(Phase::kD2H)) --slots;
  // Fill leftover slots by priority order (more kernel work first, then
  // transfers, then default-phase threads).
  const Phase priority[] = {Phase::kKernelLaunch, Phase::kH2D, Phase::kD2H,
                            Phase::kDefault};
  for (Phase p : priority) {
    while (slots > 0 && take_phase(p)) --slots;
    if (slots == 0) break;
  }
  return awake;
}

}  // namespace strings::testing_oracle
