// Immutable view of the GPU Affinity Mapper's decision state.
//
// The distributed control plane separates the *authoritative* Device Status
// Table / Scheduler Feedback Table (owned by the PlacementService) from the
// *cached* replicas each per-node MapperAgent decides over. A DstSnapshot is
// the unit of that replication: one self-consistent copy of the DST, the
// per-GID bound-app lists, and the SFT, stamped with a monotonically
// increasing version and the virtual time it was taken. Balancing policies
// evaluate over a snapshot — never over live service state — so a decision
// made against a stale cache is well-defined: it is exactly the decision the
// centralized mapper would have made at `taken_at`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/tables.hpp"
#include "simcore/sim_time.hpp"

namespace strings::core {

struct DstSnapshot {
  /// Version of the authoritative state this snapshot reflects; bumped by
  /// the PlacementService on every bind/unbind/feedback mutation.
  std::uint64_t version = 0;
  /// Virtual time the snapshot was taken (staleness = now - taken_at).
  sim::SimTime taken_at = 0;
  DeviceStatusTable dst;
  /// App types currently bound to each GID (index = gid).
  std::vector<std::vector<std::string>> bound_types;
  SchedulerFeedbackTable sft;

  /// Records one binding of `app_type` on `gid`. The service and every
  /// agent edit their tables through this and unbind() only.
  void bind(Gid gid, const std::string& app_type) {
    dst.on_bind(gid);
    bound_types[static_cast<std::size_t>(gid)].push_back(app_type);
  }
  /// Releases one binding of `app_type` on `gid`.
  void unbind(Gid gid, const std::string& app_type) {
    dst.on_unbind(gid);
    auto& bound = bound_types[static_cast<std::size_t>(gid)];
    auto it = std::find(bound.begin(), bound.end(), app_type);
    if (it != bound.end()) bound.erase(it);
  }

  const std::vector<std::string>& bound_on(Gid gid) const {
    static const std::vector<std::string> kEmpty;
    const auto idx = static_cast<std::size_t>(gid);
    return idx < bound_types.size() ? bound_types[idx] : kEmpty;
  }
};

}  // namespace strings::core
