// Shared definitions of the distributed Affinity Mapper control plane.
//
// The control plane splits the paper's monolithic GPU Affinity Mapper into a
// PlacementService (authoritative DST/SFT, hosted on one node) and per-node
// MapperAgents (cached gMap replica + staleness-bounded DstSnapshot). This
// header holds what both sides share: deployment knobs, the Policy Arbiter
// and the table edit both run, the wire encoding of feedback records and
// snapshots, and the counters every component reports into.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dst_snapshot.hpp"
#include "core/gpool.hpp"
#include "core/tables.hpp"
#include "policies/balancing.hpp"
#include "rpc/marshal.hpp"
#include "simcore/sim_time.hpp"

namespace strings::core {

/// Who makes placement decisions.
enum class PlacementMode {
  /// Every select/unbind is answered by the PlacementService itself (agents
  /// forward verbatim). Decisions always see the authoritative DST.
  kCentralized,
  /// Each node's MapperAgent decides locally over its cached DstSnapshot
  /// and reports the bind back one-way (optimistic replication).
  kDistributed,
};

/// How control-plane messages travel between agents and the service.
enum class ControlTransport {
  /// Plain function calls, zero simulated cost — the pre-refactor oracle.
  kDirect,
  /// Timed rpc::Channels with a zero-latency, infinite-bandwidth link: the
  /// full message machinery runs but costs nothing (equivalence testing).
  kZeroCost,
  /// Channels with real link models; remote agents pay the network and,
  /// under shared_network, contend with data-plane GPU traffic.
  kDataPlane,
};

/// How a distributed agent keeps its cached DstSnapshot current.
enum class SyncMode {
  /// Pull-only: a select older than `refresh_epoch` triggers a kDstSync
  /// round trip (the PR 1 protocol; traffic scales with decision rate).
  kPull,
  /// Push: the agent subscribes once (kDstSubscribe) and the service fans
  /// out versioned kDstDelta messages on every mutation; a version gap
  /// falls back to a full kDstSync pull (traffic scales with change rate).
  kPush,
};

/// Parses "centralized"/"distributed" (case-insensitive); throws
/// std::invalid_argument otherwise.
PlacementMode parse_placement_mode(const std::string& s);
/// Parses "direct"/"zero_cost"/"data_plane"; throws std::invalid_argument.
ControlTransport parse_control_transport(const std::string& s);
/// Parses "pull"/"push"; throws std::invalid_argument.
SyncMode parse_sync_mode(const std::string& s);

struct ControlPlaneConfig {
  PlacementMode placement = PlacementMode::kCentralized;
  ControlTransport transport = ControlTransport::kZeroCost;
  /// Node hosting the PlacementService (its agent talks over a local link).
  NodeId service_node = 0;
  /// Distributed mode: maximum age of the cached DstSnapshot before a
  /// select triggers a kDstSync pull. 0 = refresh before every decision
  /// ("fresh"); larger values trade decision quality for sync traffic.
  sim::SimTime refresh_epoch = 0;
  /// Feedback records buffered per agent before a kFeedbackBatch ships.
  int feedback_batch_size = 1;
  /// A partial batch is flushed this long after its first record arrives.
  sim::SimTime feedback_max_delay = sim::msec(1);
  /// Distributed mode: how cached snapshots stay current (pull/push).
  SyncMode sync_mode = SyncMode::kPull;
};

/// The Policy Arbiter (paper §III-C): the static balancing policy until the
/// SFT of the view holds `min_feedback_samples` records for an app type,
/// then the feedback policy. The service and every agent each own one and
/// pick through it over their own DstSnapshot.
class PolicyArbiter {
 public:
  /// An empty `feedback_policy` disables switching.
  PolicyArbiter(const std::string& static_policy,
                const std::string& feedback_policy, int min_feedback_samples);

  /// Stripes both policies' cursors (see BalancingPolicy).
  void configure_striping(int rank, int deciders);
  /// Name of the policy select() would use for `app_type` over `view`.
  const char* policy_name(const DstSnapshot& view,
                          const std::string& app_type) const;

  struct Pick {
    Gid gid = -1;
    bool feedback = false;  // picked by the feedback policy
  };
  Pick select(const GMap& gmap, const DstSnapshot& view,
              const std::string& app_type, NodeId origin_node);

 private:
  bool use_feedback(const DstSnapshot& view,
                    const std::string& app_type) const;

  std::unique_ptr<policies::BalancingPolicy> static_policy_;
  std::unique_ptr<policies::BalancingPolicy> feedback_policy_;
  int min_feedback_samples_;
};

/// Counters reported by each MapperAgent (and aggregated by the Testbed).
struct ControlPlaneStats {
  std::int64_t select_rpcs = 0;     // kSelectDevice round trips
  std::int64_t unbind_rpcs = 0;     // kUnbindDevice round trips
  std::int64_t sync_rpcs = 0;       // kDstSync round trips
  std::int64_t oneway_msgs = 0;     // kBindReport + kFeedbackBatch posts
  std::int64_t feedback_records = 0;
  std::int64_t feedback_batches = 0;
  /// Distributed selects decided over a cached (non-refreshed) snapshot.
  std::int64_t stale_hits = 0;
  /// kDstDelta messages fanned out by the service (one per subscriber per
  /// mutation; counts messages actually sent, not fault-dropped ones).
  std::int64_t deltas_sent = 0;
  /// Deltas an agent applied to its cached snapshot.
  std::int64_t deltas_applied = 0;
  /// Deltas discarded because their version range was already covered
  /// (duplicates / reordered stragglers after a gap pull).
  std::int64_t deltas_stale = 0;
  /// Version gaps detected on the push channel that forced a full
  /// kDstSync pull (the self-healing path; also counted in sync_rpcs).
  std::int64_t delta_gap_syncs = 0;
  /// Calls answered by plain function call (kDirect, or kernel-context
  /// fallback when no process context exists to block in).
  std::int64_t direct_calls = 0;
  std::uint64_t bytes_sent = 0;    // request-direction channel bytes
  std::uint64_t packets_sent = 0;
  sim::SimTime max_snapshot_age = 0;
  /// Virtual-time cost of each select_device as seen by the caller.
  std::vector<sim::SimTime> placement_latencies;
  /// Every placement in decision order: (app type, chosen GID). The
  /// equivalence tests compare these across deployments bit-for-bit.
  std::vector<std::pair<std::string, Gid>> placements;

  void merge(const ControlPlaneStats& o) {
    select_rpcs += o.select_rpcs;
    unbind_rpcs += o.unbind_rpcs;
    sync_rpcs += o.sync_rpcs;
    oneway_msgs += o.oneway_msgs;
    feedback_records += o.feedback_records;
    feedback_batches += o.feedback_batches;
    stale_hits += o.stale_hits;
    deltas_sent += o.deltas_sent;
    deltas_applied += o.deltas_applied;
    deltas_stale += o.deltas_stale;
    delta_gap_syncs += o.delta_gap_syncs;
    direct_calls += o.direct_calls;
    bytes_sent += o.bytes_sent;
    packets_sent += o.packets_sent;
    max_snapshot_age = std::max(max_snapshot_age, o.max_snapshot_age);
    placement_latencies.insert(placement_latencies.end(),
                               o.placement_latencies.begin(),
                               o.placement_latencies.end());
    placements.insert(placements.end(), o.placements.begin(),
                      o.placements.end());
  }
};

// ---- push-protocol wire types -------------------------------------------

/// One authoritative mutation, replayed verbatim by subscribed agents.
struct DeltaOp {
  enum class Kind : std::uint8_t { kBind = 0, kUnbind = 1, kFeedback = 2 };
  Kind kind = Kind::kBind;
  Gid gid = -1;              // kBind / kUnbind target
  std::string app_type;      // kBind / kUnbind app
  FeedbackRecord feedback;   // kFeedback payload
  /// Agent that already applied this op optimistically to its own cache
  /// (-1 = decided at the service, and always for feedback). The origin
  /// skips the echo so its optimistic bind/unbind is never double-applied.
  NodeId applied_by = -1;
};

/// Folds one mutation into `s`: the one table edit the service and every
/// agent's cache share.
inline void apply(DstSnapshot& s, const DeltaOp& op) {
  switch (op.kind) {
    case DeltaOp::Kind::kBind: s.bind(op.gid, op.app_type); break;
    case DeltaOp::Kind::kUnbind: s.unbind(op.gid, op.app_type); break;
    case DeltaOp::Kind::kFeedback: s.sft.update(op.feedback); break;
  }
}

/// A contiguous run of mutations: applying `ops` to a snapshot at
/// `base_version` yields the authoritative state at `new_version`
/// (each op bumps the version by exactly one, so
/// new_version == base_version + ops.size()).
struct DstDelta {
  std::uint64_t base_version = 0;
  std::uint64_t new_version = 0;
  /// Service clock when the delta was published; applying the delta
  /// refreshes the cached snapshot's `taken_at` to this stamp.
  sim::SimTime taken_at = 0;
  std::vector<DeltaOp> ops;
};

// ---- wire encodings (canonical home; backend/protocol.hpp delegates) ----

inline void encode_feedback(rpc::Marshal& m, const FeedbackRecord& r) {
  m.put_string(r.app_type);
  m.put_double(r.exec_time_s);
  m.put_double(r.gpu_time_s);
  m.put_double(r.transfer_time_s);
  m.put_double(r.mem_bw_gbps);
  m.put_double(r.gpu_util);
  m.put_i32(r.gid);
}

inline FeedbackRecord decode_feedback(rpc::Unmarshal& u) {
  FeedbackRecord r;
  r.app_type = u.get_string();
  r.exec_time_s = u.get_double();
  r.gpu_time_s = u.get_double();
  r.transfer_time_s = u.get_double();
  r.mem_bw_gbps = u.get_double();
  r.gpu_util = u.get_double();
  r.gid = u.get_i32();
  return r;
}

inline void encode_snapshot(rpc::Marshal& m, const DstSnapshot& s) {
  m.put_u64(s.version);
  m.put_i64(s.taken_at);
  m.put_u32(static_cast<std::uint32_t>(s.dst.rows().size()));
  for (const auto& row : s.dst.rows()) {
    m.put_i32(row.gid);
    m.put_double(row.weight);
    m.put_i32(row.load);
    m.put_i64(row.total_bound);
  }
  m.put_u32(static_cast<std::uint32_t>(s.bound_types.size()));
  for (const auto& types : s.bound_types) {
    m.put_u32(static_cast<std::uint32_t>(types.size()));
    for (const auto& t : types) m.put_string(t);
  }
  const auto entries = s.sft.entries();
  m.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    encode_feedback(m, e.rec);
    m.put_i32(e.samples);
  }
}

inline DstSnapshot decode_snapshot(rpc::Unmarshal& u) {
  DstSnapshot s;
  s.version = u.get_u64();
  s.taken_at = u.get_i64();
  const std::uint32_t n_rows = u.get_u32();
  for (std::uint32_t i = 0; i < n_rows; ++i) {
    DeviceStatus row;
    row.gid = u.get_i32();
    row.weight = u.get_double();
    row.load = u.get_i32();
    row.total_bound = u.get_i64();
    // A sparsely-built table carries gid = -1 filler rows; load_row would
    // interpret that gid as a huge index, so skip them (they carry no
    // state — encode/decode of such a table must still round-trip).
    if (row.gid >= 0) s.dst.load_row(row);
  }
  const std::uint32_t n_bound = u.get_u32();
  s.bound_types.resize(n_bound);
  for (std::uint32_t i = 0; i < n_bound; ++i) {
    const std::uint32_t n_types = u.get_u32();
    s.bound_types[i].reserve(n_types);
    for (std::uint32_t j = 0; j < n_types; ++j) {
      s.bound_types[i].push_back(u.get_string());
    }
  }
  const std::uint32_t n_sft = u.get_u32();
  for (std::uint32_t i = 0; i < n_sft; ++i) {
    SchedulerFeedbackTable::Entry e;
    e.rec = decode_feedback(u);
    e.samples = u.get_i32();
    s.sft.load(e);
  }
  return s;
}

inline void encode_delta(rpc::Marshal& m, const DstDelta& d) {
  m.put_u64(d.base_version);
  m.put_u64(d.new_version);
  m.put_i64(d.taken_at);
  m.put_u32(static_cast<std::uint32_t>(d.ops.size()));
  for (const auto& op : d.ops) {
    m.put_u8(static_cast<std::uint8_t>(op.kind));
    m.put_i32(op.gid);
    m.put_string(op.app_type);
    m.put_i32(op.applied_by);
    if (op.kind == DeltaOp::Kind::kFeedback) encode_feedback(m, op.feedback);
  }
}

inline DstDelta decode_delta(rpc::Unmarshal& u) {
  DstDelta d;
  d.base_version = u.get_u64();
  d.new_version = u.get_u64();
  d.taken_at = u.get_i64();
  const std::uint32_t n = u.get_u32();
  d.ops.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    DeltaOp op;
    const std::uint8_t kind = u.get_u8();
    if (kind > static_cast<std::uint8_t>(DeltaOp::Kind::kFeedback)) {
      throw rpc::DecodeError("unknown delta op kind");
    }
    op.kind = static_cast<DeltaOp::Kind>(kind);
    op.gid = u.get_i32();
    op.app_type = u.get_string();
    op.applied_by = u.get_i32();
    if (op.kind == DeltaOp::Kind::kFeedback) op.feedback = decode_feedback(u);
    d.ops.push_back(std::move(op));
  }
  return d;
}

}  // namespace strings::core
