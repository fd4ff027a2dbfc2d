// obs::prof — the critical-path profiler (observe-only, off by default).
//
// Consumes the Tracer's RequestTrace phase transitions plus the device
// spans it already emits and derives three artifacts:
//
//   1. Per-request latency breakdowns: issue→complete wall-clock is swept
//      into exclusive buckets (bind, marshal, transit, backend_queue,
//      dispatch_wait, execute; uncovered time is frontend/host). The sweep
//      claims each instant for the highest-priority phase interval that
//      covers it, so overlapping records from the pipelined non-blocking
//      RPC path (frontend timestamps run ahead of backend delivery) still
//      sum exactly to wall-clock.
//   2. Critical-path extraction: the bucket a request spent longest in is
//      mapped to a concrete resource (gpu{G}.engines, gpu{G}.dispatcher,
//      node{N}.daemon, link.n{A}-n{B}, control_plane.placement,
//      frontend.host) with blame totals per resource.
//   3. Per-tenant fairness accounting: attained service (the engine
//      residency the LAS CGS math in core/gpu_scheduler accumulates,
//      re-derived here from KL/H2D/D2H span durations), slowdown vs the
//      request's own uncontended path (wall minus queue+gate time), and
//      Jain's fairness index over weight-normalized attained service.
//
// With interference forensics enabled (Tracer::enable_forensics), a fourth
// artifact rides along: every wait interval (transit, backend_queue,
// dispatch_wait) is resolved against the occupant timeline of the blamed
// resource, attributing each blocked nanosecond to the tenant whose work
// held it — with an exact conservation property (per-request culprit ns
// sums bit-for-bit to the request's wait buckets; unheld time goes to the
// "(idle)" sentinel). Aggregated into a victim×culprit interference matrix
// and per-window top-K slowest-request exemplars (strings.exemplar.v1
// JSONL).
//
// The same engine backs the online `run_scenario --prof` report and the
// offline `tools/strings_prof` CLI: both build a ProfInput (from a live
// Tracer or from exported trace JSON) and call profile() + render(), so
// the two reports are byte-for-byte identical — pinned by tests.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "simcore/flat_map.hpp"

namespace strings::obs::prof {

/// Exclusive latency buckets, in lifecycle order. kFrontend is the
/// remainder: wall-clock not claimed by any recorded phase interval.
enum class Bucket {
  kFrontend = 0,
  kBind,
  kMarshal,
  kTransit,
  kBackendQueue,
  kDispatchWait,
  kExecute,
};
inline constexpr int kBucketCount = 7;
const char* bucket_name(Bucket b);
/// Sweep priority: when intervals overlap (pipelining), the instant goes
/// to the higher-priority bucket. dispatch_wait > execute > backend_queue
/// > transit > marshal > bind > frontend.
int bucket_priority(Bucket b);

/// Neutral profiler input record for one request — buildable from a live
/// Tracer or re-parsed from exported trace JSON.
struct ProfRequest {
  std::uint64_t app_id = 0;
  std::string app_type;
  std::string tenant;
  double weight = 1.0;
  int origin = 0;
  int gid = -1;
  int node = -1;
  sim::SimTime issued_at = -1;
  sim::SimTime completed_at = -1;  // < 0: incomplete
  std::vector<RequestTrace::Step> steps;
};

struct ProfInput {
  std::vector<ProfRequest> requests;  // ascending app_id
  /// Per-tenant engine residency in ns (sum of KL/H2D/D2H span durations,
  /// exactly what GpuScheduler::tenant_service accumulates).
  std::map<std::string, sim::SimTime> attained_ns;
  std::map<std::string, std::string> meta;  // run-config labels
  /// Occupant flight-recorder stamps (empty unless forensics was enabled).
  std::vector<OccupantStamp> occupants;
};

/// Builds the profiler input from a live Tracer (online path).
ProfInput input_from_tracer(const Tracer& tracer);

/// Fixed-bucket latency digest (bounds in ms, shared online/offline so
/// quantiles are identical). Quantiles interpolate within a bucket.
struct Digest {
  Digest();
  void observe(double ms);
  double mean() const;
  double quantile(double q) const;

  std::vector<std::int64_t> counts;  // one per bound + overflow
  std::int64_t count = 0;
  double sum_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};
const std::vector<double>& digest_bounds_ms();

/// The culprit name attributed to wait time no occupant stamp covers.
inline constexpr const char* kIdleCulprit = "(idle)";

/// Occupant stamps indexed per resource, each timeline sorted by
/// (begin, end, tenant) — the deterministic tie-break order attribution
/// uses when overlapping stamps cover the same instant.
struct OccupantIndex {
  sim::FlatMap<std::string, std::vector<OccupantStamp>> by_resource;
};
OccupantIndex build_occupant_index(const std::vector<OccupantStamp>& stamps);

/// One profiled request: the bucket sweep result + critical-path verdict.
struct RequestProfile {
  std::uint64_t app_id = 0;
  std::string app_type;
  std::string tenant;
  int gid = -1;
  sim::SimTime wall = 0;
  std::array<sim::SimTime, kBucketCount> by_bucket{};
  Bucket critical = Bucket::kFrontend;
  std::string resource;  // resource blamed for `critical`
  /// Forensics: culprit tenant -> blocked ns, per wait bucket (only
  /// kTransit / kBackendQueue / kDispatchWait entries are ever populated).
  /// Conservation invariant: each populated map sums exactly to the
  /// matching by_bucket entry.
  std::array<sim::FlatMap<std::string, sim::SimTime>, kBucketCount> culprits;
};

struct GroupStats {
  int requests = 0;
  Digest digest;  // wall-clock latency, ms
  sim::SimTime wall_ns = 0;
  std::array<sim::SimTime, kBucketCount> bucket_ns{};
};

struct ResourceBlame {
  int critical_for = 0;         // requests whose critical path this was
  sim::SimTime critical_ns = 0; // their time blocked on it
  sim::SimTime total_ns = 0;    // time on it across all requests
};

struct TenantAccount {
  int requests = 0;
  double weight = 1.0;
  sim::SimTime attained_ns = 0;
  sim::SimTime wall_ns = 0;
  sim::SimTime contention_ns = 0;  // backend_queue + dispatch_wait
  /// wall / (wall - contention): how much slower than the request's own
  /// uncontended path (queue and gate waits removed).
  double slowdown() const;
};

/// One tail exemplar: a per-window top-K slowest request with its full
/// causal timeline and per-interval culprit breakdown. ids are
/// "w{window}.{rank}" (rank 1-based within the window, latency-descending,
/// app_id ascending tie-break) — the same ids SLO alert lines reference.
struct Exemplar {
  std::string id;
  std::int64_t window = 0;
  int rank = 0;
  ProfRequest req;
  RequestProfile prof;
};

struct Report {
  std::map<std::string, std::string> meta;
  int complete_requests = 0;
  int incomplete_requests = 0;
  sim::SimTime first_issue = -1;
  sim::SimTime last_complete = -1;
  std::vector<RequestProfile> requests;           // complete only, app_id asc
  sim::FlatMap<std::string, GroupStats> groups;   // "tenant/x","app/x","gpu/x"
  sim::FlatMap<std::string, ResourceBlame> blame;
  sim::FlatMap<std::string, TenantAccount> tenants;
  double jain = 1.0;
  /// Forensics (populated only when the input carried occupant stamps and
  /// meta said forensics=1): victim tenant -> culprit tenant -> blocked ns.
  bool forensics = false;
  sim::FlatMap<std::string, sim::FlatMap<std::string, sim::SimTime>>
      interference;
  std::vector<Exemplar> exemplars;  // (window, rank) ascending
};

/// Sweeps one request into exclusive buckets (exposed for tests).
RequestProfile profile_request(const ProfRequest& req);
/// Same sweep, plus culprit attribution of the wait buckets against the
/// occupant index (exact conservation; pass an empty index for pure sweep).
RequestProfile profile_request(const ProfRequest& req,
                               const OccupantIndex& occ);
Report profile(const ProfInput& in);
/// Deterministic, diff-stable text report (identical online/offline).
void render(const Report& r, std::ostream& os);
/// Writes the report's exemplars as strings.exemplar.v1 JSONL lines — the
/// single emitter both `run_scenario --exemplars` (online) and
/// `tools/strings_prof --exemplars` (offline) call, so the two byte-match.
void write_exemplars_jsonl(const Report& r, std::ostream& os);
/// Per-window top-K exemplar ids for `completions` requests completing in
/// `window` (= completed_at / window_ns): "w{window}.{rank}" for ranks
/// 1..min(k, completions). The ids are positional; which request sits
/// behind each rank (latency descending, app_id ascending) is decided when
/// profile() materializes the exemplar lines at run end, so the ids the
/// live stream (Testbed window close) and SLO alerts reference match
/// those lines exactly.
std::vector<std::string> exemplar_ids_for_window(std::int64_t completions,
                                                 std::int64_t window, int k);
/// Mirrors the report into prof/... registry instruments so --metrics CSV
/// carries the same attribution (only called when prof is enabled).
void export_to_registry(const Report& r, Registry& reg);

}  // namespace strings::obs::prof
