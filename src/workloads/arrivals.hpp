// Open-loop multi-tenant traffic engine (ROADMAP item 2, modeled on the
// serverless-GPU workloads of "MQFQ-Sticky: Fair Queueing For Serverless
// GPU Functions"): tenants emit requests on their own clock — Poisson,
// bursty MMPP-2, or a recorded trace — regardless of whether earlier
// requests finished. Every request is a short-lived app instance with its
// own GpuApi binding, so a run churns through thousands of RCB
// register/unregister handshakes; tenants themselves attach and detach
// mid-run via [attach_at, detach_at) windows.
//
// Arrival schedules are pure functions of the tenant config: the generator
// fibers walk the exact vector `arrival_schedule()` returns, so a test that
// pins the schedule pins the run. Randomness comes from a self-contained
// splitmix64 stream derived from (seed, tenant name) — per-tenant streams
// are independent and the whole engine is bit-reproducible across machines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/service.hpp"

namespace strings::workloads {

enum class ArrivalKind { kPoisson, kBursty, kTrace };

struct OpenLoopTenant {
  std::string name = "tenantA";
  double weight = 1.0;
  std::string app = "MC";       // Table I abbreviation (short apps fit best)
  core::NodeId origin = 0;      // node receiving this tenant's requests
  int programmed_device = 0;    // the app's own cudaSetDevice target
  ArrivalKind arrival = ArrivalKind::kPoisson;
  /// Mean arrival rate in requests per second of virtual time. For kBursty
  /// this is the OFF-state (quiet) rate; the ON state runs at
  /// rate_rps * burst_factor. Ignored for kTrace.
  double rate_rps = 50.0;
  double burst_factor = 8.0;
  /// Mean dwell times of the two MMPP-2 states (exponentially distributed).
  sim::SimTime burst_on = sim::msec(200);
  sim::SimTime burst_off = sim::msec(800);
  /// kTrace: text file of arrival offsets in milliseconds, one per line
  /// (blank lines and #-comments ignored), relative to attach_at.
  std::string trace_file;
  int requests = 100;           // schedule length cap
  /// Tenant churn window: no arrivals before attach_at (>= 0) or at/after
  /// detach_at (detach_at < 0 means the tenant never detaches).
  sim::SimTime attach_at = 0;
  sim::SimTime detach_at = -1;
  std::uint64_t seed = 1;
};

/// The PRNG stream seed for a tenant: splitmix-scrambled FNV-1a over the
/// tenant name, folded with the scenario seed. Exposed so tests can assert
/// stream independence.
std::uint64_t tenant_stream_seed(std::uint64_t seed, const std::string& name);

/// Absolute arrival times for one tenant, strictly increasing, capped by
/// `requests` and the detach time. Pure: same config ⇒ same vector, on any
/// machine. Throws std::invalid_argument on bad config and
/// std::runtime_error on an unreadable/garbled trace file.
std::vector<sim::SimTime> arrival_schedule(const OpenLoopTenant& tenant);

/// Spawns the per-tenant generator fibers on `bed`'s simulation without
/// driving it; stats (one row per tenant, in order) fill in as requests
/// complete. Each arrival runs serve_request as its own short-lived fiber:
/// bind API → run app → unbind → record.
std::shared_ptr<std::vector<StreamStats>> start_open_loop(
    Testbed& bed, const std::vector<OpenLoopTenant>& tenants);

/// start_open_loop + run the simulation to completion.
std::vector<StreamStats> run_open_loop(
    Testbed& bed, const std::vector<OpenLoopTenant>& tenants);

}  // namespace strings::workloads
