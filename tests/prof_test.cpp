// Tests for obs::prof — the critical-path profiler.
//
// Covers the interval-claim sweep (exclusive buckets summing exactly to
// wall-clock, including under pipelined overlap), the latency digest, the
// fairness accounting (Jain's index must equal metrics::jain_fairness;
// attained service must equal the testbed's LAS accumulator), the
// zero-overhead contract (--prof leaves the trace byte-identical), offline
// re-derivation of a report with requests still in flight, and the
// RequestTrace ordering contract the sweep is built around: timestamps are
// monotone only within one side of the stack once the non-blocking RPC
// path pipelines calls.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "obs/prof.hpp"
#include "workloads/scenario_config.hpp"

namespace strings {
namespace {

using obs::ReqPhase;
using obs::RequestTrace;
using obs::prof::Bucket;

constexpr sim::SimTime kMs = sim::msec(1);

obs::prof::ProfRequest make_request() {
  obs::prof::ProfRequest req;
  req.app_id = 7;
  req.app_type = "MC";
  req.tenant = "pricing-svc";
  req.origin = 0;
  req.gid = 2;
  req.node = 1;
  return req;
}

// --- the interval-claim sweep -------------------------------------------

TEST(ProfSweep, SequentialLifecyclePartitionsWallClock) {
  obs::prof::ProfRequest req = make_request();
  req.issued_at = 0;
  req.completed_at = 100 * kMs;
  req.steps = {
      {ReqPhase::kIssue, 0},
      {ReqPhase::kBind, 5 * kMs},          // bind:    5..10
      {ReqPhase::kMarshal, 10 * kMs},      // marshal: 10..12
      {ReqPhase::kTransit, 12 * kMs},      // transit: 12..20
      {ReqPhase::kBackendQueue, 20 * kMs}, // queue:   20..30
      {ReqPhase::kBackendStart, 30 * kMs},
      {ReqPhase::kDispatchWait, 35 * kMs}, // gate:    35..40
      {ReqPhase::kExecute, 40 * kMs},      // execute: 30..90 minus gate
      {ReqPhase::kBackendDone, 90 * kMs},
      {ReqPhase::kComplete, 100 * kMs},
  };
  const obs::prof::RequestProfile p = obs::prof::profile_request(req);

  EXPECT_EQ(p.wall, 100 * kMs);
  EXPECT_EQ(p.by_bucket[static_cast<int>(Bucket::kBind)], 5 * kMs);
  EXPECT_EQ(p.by_bucket[static_cast<int>(Bucket::kMarshal)], 2 * kMs);
  EXPECT_EQ(p.by_bucket[static_cast<int>(Bucket::kTransit)], 8 * kMs);
  EXPECT_EQ(p.by_bucket[static_cast<int>(Bucket::kBackendQueue)], 10 * kMs);
  EXPECT_EQ(p.by_bucket[static_cast<int>(Bucket::kDispatchWait)], 5 * kMs);
  // Execute spans kBackendStart..kBackendDone; the gate wait inside it is
  // claimed by the higher-priority dispatch_wait bucket.
  EXPECT_EQ(p.by_bucket[static_cast<int>(Bucket::kExecute)], 55 * kMs);
  // Uncovered remainder (90..100 plus 0..5) is frontend/host time.
  EXPECT_EQ(p.by_bucket[static_cast<int>(Bucket::kFrontend)], 15 * kMs);

  sim::SimTime sum = 0;
  for (const sim::SimTime t : p.by_bucket) sum += t;
  EXPECT_EQ(sum, p.wall);  // exclusive buckets: no loss, no double-count

  EXPECT_EQ(p.critical, Bucket::kExecute);
  EXPECT_EQ(p.resource, "gpu2.engines");
}

TEST(ProfSweep, PipelinedOverlapStillSumsToWallClock) {
  // Two calls in flight at once: the frontend marshals and sends call 2
  // while call 1 is still queued at the backend. Intervals overlap; the
  // sweep must still partition wall-clock exactly.
  obs::prof::ProfRequest req = make_request();
  req.issued_at = 0;
  req.completed_at = 50 * kMs;
  req.steps = {
      {ReqPhase::kIssue, 0},
      {ReqPhase::kMarshal, 2 * kMs},        // call 1 marshal
      {ReqPhase::kTransit, 4 * kMs},        // call 1 in transit
      {ReqPhase::kMarshal, 6 * kMs},        // call 2 marshal (pipelined)
      {ReqPhase::kTransit, 8 * kMs},        // call 2 in transit
      {ReqPhase::kBackendQueue, 10 * kMs},  // call 1 delivered
      {ReqPhase::kBackendStart, 12 * kMs},
      {ReqPhase::kBackendQueue, 14 * kMs},  // call 2 delivered
      {ReqPhase::kBackendDone, 20 * kMs},   // call 1 done
      {ReqPhase::kBackendStart, 20 * kMs},
      {ReqPhase::kBackendDone, 45 * kMs},   // call 2 done
      {ReqPhase::kComplete, 50 * kMs},
  };
  const obs::prof::RequestProfile p = obs::prof::profile_request(req);
  sim::SimTime sum = 0;
  for (const sim::SimTime t : p.by_bucket) sum += t;
  EXPECT_EQ(sum, p.wall);
  EXPECT_EQ(p.wall, 50 * kMs);
  // Execution covers 12..45 continuously; it outranks the overlapping
  // transit/queue intervals in the sweep.
  EXPECT_EQ(p.by_bucket[static_cast<int>(Bucket::kExecute)], 33 * kMs);
  EXPECT_EQ(p.critical, Bucket::kExecute);
}

TEST(ProfSweep, TransitBlamesTheInterNodeLink) {
  obs::prof::ProfRequest req = make_request();
  req.origin = 0;
  req.node = 3;
  req.issued_at = 0;
  req.completed_at = 10 * kMs;
  req.steps = {
      {ReqPhase::kIssue, 0},
      {ReqPhase::kTransit, 1 * kMs},
      {ReqPhase::kBackendQueue, 9 * kMs},
      {ReqPhase::kComplete, 10 * kMs},
  };
  const obs::prof::RequestProfile p = obs::prof::profile_request(req);
  EXPECT_EQ(p.critical, Bucket::kTransit);
  EXPECT_EQ(p.resource, "link.n0-n3");
}

// --- the latency digest --------------------------------------------------

TEST(ProfDigest, QuantilesAreClampedToObservedRange) {
  obs::prof::Digest d;
  for (int i = 1; i <= 100; ++i) d.observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(d.mean(), 50.5);
  EXPECT_EQ(d.count, 100);
  EXPECT_DOUBLE_EQ(d.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(d.max_ms, 100.0);
  const double p50 = d.quantile(0.5);
  const double p99 = d.quantile(0.99);
  EXPECT_GE(p50, d.min_ms);
  EXPECT_LE(p50, d.max_ms);
  EXPECT_LE(p50, p99);          // quantiles are monotone
  EXPECT_GE(p99, 50.0);         // p99 lands in the upper buckets
  EXPECT_LE(d.quantile(1.0), d.max_ms);
  EXPECT_GE(d.quantile(0.0), 0.0);
}

TEST(ProfDigest, EmptyDigestIsZero) {
  obs::prof::Digest d;
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.99), 0.0);
}

// --- live-run fairness accounting ---------------------------------------

const char kTwoTenantScenario[] = R"(
mode = strings
topology = supernode
balancing = GWtMin
device_policy = PS

[stream]
app = MC
origin = 0
requests = 4
lambda_scale = 0.35
server_threads = 4
tenant = pricing-svc
weight = 2.0

[stream]
app = BS
origin = 1
requests = 4
lambda_scale = 0.35
server_threads = 4
tenant = options-svc
weight = 1.0
)";

struct ProfiledRun {
  ProfiledRun() {
    cfg = workloads::parse_scenario(std::string(kTwoTenantScenario));
    cfg.testbed.trace = true;
    bed = std::make_unique<workloads::Testbed>(sim, cfg.testbed);
    stats = workloads::run_streams(*bed, cfg.streams);
    report = obs::prof::profile(obs::prof::input_from_tracer(*bed->tracer()));
  }
  sim::Simulation sim;
  workloads::ScenarioConfig cfg;
  std::unique_ptr<workloads::Testbed> bed;
  std::vector<workloads::StreamStats> stats;
  obs::prof::Report report;
};

TEST(ProfFairness, AttainedServiceMatchesTestbedAccumulator) {
  ProfiledRun run;
  ASSERT_EQ(run.report.tenants.size(), 2u);
  for (const auto& [tenant, acct] : run.report.tenants) {
    SCOPED_TRACE(tenant);
    // The profiler re-derives engine residency from KL/H2D/D2H spans; it
    // must agree exactly with the LAS accumulator in core/gpu_scheduler.
    EXPECT_DOUBLE_EQ(sim::to_seconds(acct.attained_ns),
                     run.bed->attained_service_s(tenant));
    EXPECT_GT(acct.attained_ns, 0);
    EXPECT_EQ(acct.requests, 4);
  }
  EXPECT_DOUBLE_EQ(run.report.tenants.at("pricing-svc").weight, 2.0);
  EXPECT_DOUBLE_EQ(run.report.tenants.at("options-svc").weight, 1.0);
}

TEST(ProfFairness, JainIndexMatchesMetricsLibrary) {
  ProfiledRun run;
  std::vector<double> attained, shares;
  for (const auto& [tenant, acct] : run.report.tenants) {
    attained.push_back(sim::to_seconds(acct.attained_ns));
    shares.push_back(acct.weight);
  }
  EXPECT_DOUBLE_EQ(run.report.jain,
                   metrics::jain_fairness(attained, shares));
  EXPECT_GT(run.report.jain, 0.0);
  EXPECT_LE(run.report.jain, 1.0);
}

TEST(ProfFairness, SlowdownIsAtLeastOne) {
  ProfiledRun run;
  for (const auto& [tenant, acct] : run.report.tenants) {
    SCOPED_TRACE(tenant);
    EXPECT_GE(acct.slowdown(), 1.0);
    EXPECT_LE(acct.contention_ns, acct.wall_ns);
  }
}

TEST(ProfReport, AllRequestsCompleteAndRenderIsDeterministic) {
  ProfiledRun run;
  EXPECT_EQ(run.report.complete_requests, 8);
  EXPECT_EQ(run.report.incomplete_requests, 0);
  EXPECT_EQ(run.report.requests.size(), 8u);
  for (std::size_t i = 1; i < run.report.requests.size(); ++i) {
    EXPECT_LT(run.report.requests[i - 1].app_id,
              run.report.requests[i].app_id);
  }
  std::ostringstream a, b;
  obs::prof::render(run.report, a);
  obs::prof::render(run.report, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("== strings profiler =="), std::string::npos);
  EXPECT_NE(a.str().find("jain_fairness_index:"), std::string::npos);
}

TEST(ProfReport, RegistryExportCarriesAttribution) {
  ProfiledRun run;
  obs::prof::export_to_registry(run.report, run.bed->metrics_registry());
  const std::string csv = run.bed->metrics_registry().to_csv();
  EXPECT_NE(csv.find("prof/fairness/jain"), std::string::npos);
  EXPECT_NE(csv.find("prof/tenant/pricing-svc/attained_s"),
            std::string::npos);
  EXPECT_NE(csv.find("prof/requests/complete"), std::string::npos);
}

// --- zero overhead: --prof must not perturb the run ----------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

TEST(ProfZeroOverhead, TraceIsByteIdenticalWithAndWithoutProf) {
  const std::string dir = ::testing::TempDir();
  auto cfg = workloads::parse_scenario(std::string(kTwoTenantScenario));

  workloads::RunArtifacts plain;
  plain.trace_path = dir + "/prof_zo_off.trace.json";
  const auto off = workloads::run(cfg, plain);

  workloads::RunArtifacts profiled;
  profiled.trace_path = dir + "/prof_zo_on.trace.json";
  profiled.prof_path = dir + "/prof_zo_on.prof.txt";
  const auto on = workloads::run(cfg, profiled);

  ASSERT_EQ(off.streams.size(), on.streams.size());
  for (std::size_t i = 0; i < off.streams.size(); ++i) {
    EXPECT_EQ(off.streams[i].makespan, on.streams[i].makespan);
    EXPECT_EQ(off.streams[i].total_response, on.streams[i].total_response);
  }
  const std::string trace_off = slurp(plain.trace_path);
  const std::string trace_on = slurp(profiled.trace_path);
  EXPECT_FALSE(trace_off.empty());
  EXPECT_EQ(trace_off, trace_on);  // the profiler is a pure observer
  const std::string prof = slurp(profiled.prof_path);
  EXPECT_NE(prof.find("== strings profiler =="), std::string::npos);
  EXPECT_EQ(on.prof_incomplete_requests, 0);
}

// --- requests in flight at a horizon --------------------------------------

// A run cut at a horizon leaves requests in flight. The trace marks each
// with a request.incomplete instant, and tools/strings_prof must re-derive
// the online report, incomplete count included, byte for byte from it.
TEST(ProfOffline, HorizonRunWithIncompleteRequestsRederivesExactly) {
  const std::string dir = ::testing::TempDir();
  const auto cfg = workloads::parse_scenario(std::string(kTwoTenantScenario));
  workloads::RunArtifacts online;
  online.trace_path = dir + "/prof_horizon.trace.json";
  online.prof_path = dir + "/prof_horizon.online.txt";
  const auto out = workloads::run(cfg, online, sim::sec(6));
  int completed = 0;
  for (const auto& st : out.streams) completed += st.completed;
  ASSERT_GT(completed, 0);
  ASSERT_GT(out.prof_incomplete_requests, 0);

  const std::string offline_path = dir + "/prof_horizon.offline.txt";
  const std::string cmd = std::string(STRINGS_PROF_BIN) + " " +
                          online.trace_path + " " + offline_path;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::string report = slurp(online.prof_path);
  EXPECT_EQ(slurp(offline_path), report);
  EXPECT_NE(report.find("requests: " + std::to_string(completed) +
                        " complete, " +
                        std::to_string(out.prof_incomplete_requests) +
                        " incomplete\n"),
            std::string::npos)
      << report;
  std::remove(online.trace_path.c_str());
}

// --- interference forensics ----------------------------------------------

constexpr Bucket kWaitBuckets[] = {Bucket::kTransit, Bucket::kBackendQueue,
                                   Bucket::kDispatchWait};

TEST(ProfForensics, AttributionConservesWaitTimeExactly) {
  obs::prof::ProfRequest req = make_request();  // origin 0, gid 2, node 1
  req.issued_at = 0;
  req.completed_at = 40 * kMs;
  req.steps = {
      {ReqPhase::kIssue, 0},
      {ReqPhase::kTransit, 5 * kMs},        // transit: 5..10 (link.n0-n1)
      {ReqPhase::kBackendQueue, 10 * kMs},  // queue:  10..20 (node1.daemon)
      {ReqPhase::kBackendStart, 20 * kMs},
      {ReqPhase::kDispatchWait, 20 * kMs},  // gate:   20..30 (gpu2.engines)
      {ReqPhase::kExecute, 30 * kMs},
      {ReqPhase::kBackendDone, 40 * kMs},
      {ReqPhase::kComplete, 40 * kMs},
  };
  // Occupant timelines: the link was half-busy with batch traffic, the
  // daemon handled the victim's own earlier call then a batch call, and
  // the engines ran batch work over the first 6 ms of the gate wait.
  std::vector<obs::OccupantStamp> stamps = {
      {"link.n0-n1", "batch-train", 0, 7 * kMs},
      {"node1.daemon", "pricing-svc", 10 * kMs, 14 * kMs},
      {"node1.daemon", "batch-train", 14 * kMs, 20 * kMs},
      {"gpu2.engines", "batch-train", 18 * kMs, 26 * kMs},
  };
  const obs::prof::OccupantIndex occ = obs::prof::build_occupant_index(stamps);
  const obs::prof::RequestProfile p = obs::prof::profile_request(req, occ);

  const auto& transit = p.culprits[static_cast<int>(Bucket::kTransit)];
  EXPECT_EQ(transit.at("batch-train"), 2 * kMs);  // 5..7
  EXPECT_EQ(transit.at(obs::prof::kIdleCulprit), 3 * kMs);  // 7..10 uncovered

  const auto& queue = p.culprits[static_cast<int>(Bucket::kBackendQueue)];
  EXPECT_EQ(queue.at("pricing-svc"), 4 * kMs);  // self-interference kept
  EXPECT_EQ(queue.at("batch-train"), 6 * kMs);

  // dispatch_wait resolves against the ENGINES timeline (nothing occupies
  // the dispatcher itself — the gate is closed because the engines are
  // running someone's work).
  const auto& gate = p.culprits[static_cast<int>(Bucket::kDispatchWait)];
  EXPECT_EQ(gate.at("batch-train"), 6 * kMs);  // 20..26
  EXPECT_EQ(gate.at(obs::prof::kIdleCulprit), 4 * kMs);

  // Conservation: per-bucket culprit charges sum bit-for-bit to the
  // bucket, for every wait bucket.
  for (const Bucket b : kWaitBuckets) {
    sim::SimTime culprit_sum = 0;
    for (const auto& [who, ns] : p.culprits[static_cast<int>(b)]) {
      culprit_sum += ns;
    }
    EXPECT_EQ(culprit_sum, p.by_bucket[static_cast<int>(b)])
        << "bucket " << static_cast<int>(b);
  }
}

TEST(ProfForensics, NoTimelineAttributesEverythingToIdle) {
  obs::prof::ProfRequest req = make_request();
  req.issued_at = 0;
  req.completed_at = 10 * kMs;
  req.steps = {
      {ReqPhase::kIssue, 0},
      {ReqPhase::kTransit, 1 * kMs},
      {ReqPhase::kBackendQueue, 9 * kMs},
      {ReqPhase::kComplete, 10 * kMs},
  };
  const obs::prof::OccupantIndex occ =
      obs::prof::build_occupant_index({});  // empty flight recorder
  const obs::prof::RequestProfile p = obs::prof::profile_request(req, occ);
  const auto& transit = p.culprits[static_cast<int>(Bucket::kTransit)];
  EXPECT_EQ(transit.at(obs::prof::kIdleCulprit),
            p.by_bucket[static_cast<int>(Bucket::kTransit)]);
}

TEST(ProfForensics, LiveRunConservesAndAggregatesTheMatrix) {
  sim::Simulation sim;
  auto cfg = workloads::parse_scenario(std::string(kTwoTenantScenario));
  // Exemplars turn the occupant flight recorder on (and trace + stream).
  cfg.testbed.exemplars = 3;
  workloads::Testbed bed(sim, cfg.testbed);
  workloads::run_streams(bed, cfg.streams);
  const obs::prof::Report report =
      obs::prof::profile(obs::prof::input_from_tracer(*bed.tracer()));

  ASSERT_TRUE(report.forensics);
  EXPECT_FALSE(bed.tracer()->occupants().empty());
  EXPECT_EQ(bed.tracer()->occupants_dropped(), 0u);

  // The tentpole invariant: every blocked nanosecond lands on exactly one
  // culprit — per request, per wait bucket, bit for bit.
  sim::SimTime attributed_total = 0;
  for (const auto& p : report.requests) {
    for (const Bucket b : kWaitBuckets) {
      sim::SimTime culprit_sum = 0;
      for (const auto& [who, ns] : p.culprits[static_cast<int>(b)]) {
        culprit_sum += ns;
      }
      EXPECT_EQ(culprit_sum, p.by_bucket[static_cast<int>(b)]);
      attributed_total += culprit_sum;
    }
  }
  // ... and the victim x culprit matrix is exactly that attribution,
  // re-aggregated by tenant.
  sim::SimTime matrix_total = 0;
  for (const auto& [victim, row] : report.interference) {
    for (const auto& [culprit, ns] : row) matrix_total += ns;
  }
  EXPECT_EQ(matrix_total, attributed_total);
  EXPECT_FALSE(report.interference.empty());

  std::ostringstream os;
  obs::prof::render(report, os);
  EXPECT_NE(os.str().find("interference matrix"), std::string::npos);
}

TEST(ProfForensics, OffByDefaultLeavesReportAndTracerClean) {
  ProfiledRun run;  // trace on, forensics off
  EXPECT_FALSE(run.bed->tracer()->forensics_enabled());
  EXPECT_TRUE(run.bed->tracer()->occupants().empty());
  EXPECT_FALSE(run.report.forensics);
  EXPECT_TRUE(run.report.interference.empty());
  EXPECT_TRUE(run.report.exemplars.empty());
  for (const auto& p : run.report.requests) {
    for (const auto& m : p.culprits) EXPECT_TRUE(m.empty());
  }
  std::ostringstream os;
  obs::prof::render(run.report, os);
  EXPECT_EQ(os.str().find("interference matrix"), std::string::npos);
  EXPECT_EQ(os.str().find("tail exemplars"), std::string::npos);
}

TEST(ProfForensics, ExemplarIdsArePositional) {
  // Three completions in window 3, top-2 requested.
  const auto ids = obs::prof::exemplar_ids_for_window(3, 3, 2);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "w3.1");
  EXPECT_EQ(ids[1], "w3.2");
  EXPECT_EQ(obs::prof::exemplar_ids_for_window(1, 3, 2).size(), 1u);
  EXPECT_TRUE(obs::prof::exemplar_ids_for_window(0, 3, 2).empty());
}

TEST(ProfForensics, ExemplarsAreRankedAndSerializedDeterministically) {
  sim::Simulation sim;
  auto cfg = workloads::parse_scenario(std::string(kTwoTenantScenario));
  cfg.testbed.stream_window = sim::msec(20);
  cfg.testbed.exemplars = 2;
  workloads::Testbed bed(sim, cfg.testbed);
  workloads::run_streams(bed, cfg.streams);
  bed.finalize_stream();
  const obs::prof::Report report =
      obs::prof::profile(obs::prof::input_from_tracer(*bed.tracer()));

  ASSERT_TRUE(report.forensics);
  ASSERT_FALSE(report.exemplars.empty());
  for (std::size_t i = 0; i < report.exemplars.size(); ++i) {
    const auto& ex = report.exemplars[i];
    EXPECT_EQ(ex.id, "w" + std::to_string(ex.window) + "." +
                         std::to_string(ex.rank));
    EXPECT_GE(ex.rank, 1);
    EXPECT_LE(ex.rank, 2);
    // The exemplar belongs to the window its completion fell into.
    EXPECT_EQ(ex.req.completed_at / cfg.testbed.stream_window, ex.window);
    if (i > 0) {
      const auto& prev = report.exemplars[i - 1];
      // (window, rank) ascending; wall non-increasing within a window.
      EXPECT_TRUE(prev.window < ex.window ||
                  (prev.window == ex.window && prev.rank < ex.rank));
      if (prev.window == ex.window) {
        EXPECT_GE(prev.prof.wall, ex.prof.wall);
      }
    }
  }

  std::ostringstream a, b;
  obs::prof::write_exemplars_jsonl(report, a);
  obs::prof::write_exemplars_jsonl(report, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.str().compare(0, 31, "{\"schema\":\"strings.exemplar.v1\""), 0);
}

TEST(ProfForensics, ForensicsIsAPureObserver) {
  const std::string dir = ::testing::TempDir();
  auto cfg = workloads::parse_scenario(std::string(kTwoTenantScenario));

  workloads::RunArtifacts plain;
  const auto off = workloads::run(cfg, plain);

  workloads::RunArtifacts forensic;
  forensic.stream_path = dir + "/forensics_observer.stream.jsonl";
  cfg.testbed.exemplars = 2;
  const auto on = workloads::run(cfg, forensic);

  ASSERT_EQ(off.streams.size(), on.streams.size());
  for (std::size_t i = 0; i < off.streams.size(); ++i) {
    EXPECT_EQ(off.streams[i].makespan, on.streams[i].makespan);
    EXPECT_EQ(off.streams[i].total_response, on.streams[i].total_response);
  }
  const std::string stream = slurp(forensic.stream_path);
  EXPECT_NE(stream.find("strings.stream.v1"), std::string::npos);
  const std::string sidecar = slurp(forensic.stream_path + ".exemplars.jsonl");
  // Every sidecar line reappears verbatim at the tail of the stream file.
  EXPECT_NE(stream.find(sidecar), std::string::npos);
}

// --- the RequestTrace ordering contract (pipelined non-blocking RPC) -----

bool frontend_side(ReqPhase p) {
  return p == ReqPhase::kIssue || p == ReqPhase::kBind ||
         p == ReqPhase::kMarshal || p == ReqPhase::kTransit ||
         p == ReqPhase::kComplete;
}

// With the non-blocking RPC path, the frontend keeps stamping marshal /
// transit steps for later calls while the backend is still working through
// earlier ones, so the merged step list is NOT globally monotone — which
// is exactly why the profiler sweeps intervals instead of walking a single
// state machine. What DOES hold, and what this test pins:
//   - frontend-side stamps are monotone in append order (stamped live);
//   - backend-side stamps are monotone too, except kBackendQueue, which
//     the worker back-dates to the packet's delivery time when it finally
//     picks it up — those form their own monotone FIFO subsequence;
//   - FIFO channels mean sends precede their (order-preserved) deliveries.
TEST(RequestTraceOrdering, TimestampsMonotonePerSideUnderPipelining) {
  ProfiledRun run;
  int interleaved_requests = 0;
  for (const auto& [app_id, r] : run.bed->tracer()->requests()) {
    SCOPED_TRACE("app_id=" + std::to_string(app_id));
    sim::SimTime last_frontend = -1, last_backend = -1;
    std::vector<sim::SimTime> transits, deliveries;
    bool saw_backend = false, interleaved = false;
    for (const RequestTrace::Step& s : r.steps) {
      if (frontend_side(s.phase)) {
        EXPECT_GE(s.at, last_frontend) << "frontend side went backwards";
        last_frontend = s.at;
        if (saw_backend && s.phase != ReqPhase::kComplete) {
          interleaved = true;  // a frontend stamp after backend activity
        }
        if (s.phase == ReqPhase::kTransit) transits.push_back(s.at);
      } else if (s.phase == ReqPhase::kBackendQueue) {
        // Back-dated to delivery time; monotone among themselves (FIFO).
        EXPECT_TRUE(deliveries.empty() || s.at >= deliveries.back())
            << "deliveries went backwards";
        deliveries.push_back(s.at);
        saw_backend = true;
      } else {
        EXPECT_GE(s.at, last_backend) << "backend side went backwards";
        last_backend = s.at;
        saw_backend = true;
      }
    }
    // FIFO channel causality. Blocking calls stamp a delivery without a
    // transit, so deliveries can outnumber transits and the i-th transit
    // need not pair with the i-th delivery. But each of the last
    // (n - i) transits is delivered at or after transits[i], and
    // deliveries are ascending — so at least (n - i) deliveries sit at
    // >= transits[i]:
    ASSERT_LE(transits.size(), deliveries.size());
    const std::size_t shift = deliveries.size() - transits.size();
    for (std::size_t i = 0; i < transits.size(); ++i) {
      EXPECT_LE(transits[i], deliveries[i + shift]) << "call " << i;
    }
    if (interleaved) ++interleaved_requests;
  }
  // The contract above must hold for every request; pipelining must also
  // actually happen somewhere, or this test pins nothing.
  EXPECT_GT(interleaved_requests, 0);
}

}  // namespace
}  // namespace strings
