// Allocation budget of one remoted CUDA call.
//
// Every intercepted call crosses the frontend, an RPC channel, the backend,
// the CUDA runtime and the GPU model, and each layer used to allocate on
// the way: a marshalled buffer regrown field by field, a heap Event and a
// std::function per device op, a scratch vector per compute completion.
// This binary replaces the global operator new with a counting one and
// pins how many allocations a steady-state call may take, so a change that
// brings heap churn back onto the per-call path fails here instead of
// showing up only as slower perfbench runs. The same holds for the
// observability layer: tracing a call records fixed-size events and adds
// no allocation, and a stream window allocates nothing after the first.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "simcore/simulation.hpp"
#include "workloads/testbed.hpp"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace strings::workloads {
namespace {

using cuda::cudaError_t;
using cuda::cudaMemcpyKind;

// Allocations per steady-state round trip, with room for less than one
// more. Both trips measure 9.04, mostly one buffer per marshalled request
// and reply, one block per device op, and cudaStreamSynchronize's marker
// sim::Event. Before marshalling reserved its buffer and ops
// completed without heap callbacks or Events they did not need, the trips
// took 19.04 (copy) and 22.04 (launch). Lower a bound when a change
// removes an allocation; raising one needs a reason.
constexpr double kMaxAllocsPerMemcpyTrip = 9.25;
constexpr double kMaxAllocsPerLaunchTrip = 9.25;
// What tracing may add per trip: the amortized regrowth of the Tracer's
// arrays and the request's step list, well under one allocation.
constexpr double kAmortizedGrowthPerTrip = 0.1;

struct Remoted {
  explicit Remoted(bool trace = false) {
    TestbedConfig cfg;
    cfg.mode = Mode::kStrings;
    cfg.nodes = {{gpu::tesla_c2050()}};
    cfg.trace = trace;
    bed = std::make_unique<Testbed>(sim, cfg);
  }
  sim::Simulation sim;
  std::unique_ptr<Testbed> bed;
};

backend::AppDescriptor app() {
  backend::AppDescriptor desc;
  desc.app_id = 1;
  desc.app_type = "MM";
  desc.tenant = "T";
  return desc;
}

/// Allocations per call of `call` over `n` calls, after `warmup` calls that
/// let every table, queue and scratch buffer on the path reach its size.
template <typename Call>
double allocs_per_call(Remoted& r, Call call, int warmup, int n) {
  double per_call = -1;
  r.sim.spawn("app", [&] {
    auto api = r.bed->make_api(app());
    cuda::DevPtr ptr = 0;
    ASSERT_EQ(api->cudaMalloc(&ptr, 1 << 20), cudaError_t::cudaSuccess);
    for (int i = 0; i < warmup; ++i) call(*api, ptr);
    const std::uint64_t before = g_allocations;
    for (int i = 0; i < n; ++i) call(*api, ptr);
    per_call = static_cast<double>(g_allocations - before) / n;
    ASSERT_EQ(api->cudaFree(ptr), cudaError_t::cudaSuccess);
    ASSERT_EQ(api->cudaThreadExit(), cudaError_t::cudaSuccess);
  });
  r.sim.run();
  return per_call;
}

// An H2D copy is posted one-way; the synchronous D2H copy behind it on
// the default stream replies only after both ran, so a pair is one round
// trip and nothing it queued is still pending when the count is read.
TEST(AllocBudget, RemotedMemcpyRoundTrip) {
  Remoted r;
  const double per_trip = allocs_per_call(
      r,
      [](frontend::GpuApi& api, cuda::DevPtr ptr) {
        ASSERT_EQ(api.cudaMemcpy(ptr, 4096,
                                 cudaMemcpyKind::cudaMemcpyHostToDevice),
                  cudaError_t::cudaSuccess);
        ASSERT_EQ(api.cudaMemcpy(ptr, 4096,
                                 cudaMemcpyKind::cudaMemcpyDeviceToHost),
                  cudaError_t::cudaSuccess);
      },
      /*warmup=*/64, /*n=*/512);
  EXPECT_GT(per_trip, 0.0);  // the counter sees the path at all
  EXPECT_LE(per_trip, kMaxAllocsPerMemcpyTrip);
  RecordProperty("allocs_per_memcpy_trip", std::to_string(per_trip));
}

// The same with a kernel launch (posted) in place of the H2D copy.
TEST(AllocBudget, RemotedLaunchRoundTrip) {
  Remoted r;
  const double per_trip = allocs_per_call(
      r,
      [](frontend::GpuApi& api, cuda::DevPtr ptr) {
        ASSERT_EQ(api.cudaLaunch({"k", gpu::KernelDesc{sim::usec(50), 0.5,
                                                       10.0}}),
                  cudaError_t::cudaSuccess);
        ASSERT_EQ(api.cudaMemcpy(ptr, 4096,
                                 cudaMemcpyKind::cudaMemcpyDeviceToHost),
                  cudaError_t::cudaSuccess);
      },
      /*warmup=*/64, /*n=*/512);
  EXPECT_GT(per_trip, 0.0);
  EXPECT_LE(per_trip, kMaxAllocsPerLaunchTrip);
  RecordProperty("allocs_per_launch_trip", std::to_string(per_trip));
}

// Traced, the same trips record about seven events and a dozen lifecycle
// phases each, as fixed-size records: tracing adds no allocation per trip
// beyond the amortized growth of the Tracer's arrays and the request's
// step list.
TEST(AllocBudget, TracedRoundTripsCostWhatUntracedOnesDo) {
  const auto trip = [](frontend::GpuApi& api, cuda::DevPtr ptr) {
    ASSERT_EQ(api.cudaLaunch({"k", gpu::KernelDesc{sim::usec(50), 0.5, 10.0}}),
              cudaError_t::cudaSuccess);
    ASSERT_EQ(
        api.cudaMemcpy(ptr, 4096, cudaMemcpyKind::cudaMemcpyDeviceToHost),
        cudaError_t::cudaSuccess);
  };
  Remoted plain;
  Remoted traced(/*trace=*/true);
  const double untraced = allocs_per_call(plain, trip, 64, 512);
  const double per_trip = allocs_per_call(traced, trip, 64, 512);
  ASSERT_NE(traced.bed->tracer(), nullptr);
  EXPECT_GT(traced.bed->tracer()->events().size(), 512u * 6);
  EXPECT_LE(per_trip, untraced + kAmortizedGrowthPerTrip);
  RecordProperty("allocs_per_traced_trip", std::to_string(per_trip));
  RecordProperty("allocs_per_untraced_trip", std::to_string(untraced));
}

}  // namespace
}  // namespace strings::workloads

namespace strings::obs {
namespace {

// Recording after warm-up: each of the Tracer's two arrays (events, args)
// and the request's step list may regrow once as the count doubles;
// anything more is an allocation per event.
TEST(AllocBudget, TracerRecordsWithoutPerEventAllocations) {
  Tracer t;
  t.register_gpu(0, 0, "");
  t.begin_request(1, "MM", "tenant-a", 0, 0);
  const int track = t.request_track(1);
  const NameId app = t.intern("MM");
  const NameId tenant = t.intern("tenant-a");
  const NameId call = t.intern("cudaLaunch");
  const auto record = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const sim::SimTime now = i * 10;
      t.gpu_op(0, Tracer::kKL, now, now + 5,
               {TraceArg::name(Tracer::kApp, app),
                TraceArg::name(Tracer::kTenant, tenant),
                TraceArg::num(Tracer::kSignal, -1 - i)});
      t.complete(track, call, now, now + 3,
                 {TraceArg::num(Tracer::kSeq, i),
                  TraceArg::num(Tracer::kBytes, 4096)});
      t.dispatcher_event(0, i % 2 == 0, now,
                         {TraceArg::name(Tracer::kApp, app)});
      t.gpu_counter(0, Tracer::kQueueDepth, now, i % 7);
      t.request_phase(1, ReqPhase::kExecute, now);
    }
  };
  record(4096);
  const std::uint64_t before = g_allocations;
  record(4096);
  EXPECT_LE(g_allocations - before, 3u);
  EXPECT_EQ(t.events().size(), 4u * 8192);
}

/// An ostream that discards what it is given, so writing a line costs the
/// renderer's allocations only.
class NullBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

// The first window sizes everything: the moved list, each histogram's
// window entry and buckets, and the line buffer. Every later close and
// line, whatever moved in it, allocates nothing.
TEST(AllocBudget, StreamWindowAllocatesNothingAfterTheFirst) {
  Registry reg;
  std::vector<Counter*> counters;
  std::vector<Gauge*> gauges;
  std::vector<Histogram*> hists;
  for (int i = 0; i < 24; ++i) {
    const std::string n = std::to_string(i);
    counters.push_back(&reg.counter("node0/c\"" + n));
    gauges.push_back(&reg.gauge("tenant/g" + n));
    hists.push_back(&reg.histogram("tenant/h" + n + "/response_ms",
                                   default_latency_buckets_ms()));
  }
  double cell = 0.0;
  reg.gauge_fn("sim/fn", [&cell] { return cell; });
  TimeSeries ts(reg, TimeSeries::Config{sim::msec(1)});
  NullBuf buf;
  std::ostream out(&buf);
  const auto window = [&](int k, bool all) {
    for (std::size_t i = 0; i < counters.size(); ++i) {
      if (all || (i + static_cast<std::size_t>(k)) % 3 == 0) {
        counters[i]->inc(1 + k % 5);
        gauges[i]->set(double(k) / 7.0);
        hists[i]->observe(double(k % 97) * 1.5);
      }
    }
    cell += 0.25;
    write_stream_line(out, ts.close_window(sim::msec(k + 1)));
  };
  window(0, /*all=*/true);
  const std::uint64_t before = g_allocations;
  for (int k = 1; k < 300; ++k) window(k, /*all=*/false);
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(ts.windows_closed(), 300u);
}

}  // namespace
}  // namespace strings::obs
