// Allocation budget of one remoted CUDA call.
//
// Every intercepted call crosses the frontend, an RPC channel, the backend,
// the CUDA runtime and the GPU model, and each layer used to allocate on
// the way: a marshalled buffer regrown field by field, a heap Event and a
// std::function per device op, a scratch vector per compute completion.
// This binary replaces the global operator new with a counting one and
// pins how many allocations a steady-state call may take, so a change that
// brings heap churn back onto the per-call path fails here instead of
// showing up only as slower perfbench runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

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

struct Remoted {
  Remoted() {
    TestbedConfig cfg;
    cfg.mode = Mode::kStrings;
    cfg.nodes = {{gpu::tesla_c2050()}};
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

}  // namespace
}  // namespace strings::workloads
