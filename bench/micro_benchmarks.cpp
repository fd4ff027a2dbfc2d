// Microbenchmarks (google-benchmark) of the infrastructure itself: the
// discrete-event kernel, packet marshalling, the timed channel, policy
// decision costs, and the device fluid model. These quantify simulator
// overhead (wall time per simulated operation), not paper results.
//
// Besides the google-benchmark arms, running with STRINGS_BENCH_REPORT set
// records fixed-size event-loop throughput entries (wall_s, events_per_sec)
// into the perf report, which tools/bench_gate compares warn-only across
// kernel changes (the CI perf-smoke job does exactly this).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/gpu_scheduler.hpp"
#include "core/tables.hpp"
#include "gpu/gpu_device.hpp"
#include "policies/balancing.hpp"
#include "policies/device_policies.hpp"
#include "rpc/channel.hpp"
#include "rpc/marshal.hpp"
#include "simcore/small_fn.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace strings;

// --- Event-loop throughput kernels (shared by the google-benchmark arms
// and the STRINGS_BENCH_REPORT entries) ----------------------------------

// `chains` self-rescheduling events round-robin until `total` events have
// fired: pure schedule/pop cost, queue depth stays at `chains`.
struct EventChain {
  sim::Simulation* sim = nullptr;
  long remaining = 0;
  long* fired = nullptr;
  void fire() {
    ++*fired;
    if (--remaining > 0) {
      sim->schedule(sim::usec(1), [this] { fire(); });
    }
  }
};

long run_event_chains(int chains, long total) {
  sim::Simulation sim;
  long fired = 0;
  std::vector<EventChain> cs(static_cast<std::size_t>(chains));
  for (int i = 0; i < chains; ++i) {
    cs[static_cast<std::size_t>(i)] = {&sim, total / chains, &fired};
    sim.schedule(sim::usec(i), [&cs, i] { cs[static_cast<std::size_t>(i)].fire(); });
  }
  sim.run();
  return fired;
}

// The horizon mix the scale workloads keep in one queue: op chains
// re-arming 0-200 us ahead (40% of them zero-delay wakeups), a 10 ms
// dispatcher epoch per device, and one arrival chain per tenant re-arming
// 0.1-10 s ahead. Every chain stops once `total` events have fired. The
// uniform chains above are the opposite case: one horizon, 1 us.
struct BimodalLoad {
  sim::Simulation* sim = nullptr;
  long remaining = 0;
  std::uint64_t rng = 88172645463325252ull;  // xorshift64 state

  std::uint64_t next() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }
  void op() {
    if (--remaining <= 0) return;
    const std::uint64_t r = next();
    const sim::SimTime delay =
        r % 100 < 40 ? 0
                     : 1 + static_cast<sim::SimTime>((r >> 8) % sim::usec(200));
    sim->schedule(delay, [this] { op(); });
  }
  void epoch() {
    if (--remaining <= 0) return;
    sim->schedule(sim::msec(10), [this] { epoch(); });
  }
  void arrival() {
    if (--remaining <= 0) return;
    const std::uint64_t span = sim::sec(10) - sim::msec(100);
    sim->schedule(sim::msec(100) + static_cast<sim::SimTime>(next() % span),
                  [this] { arrival(); });
  }
};

long run_event_bimodal(long total) {
  sim::Simulation sim;
  BimodalLoad load{&sim, total};
  for (int i = 0; i < 256; ++i) {
    sim.schedule(sim::usec(i), [&load] { load.op(); });
  }
  for (int d = 0; d < 32; ++d) {
    sim.schedule(sim::usec(300) * d, [&load] { load.epoch(); });
  }
  for (int t = 0; t < 128; ++t) {
    sim.schedule(sim::msec(100) * t, [&load] { load.arrival(); });
  }
  sim.run();
  return static_cast<long>(sim.events_executed());
}

// `procs` processes each parking and resuming `waits` times: one fiber (or,
// before the fiber kernel, thread-baton) round trip per wait.
long run_park_resume(int procs, int waits) {
  sim::Simulation sim;
  for (int p = 0; p < procs; ++p) {
    sim.spawn("p" + std::to_string(p), [&sim, waits] {
      for (int i = 0; i < waits; ++i) sim.wait_for(sim::usec(1));
    });
  }
  sim.run();
  return static_cast<long>(procs) * waits;
}

// Two processes exchanging `rounds` message pairs through two mailboxes.
long run_mailbox_pingpong(int rounds) {
  sim::Simulation sim;
  sim::Mailbox<int> to_b(sim), to_a(sim);
  sim.spawn("ping", [&] {
    for (int i = 0; i < rounds; ++i) {
      to_b.send(i);
      (void)to_a.receive();
    }
  });
  sim.spawn("pong", [&] {
    for (int i = 0; i < rounds; ++i) {
      (void)to_b.receive();
      to_a.send(i);
    }
  });
  sim.run();
  return 2L * rounds;
}

void BM_SimScheduleAndRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int fired = 0;
    for (int i = 0; i < events; ++i) {
      sim.schedule(sim::usec(i), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimScheduleAndRun)->Arg(1000)->Arg(10000);

void BM_SimProcessSwitch(benchmark::State& state) {
  // Cost of one process suspend/resume round trip (two fiber switches).
  const int waits = 1000;
  for (auto _ : state) {
    sim::Simulation sim;
    sim.spawn("p", [&] {
      for (int i = 0; i < waits; ++i) sim.wait_for(1);
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * waits);
}
BENCHMARK(BM_SimProcessSwitch);

void BM_EventLoopThroughput(benchmark::State& state) {
  // Steady-state schedule/fire cost with a fixed queue depth.
  const long events = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_event_chains(/*chains=*/256, events));
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventLoopThroughput)->Arg(100000);

void BM_EventLoopBimodal(benchmark::State& state) {
  // Schedule/fire cost when near and far horizons share the queue.
  const long events = state.range(0);
  long fired = 0;
  for (auto _ : state) {
    const long n = run_event_bimodal(events);
    benchmark::DoNotOptimize(n);
    fired += n;
  }
  state.SetItemsProcessed(fired);
}
BENCHMARK(BM_EventLoopBimodal)->Arg(100000);

void BM_ProcessParkResume(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_park_resume(procs, /*waits=*/100));
  }
  state.SetItemsProcessed(state.iterations() * procs * 100);
}
BENCHMARK(BM_ProcessParkResume)->Arg(16)->Arg(256);

void BM_MailboxPingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_mailbox_pingpong(rounds));
  }
  state.SetItemsProcessed(state.iterations() * 2 * rounds);
}
BENCHMARK(BM_MailboxPingPong)->Arg(10000);

void BM_MarshalCudaCall(benchmark::State& state) {
  for (auto _ : state) {
    rpc::Marshal m;
    m.put_u64(0xDEADBEEF);        // device pointer
    m.put_u64(1 << 20);           // bytes
    m.put_u32(1);                 // kind
    rpc::Unmarshal u(m.buffer());
    benchmark::DoNotOptimize(u.get_u64());
    benchmark::DoNotOptimize(u.get_u64());
    benchmark::DoNotOptimize(u.get_u32());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MarshalCudaCall);

void BM_ChannelRoundTrip(benchmark::State& state) {
  const int msgs = 256;
  for (auto _ : state) {
    sim::Simulation sim;
    rpc::DuplexChannel ch(sim, rpc::LinkModel::shared_memory());
    sim.spawn_daemon("server", [&] {
      while (true) {
        rpc::Packet p = ch.request.receive();
        rpc::Packet r;
        r.seq = p.seq;
        ch.response.send(std::move(r));
      }
    });
    sim.spawn("client", [&] {
      rpc::RpcClient client(ch);
      for (int i = 0; i < msgs; ++i) {
        client.call(rpc::CallId::kLaunch, rpc::Marshal{});
      }
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_ChannelRoundTrip);

void BM_BalancingPolicySelect(benchmark::State& state) {
  core::GMap gmap;
  gmap.add_node(0, {gpu::quadro2000(), gpu::tesla_c2050()});
  gmap.add_node(1, {gpu::quadro4000(), gpu::tesla_c2070()});
  core::DstSnapshot view;
  view.dst = core::DeviceStatusTable(gmap);
  view.bound_types.resize(4);
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 8; ++i) {
      view.bound_types[static_cast<std::size_t>(g)].push_back("MC");
    }
  }
  core::FeedbackRecord rec;
  rec.app_type = "MC";
  rec.exec_time_s = 5;
  rec.gpu_util = 0.6;
  rec.mem_bw_gbps = 3.0;
  view.sft.update(rec);
  auto policy = policies::make_balancing_policy("MBF");
  policies::BalanceInput in;
  in.gmap = &gmap;
  in.view = &view;
  in.app_type = "MC";
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->select(in));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BalancingPolicySelect);

// `n` RCB entries spread over up to eight tenants (names registered out of
// name order), mixed phases and service, most of them backlogged.
std::vector<policies::RcbSnapshot> multi_tenant_rcb(int n) {
  static const char* const kTenants[] = {"t7", "t2", "t5", "t0",
                                         "t6", "t1", "t4", "t3"};
  std::vector<policies::RcbSnapshot> rcb;
  for (int i = 0; i < n; ++i) {
    policies::RcbSnapshot s;
    s.key = static_cast<std::uint64_t>(i);
    s.tenant_id = static_cast<std::uint32_t>(i % 8);
    s.tenant = kTenants[i % 8];
    s.tenant_weight = 1.0 + (i % 3);
    s.total_service = sim::msec(i * 7 % 50);
    s.tenant_attained = sim::msec((i % 8) * 11 % 40);
    s.cgs = i * 13 % 29;
    s.phase = static_cast<policies::Phase>(i % 4);
    s.backlogged = i % 5 != 4;
    rcb.push_back(s);
  }
  return rcb;
}

// One device-policy decision over a fixed snapshot. MQFQ advances each
// tenant's attained service between decisions so its virtual clocks move.
void BM_DevicePolicyPickAwake(benchmark::State& state, const char* policy) {
  auto rcb = multi_tenant_rcb(static_cast<int>(state.range(0)));
  auto p = policies::make_device_policy(policy);
  sim::SimTime now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->pick_awake(rcb, now));
    now += sim::msec(1);
    for (auto& s : rcb) s.tenant_attained += sim::usec(100 + s.tenant_id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_DevicePolicyPickAwake, PS, "PS")->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_DevicePolicyPickAwake, LAS, "LAS")->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_DevicePolicyPickAwake, MQFQ, "MQFQ")->Arg(8)->Arg(64);

// A GpuScheduler with `entries` acked entries over up to 8 tenants, four
// in five of them backlogged (their backlog counters never move). Each
// step() completes four ops, keeping the tenants' service moving, then
// runs one dispatcher epoch: CGS/entitlement bookkeeping, one backlog read
// per entry, the policy's decision and the gate toggles.
class EpochRig {
 public:
  EpochRig(const char* policy, int entries)
      : sched_(sim_, 0, policies::make_device_policy(policy), config()),
        backlog_(static_cast<std::size_t>(entries)) {
    op_.kind = gpu::GpuDevice::OpKind::kKernel;
    for (int i = 0; i < entries; ++i) {
      gates_.push_back(std::make_unique<core::WakeGate>(sim_));
      backlog_[static_cast<std::size_t>(i)].add(i % 5 != 4 ? 1 : 0);
      core::GpuScheduler::RcbInit init;
      init.app_type = "MM";
      init.tenant = "tenant" + std::to_string(i % 8);
      init.gate = gates_.back().get();
      init.backlog = &backlog_[static_cast<std::size_t>(i)];
      ids_.push_back(sched_.register_app(init));
      sched_.ack(ids_.back());
    }
  }

  void step() {
    for (int k = 0; k < 4; ++k) {
      op_.started = sim_.now();
      op_.submitted = op_.started;
      op_.completed = op_.started + sim::usec(200 + 50 * k);
      sched_.on_op_complete(ids_[next_], op_);
      next_ = (next_ + 7) % ids_.size();
    }
    sim_.run_until(sim_.now() + sched_.config().epoch);
  }

  std::int64_t epochs() const { return sched_.epochs_run(); }

 private:
  static core::GpuScheduler::Config config() {
    core::GpuScheduler::Config cfg;
    cfg.epoch = sim::msec(1);
    return cfg;
  }
  sim::Simulation sim_;
  core::GpuScheduler sched_;
  std::deque<sim::Backlog> backlog_;
  std::vector<std::unique_ptr<core::WakeGate>> gates_;
  std::vector<int> ids_;
  gpu::GpuDevice::Op op_;
  std::size_t next_ = 0;
};

// One dispatcher epoch per iteration. 9 entries is the mean RCB size a
// decision sees on the 8x4 MQFQ scale scenario; 32 is a crowded device.
void BM_DispatcherEpoch(benchmark::State& state, const char* policy) {
  EpochRig rig(policy, static_cast<int>(state.range(0)));
  for (auto _ : state) rig.step();
  state.SetItemsProcessed(rig.epochs());
}
BENCHMARK_CAPTURE(BM_DispatcherEpoch, MQFQ, "MQFQ")->Arg(9)->Arg(32);
BENCHMARK_CAPTURE(BM_DispatcherEpoch, LAS, "LAS")->Arg(9)->Arg(32);

void BM_FluidModelContention(benchmark::State& state) {
  // Many concurrent kernels forcing frequent rate recomputation.
  const int kernels = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    auto props = gpu::tesla_c2050();
    props.concurrent_kernels = 64;
    gpu::GpuDevice dev(sim, 0, props);
    sim.spawn("submit", [&] {
      std::vector<gpu::GpuDevice::OpRef> ops;
      for (int i = 0; i < kernels; ++i) {
        ops.push_back(dev.submit_kernel(
            1, gpu::KernelDesc{sim::msec(1 + i % 7), 0.2, 10.0}));
        sim.wait_for(sim::usec(100));
      }
      for (auto& op : ops) dev.wait(op);
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * kernels);
}
BENCHMARK(BM_FluidModelContention)->Arg(16)->Arg(64);

// Runs `fn` once and records "<events/sec, wall_s>" under `label` in the
// STRINGS_BENCH_REPORT file. Fixed work sizes keep entries comparable
// across runs and kernels.
template <typename Fn>
void record_throughput_entry(const char* label, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  const long events = fn();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  char value[128];
  std::snprintf(value, sizeof(value),
                "{\"wall_s\":%.6f,\"events_per_sec\":%.0f}", wall.count(),
                static_cast<double>(events) / wall.count());
  bench::record_bench_entry(label, value);
  std::printf("%-24s %10.6f s   %12.0f events/sec\n", label, wall.count(),
              static_cast<double>(events) / wall.count());
}

void record_event_loop_report() {
  if (std::getenv("STRINGS_BENCH_REPORT") == nullptr) return;
  std::printf("\n-- event-loop throughput (STRINGS_BENCH_REPORT entries) --\n");
  record_throughput_entry("event_loop",
                          [] { return run_event_chains(256, 2'000'000); });
  record_throughput_entry("event_loop_bimodal",
                          [] { return run_event_bimodal(2'000'000); });
  record_throughput_entry("park_resume",
                          [] { return run_park_resume(256, 2'000); });
  record_throughput_entry("mailbox_pingpong",
                          [] { return run_mailbox_pingpong(200'000); });
  // events_per_sec here is dispatcher epochs per second.
  record_throughput_entry("dispatcher_epoch", [] {
    EpochRig rig("MQFQ", 9);
    for (int i = 0; i < 200'000; ++i) rig.step();
    return static_cast<long>(rig.epochs());
  });
}

// SmallFn inline-storage assertion: the packet-delivery hot path (channel
// round trips through timers, mailboxes and fiber wakeups) must never push
// a callback to the heap — sim/smallfn_heap_fallbacks counts every miss.
// Recorded info-only in the report, but a miss fails the bench run itself:
// a fallback means some kernel lambda outgrew the inline buffer and the
// event hot path silently picked up a malloc.
int record_smallfn_report() {
  if (std::getenv("STRINGS_BENCH_REPORT") == nullptr) return 0;
  const std::uint64_t before = sim::small_fn_heap_fallbacks();
  sim::Simulation sim;
  rpc::DuplexChannel ch(sim, rpc::LinkModel::shared_memory());
  sim.spawn_daemon("server", [&] {
    while (true) {
      rpc::Packet p = ch.request.receive();
      rpc::Packet r;
      r.seq = p.seq;
      ch.response.send(std::move(r));
    }
  });
  sim.spawn("client", [&] {
    rpc::RpcClient client(ch);
    for (int i = 0; i < 512; ++i) {
      client.call(rpc::CallId::kLaunch, rpc::Marshal{});
    }
  });
  sim.run();
  const std::uint64_t fallbacks = sim::small_fn_heap_fallbacks() - before;
  char value[64];
  std::snprintf(value, sizeof(value), "{\"heap_fallbacks\":%llu}",
                static_cast<unsigned long long>(fallbacks));
  bench::record_bench_entry("sim/smallfn_heap_fallbacks", value);
  std::printf("%-24s %10llu heap fallbacks (must be 0)\n",
              "smallfn_assert", static_cast<unsigned long long>(fallbacks));
  if (fallbacks != 0) {
    std::fprintf(stderr,
                 "smallfn_assert: %llu SmallFn heap fallbacks on the packet "
                 "hot path (inline capacity regressed)\n",
                 static_cast<unsigned long long>(fallbacks));
    return 1;
  }
  return 0;
}

}  // namespace

// BENCHMARK_MAIN, plus the perf-report arm: google-benchmark owns timing
// for human-facing output, while the report entries come from one fixed-size
// deterministic pass so bench_gate compares like against like.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  record_event_loop_report();
  return record_smallfn_report();
}
