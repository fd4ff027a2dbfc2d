// Determinism pins for the event-queue scheduler and the intrusive Event
// wait cells.
//
// The EventQueue's contract is that events pop in exactly the (time, seq)
// total order the seed's std::priority_queue<QueuedEvent> gave. A reference
// heap lives here (and only here) so randomized schedules can be checked
// op-for-op against it — if the two ever disagree, the simulator's
// bit-reproducibility is gone even when no unit test of the kernel notices.
#include "simcore/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "simcore/simulation.hpp"

namespace strings::sim {
namespace {

/// The seed kernel's ordering, verbatim: a binary min-heap on (time, seq).
/// Payload is the (time, seq, weak) triple — the EventQueue's SmallFn is
/// irrelevant to ordering, so the reference carries none.
struct RefKey {
  SimTime time;
  std::uint64_t seq;
  bool weak;
  bool operator>(const RefKey& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};
using RefHeap =
    std::priority_queue<RefKey, std::vector<RefKey>, std::greater<RefKey>>;

void push_both(EventQueue& q, RefHeap& ref, SimTime time, std::uint64_t seq,
               bool weak = false) {
  q.push(time, seq, [] {}, weak);
  ref.push(RefKey{time, seq, weak});
}

/// Pops one event from each and asserts the full key matches.
void pop_and_compare(EventQueue& q, RefHeap& ref) {
  ASSERT_FALSE(q.empty());
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(q.min_time(), ref.top().time);
  const EventRecord got = q.pop();
  const RefKey want = ref.top();
  ref.pop();
  ASSERT_EQ(got.time, want.time);
  ASSERT_EQ(got.seq, want.seq);
  ASSERT_EQ(got.weak, want.weak);
}

TEST(EventQueue, FifoTieBreakWithinEqualTimestamps) {
  EventQueue q;
  RefHeap ref;
  // A same-timestamp burst: FIFO order must fall out of seq alone.
  std::uint64_t seq = 0;
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 50; ++i) push_both(q, ref, usec(10) * burst, seq++);
  }
  while (!q.empty()) pop_and_compare(q, ref);
  EXPECT_TRUE(ref.empty());
}

TEST(EventQueue, RandomizedSchedulesMatchReferenceHeap) {
  // Several deterministic seeds x several time distributions. Pushes are
  // interleaved with pops (never below the popped floor, as in the real
  // kernel where schedule() uses now() + delay).
  for (std::uint32_t seed : {1u, 7u, 1234u, 987654u}) {
    std::mt19937 rng(seed);
    EventQueue q;
    RefHeap ref;
    SimTime floor = 0;
    std::uint64_t seq = 0;
    std::uniform_int_distribution<int> op(0, 9);
    // Gap distributions: dense ties, microsecond steady state, and
    // second-scale outliers (a startup burst spanning seconds).
    std::uniform_int_distribution<SimTime> dense(0, 3);
    std::uniform_int_distribution<SimTime> steady(1, usec(5));
    std::uniform_int_distribution<SimTime> sparse(msec(1), SimTime{2} * sec(1));
    for (int step = 0; step < 20000; ++step) {
      if (op(rng) < 6 || q.empty()) {
        const int mode = op(rng);
        const SimTime gap = mode < 5   ? dense(rng)
                            : mode < 9 ? steady(rng)
                                       : sparse(rng);
        const bool weak = seq % 7 == 0;
        push_both(q, ref, floor + gap, seq++, weak);
      } else {
        EXPECT_EQ(ref.top().time, q.min_time());
        floor = ref.top().time;
        pop_and_compare(q, ref);
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!q.empty()) pop_and_compare(q, ref);
  }
}

TEST(EventQueue, SurvivesHorizonShift) {
  // A seconds-wide startup burst, then a microsecond-dense steady state
  // with many equal timestamps: the order must stay exact across the shift.
  EventQueue q;
  RefHeap ref;
  std::uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) push_both(q, ref, sec(1) * i, seq++);
  for (int i = 0; i < 64; ++i) pop_and_compare(q, ref);
  const SimTime base = sec(63);
  for (int i = 0; i < 512; ++i) push_both(q, ref, base + i % 17, seq++);
  while (!q.empty()) pop_and_compare(q, ref);
}

TEST(EventQueue, BimodalHorizonScheduleMatchesReferenceHeap) {
  // The horizon mix the scale workloads schedule into one queue: zero-delay
  // wakeups, microsecond-scale op churn, a 10 ms dispatcher epoch re-armed
  // per device, and 0.1-10 s outliers (arrivals, detaches, stream ticks).
  constexpr int kDevices = 32;
  for (std::uint32_t seed : {5u, 99u, 31337u}) {
    std::mt19937 rng(seed);
    EventQueue q;
    RefHeap ref;
    std::uint64_t seq = 0;
    std::vector<bool> is_epoch;  // by seq
    auto push = [&](SimTime t, bool epoch, bool weak) {
      is_epoch.push_back(epoch);
      push_both(q, ref, t, seq++, weak);
    };
    // One epoch timer per device, staggered within the first epoch.
    for (int d = 0; d < kDevices; ++d) push(usec(300) * d, true, false);
    std::uniform_int_distribution<int> kind(0, 99);
    std::uniform_int_distribution<SimTime> churn(1, usec(200));
    std::uniform_int_distribution<SimTime> outlier(msec(100), sec(10));
    std::uniform_int_distribution<int> fanout(0, 2);
    for (int step = 0; step < 40000; ++step) {
      const SimTime now = ref.top().time;
      const bool epoch = is_epoch[ref.top().seq];
      pop_and_compare(q, ref);
      ASSERT_EQ(q.size(), ref.size());
      if (epoch) push(now + msec(10), true, false);
      for (int n = fanout(rng); n > 0; --n) {
        const int k = kind(rng);
        const SimTime delay = k < 40   ? 0
                              : k < 95 ? churn(rng)
                                       : outlier(rng);
        push(now + delay, false, /*weak=*/k >= 97);
      }
    }
    while (!q.empty()) pop_and_compare(q, ref);
    EXPECT_TRUE(ref.empty());
  }
}

/// A closure that counts its move constructions in a shared counter.
struct MoveCounter {
  int* moves;
  bool* ran;
  MoveCounter(int* m, bool* r) : moves(m), ran(r) {}
  MoveCounter(const MoveCounter&) = default;
  MoveCounter(MoveCounter&& o) noexcept : moves(o.moves), ran(o.ran) {
    ++*moves;
  }
  void operator()() const { *ran = true; }
};

TEST(EventQueue, ClosureMovesAtMostOnceBeforeItRuns) {
  // A queued closure stays where push constructed it, however far the slab
  // grows around it; only pop moves it out. Counted closures are pushed
  // first (the lowest slots), then 12k events grow the slab behind them.
  constexpr int kCounted = 8;
  int moves[kCounted] = {};
  bool ran[kCounted] = {};
  EventQueue q;
  std::uint64_t seq = 0;
  for (int i = 0; i < kCounted; ++i) {
    const MoveCounter c(&moves[i], &ran[i]);  // copied in, never moved in
    q.push(msec(5) + i, seq++, c, /*weak=*/false);
  }
  std::mt19937 rng(17);
  std::uniform_int_distribution<SimTime> when(0, msec(10));
  for (int i = 0; i < 12000; ++i) q.push(when(rng), seq++, [] {}, false);
  for (int i = 0; i < kCounted; ++i) EXPECT_EQ(moves[i], 0) << "closure " << i;
  while (!q.empty()) {
    EventRecord ev = q.pop();
    ev.fn();
  }
  for (int i = 0; i < kCounted; ++i) {
    EXPECT_TRUE(ran[i]) << "closure " << i;
    EXPECT_LE(moves[i], 1) << "closure " << i;
  }
}

TEST(Simulation, SameTimestampCallbacksRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    sim.schedule(usec(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  std::vector<int> want(32);
  for (int i = 0; i < 32; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, want);
}

TEST(Simulation, WeakEventsDoNotKeepRunAlive) {
  Simulation sim;
  std::vector<int> ran;
  sim.schedule_weak(usec(5), [&] { ran.push_back(5); });   // before the work
  sim.schedule(usec(10), [&] { ran.push_back(10); });      // the real work
  sim.schedule_weak(usec(20), [&] { ran.push_back(20); }); // past the drain
  sim.run();
  EXPECT_EQ(ran, (std::vector<int>{5, 10}));
  EXPECT_EQ(sim.now(), usec(10));
}

TEST(Simulation, RunUntilBoundaryIsInclusive) {
  Simulation sim;
  std::vector<int> ran;
  sim.schedule(usec(10), [&] { ran.push_back(10); });
  sim.schedule(usec(20), [&] { ran.push_back(20); });
  // Events with timestamp == t run; now() lands exactly on t; the return
  // value reports whether non-weak work remains beyond t.
  EXPECT_TRUE(sim.run_until(usec(10)));
  EXPECT_EQ(ran, (std::vector<int>{10}));
  EXPECT_EQ(sim.now(), usec(10));
  EXPECT_FALSE(sim.run_until(usec(20)));
  EXPECT_EQ(ran, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), usec(20));
  // Advancing over an empty queue still moves the clock.
  EXPECT_FALSE(sim.run_until(usec(30)));
  EXPECT_EQ(sim.now(), usec(30));
}

// The intrusive wait cells replaced shared_ptr<WaitCell> tombstones:
// waiter_count() must now be exact at every instant (timed-out waiters are
// erased eagerly), notify_one must stay FIFO, and kills/timeouts must not
// leave dangling entries. Randomized rounds shake all three paths together.
TEST(Event, WaiterCountStress) {
  for (std::uint32_t seed : {3u, 42u, 20260808u}) {
    std::mt19937 rng(seed);
    Simulation sim;
    Event ev(sim);
    int woken = 0, timed_out = 0, alive = 0;
    std::vector<int> wake_order;
    constexpr int kWaiters = 64;
    for (int i = 0; i < kWaiters; ++i) {
      const SimTime timeout =
          (rng() % 3 == 0) ? usec(50 + static_cast<SimTime>(rng() % 200))
                           : kNever;
      sim.spawn("waiter" + std::to_string(i), [&, i, timeout] {
        ++alive;
        if (ev.wait_for(timeout)) {
          ++woken;
          wake_order.push_back(i);
        } else {
          ++timed_out;
        }
        --alive;
      });
    }
    sim.spawn("notifier", [&] {
      sim.wait_for(usec(10));
      // All waiters are parked by now; the count must be exact.
      EXPECT_EQ(ev.waiter_count(), kWaiters);
      std::uniform_int_distribution<SimTime> gap(1, usec(40));
      while (ev.waiter_count() > 0) {
        sim.wait_for(gap(rng));
        const int before = ev.waiter_count();
        if (rng() % 4 == 0) {
          ev.notify_all();
          EXPECT_EQ(ev.waiter_count(), 0);
        } else {
          ev.notify_one();
          EXPECT_EQ(ev.waiter_count(), before - 1);
        }
      }
    });
    sim.run();
    EXPECT_EQ(woken + timed_out, kWaiters);
    EXPECT_EQ(alive, 0);
    EXPECT_EQ(ev.waiter_count(), 0);
    // FIFO: of the waiters woken by notify, spawn order is wake order
    // (timed-out waiters drop out but never reorder the survivors).
    EXPECT_TRUE(std::is_sorted(wake_order.begin(), wake_order.end()));
  }
}

TEST(Event, NotifyOneSkipsNothingAfterTimeouts) {
  Simulation sim;
  Event ev(sim);
  std::vector<int> wake_order;
  // Odd waiters time out at 10us; notify starts at 20us. The eager erase
  // must leave the even waiters contiguous and in FIFO order.
  for (int i = 0; i < 10; ++i) {
    sim.spawn("w" + std::to_string(i), [&, i] {
      const bool notified = ev.wait_for(i % 2 == 1 ? usec(10) : kNever);
      EXPECT_EQ(notified, i % 2 == 0);
      if (notified) wake_order.push_back(i);
    });
  }
  sim.spawn("notifier", [&] {
    sim.wait_for(usec(20));
    EXPECT_EQ(ev.waiter_count(), 5);
    while (ev.waiter_count() > 0) {
      ev.notify_one();
      sim.wait_for(usec(1));
    }
  });
  sim.run();
  EXPECT_EQ(wake_order, (std::vector<int>{0, 2, 4, 6, 8}));
}

}  // namespace
}  // namespace strings::sim
