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
#include <stdexcept>
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

TEST(EventQueue, SameInstantLaneMatchesReferenceHeap) {
  // The kernel's own push pattern around the lane: a clock `now` that is
  // the last popped time or a run_until jump past it; zero-delay pushes
  // (the lane's traffic) mixed with schedule_first ranks at the current
  // instant, weak events and later times. Ranks come from the band below
  // ordinary seqs, and a rank has at most one event queued, as in
  // Simulation::schedule_first.
  constexpr std::uint64_t kOrdinary = std::uint64_t{1} << 32;
  constexpr std::uint64_t kRanks = 16;
  for (std::uint32_t seed : {2u, 11u, 4242u, 777777u}) {
    std::mt19937 rng(seed);
    EventQueue q;
    RefHeap ref;
    SimTime now = 0;
    std::uint64_t seq = kOrdinary;
    std::vector<bool> rank_queued(kRanks, false);
    std::uniform_int_distribution<int> op(0, 99);
    std::uniform_int_distribution<SimTime> later(1, usec(20));
    std::uniform_int_distribution<SimTime> jump(1, usec(30));
    auto pop_one = [&] {
      const RefKey want = ref.top();
      if (want.seq < kOrdinary) rank_queued[want.seq] = false;
      now = want.time;
      pop_and_compare(q, ref);
    };
    for (int step = 0; step < 30000; ++step) {
      const int k = op(rng);
      if (k < 35) {
        push_both(q, ref, now, seq++, /*weak=*/k < 5);  // zero delay
      } else if (k < 45) {
        const std::uint64_t rank = rng() % kRanks;
        if (!rank_queued[rank]) {
          rank_queued[rank] = true;
          push_both(q, ref, now + (k < 42 ? 0 : later(rng)), rank);
        }
      } else if (k < 60) {
        push_both(q, ref, now + later(rng), seq++, /*weak=*/k < 48);
      } else if (k < 63) {
        // run_until(t): everything at or before t runs, then now = t, and
        // the queue's floor stays at the last popped time.
        const SimTime t = now + jump(rng);
        while (!ref.empty() && ref.top().time <= t) pop_one();
        if (HasFatalFailure()) return;
        now = t;
      } else if (!ref.empty()) {
        pop_one();
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) {
      pop_one();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(q.empty());
    // The lane carried a real share of the schedule, not none of it.
    EXPECT_GT(q.stats().lane_pushes, q.stats().pushes / 5);
    EXPECT_LT(q.stats().lane_pushes, q.stats().pushes);
  }
}

TEST(EventQueue, DeepHeapMatchesReferenceHeap) {
  // The scale workloads keep hundreds of keys queued; keep at least 4,096
  // here so the hole walks five levels and more, with weak events
  // interleaved and ties at each instant.
  constexpr std::size_t kDepth = 4096;
  for (std::uint32_t seed : {3u, 64u, 90210u}) {
    std::mt19937 rng(seed);
    EventQueue q;
    RefHeap ref;
    SimTime floor = 0;
    std::uint64_t seq = std::uint64_t{1} << 32;
    std::uniform_int_distribution<SimTime> gap(0, msec(100));
    std::uniform_int_distribution<int> coin(0, 3);
    const auto push = [&] {
      const SimTime at = floor + (coin(rng) == 0 ? 0 : gap(rng));
      push_both(q, ref, at, seq++, /*weak=*/coin(rng) == 0);
    };
    while (q.size() < kDepth + 64) push();
    for (int step = 0; step < 60000; ++step) {
      if (q.size() > kDepth && coin(rng) != 0) {
        floor = ref.top().time;
        pop_and_compare(q, ref);
        if (HasFatalFailure()) return;
      } else {
        push();
      }
      ASSERT_GE(q.size(), kDepth);
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!q.empty()) {
      pop_and_compare(q, ref);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EventQueue, PartialLastSiblingGroup) {
  // Every heap size from 1 to 70 leaves the last group of siblings with
  // one to four keys in turn, at every depth a pop can start from.
  std::mt19937 rng(8);
  std::uniform_int_distribution<SimTime> when(0, 50);
  for (std::size_t n = 1; n <= 70; ++n) {
    SCOPED_TRACE(n);
    EventQueue q;
    RefHeap ref;
    std::uint64_t seq = 0;
    // Time 0 would take the lane; start at 1 so every key is in the heap.
    for (std::size_t i = 0; i < n; ++i) {
      push_both(q, ref, 1 + when(rng), seq++, i % 5 == 0);
    }
    EXPECT_EQ(q.stats().lane_pushes, 0u);
    while (!q.empty()) {
      pop_and_compare(q, ref);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EventQueue, RanksBelowTheLaneBackGoToTheHeap) {
  // Ordinary events at the floor take the lane; a schedule_first rank at
  // the same instant has a seq below the lane's back, so it goes to the
  // heap, and pops before every lane key.
  constexpr std::uint64_t kOrdinary = std::uint64_t{1} << 32;
  EventQueue q;
  RefHeap ref;
  push_both(q, ref, msec(2), kOrdinary);
  pop_and_compare(q, ref);  // the floor is now 2 ms
  for (std::uint64_t i = 1; i <= 6; ++i) {
    push_both(q, ref, msec(2), kOrdinary + i, i % 2 == 0);
  }
  EXPECT_EQ(q.stats().lane_pushes, 6u);
  push_both(q, ref, msec(2), 7);  // a rank
  push_both(q, ref, msec(2), 3);  // a lower rank, pushed later
  EXPECT_EQ(q.stats().lane_pushes, 6u);
  push_both(q, ref, msec(2), kOrdinary + 7);  // above the back: the lane
  EXPECT_EQ(q.stats().lane_pushes, 7u);
  std::vector<std::uint64_t> order;
  while (!q.empty()) {
    order.push_back(ref.top().seq);
    pop_and_compare(q, ref);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(order.front(), 3u);
  EXPECT_EQ(order[1], 7u);
}

TEST(EventQueue, SeqsJustBelowThePackingLimit) {
  // The top of the 40-bit seq field, against ranks and ties: the packed
  // key must still order by (time, seq).
  constexpr std::uint64_t kLimit = std::uint64_t{1} << EventQueue::kSeqBits;
  std::mt19937 rng(40);
  std::uniform_int_distribution<SimTime> when(0, 20);
  EventQueue q;
  RefHeap ref;
  SimTime floor = 0;
  for (std::uint64_t seq = kLimit - 3000; seq < kLimit; ++seq) {
    push_both(q, ref, floor + when(rng), seq, seq % 4 == 0);
    if (seq % 3 == 0) {
      floor = ref.top().time;
      pop_and_compare(q, ref);
      if (HasFatalFailure()) return;
    }
    if (seq % 500 == 0) push_both(q, ref, floor + when(rng), seq % 16);
  }
  while (!q.empty()) {
    pop_and_compare(q, ref);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueue, SeqPastThePackingLimitThrows) {
  // Past 2^40 the seq would spill into the time field: the queue refuses
  // it in every build instead of misordering, and stays usable.
  constexpr std::uint64_t kLimit = std::uint64_t{1} << EventQueue::kSeqBits;
  EventQueue q;
  q.push(msec(1), kLimit - 1, [] {}, false);
  EXPECT_THROW(q.push(msec(1), kLimit, [] {}, false), std::length_error);
  EXPECT_THROW(q.push(0, ~std::uint64_t{0}, [] {}, true), std::length_error);
  EXPECT_EQ(q.size(), 1u);
  const EventRecord ev = q.pop();
  EXPECT_EQ(ev.seq, kLimit - 1);
  EXPECT_TRUE(q.empty());
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

TEST(EventQueue, LaneClosureMovesAtMostOnceBeforeItRuns) {
  // The same pin for the same-instant lane: counted closures pushed at the
  // floor take the lane, 12k more same-instant pushes grow it behind them
  // (the lane reallocates keys, never closures), and only pop moves each.
  constexpr int kCounted = 8;
  int moves[kCounted] = {};
  bool ran[kCounted] = {};
  EventQueue q;
  std::uint64_t seq = 0;
  q.push(msec(3), seq++, [] {}, false);
  q.pop();  // the floor is now 3 ms
  for (int i = 0; i < kCounted; ++i) {
    const MoveCounter c(&moves[i], &ran[i]);
    q.push(msec(3), seq++, c, /*weak=*/false);
  }
  for (int i = 0; i < 12000; ++i) q.push(msec(3), seq++, [] {}, false);
  EXPECT_EQ(q.stats().lane_pushes, std::uint64_t{kCounted + 12000});
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
