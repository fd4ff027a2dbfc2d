// Event scheduler for the simulation kernel: a 4-ary min-heap of small keys
// over a slab of closures.
//
// The heap orders 24-byte keys (time, seq, slot, weak); the closures live in
// a slab and never move while queued. push constructs the caller's closure
// straight into a free slab slot and sifts its key up; pop sifts the last
// key down from the root and moves the closure out exactly once. Sifting
// therefore shuffles keys, never ~90-byte SmallFn records, and the cost of a
// push does not depend on how far ahead the event lies — simulations mix
// zero-delay wakeups, 10 ms dispatcher epochs and seconds-ahead arrivals in
// one queue, and a calendar queue's single bucket width cannot fit them all.
//
// The slab grows by chunks of doubling size that stay where they were
// allocated, so growing it relocates no queued closure; freed slots go on a
// free list and are reused first.
//
// Ordering contract (the determinism pin): events pop in strictly ascending
// (time, seq) — exactly the total order the seed's
// std::priority_queue<QueuedEvent> gave. Queued seqs are unique, so the
// order is total and FIFO tie-breaking falls out of it (the Simulation
// reserves the seqs below 2^32 for events that lead their instant).
// tests/event_queue_test.cpp checks this against a reference heap on
// randomized schedules.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "simcore/sim_time.hpp"
#include "simcore/small_fn.hpp"

namespace strings::sim {

/// One queued kernel event. `seq` is the global schedule order (ties on
/// `time` break by it); `weak` events do not keep Simulation::run() alive.
struct EventRecord {
  SimTime time = 0;
  std::uint64_t seq = 0;
  SmallFn fn;
  bool weak = false;
};

class EventQueue {
 public:
  /// Lifetime operation counters, for the sim/... telemetry stream. Reading
  /// them never perturbs behaviour.
  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    /// Always 0: a heap never rebuilds. Kept because perfbench reports it
    /// as simcore.queue_rebuilds.
    std::uint64_t rebuilds = 0;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() {
    for (const Key& k : heap_) std::destroy_at(&fn_at(k.slot));
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Stats& stats() const { return stats_; }

  void push(EventRecord ev) {
    push(ev.time, ev.seq, std::move(ev.fn), ev.weak);
  }

  /// Templated on the callable so the caller's closure is constructed
  /// straight into its slab slot (no intermediate SmallFn move).
  template <typename F>
  void push(SimTime time, std::uint64_t seq, F&& fn, bool weak) {
    assert(time >= floor_ && "cannot schedule into the past");
    const std::uint32_t slot = acquire_slot();
    // A free slot holds nothing or a moved-from (inert) SmallFn.
    std::construct_at(static_cast<SmallFn*>(slot_storage(slot)),
                      std::forward<F>(fn));
    heap_.push_back(Key{time, seq, slot, weak});
    sift_up(heap_.size() - 1);
    ++stats_.pushes;
  }

  /// The earliest event's timestamp. Queue must be non-empty.
  SimTime min_time() const {
    assert(!heap_.empty());
    return heap_.front().time;
  }

  /// Removes and returns the earliest event in (time, seq) order.
  EventRecord pop() {
    assert(!heap_.empty());
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    free_.push_back(top.slot);
    ++stats_.pops;
    floor_ = top.time;
    return EventRecord{top.time, top.seq, std::move(fn_at(top.slot)),
                       top.weak};
  }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    bool weak;
  };

  /// Uninitialized storage for one SmallFn. A slot holds a live closure
  /// only while its event is queued.
  struct alignas(SmallFn) Slot {
    std::byte bytes[sizeof(SmallFn)];
  };

  static constexpr std::size_t kArity = 4;

  // Branch-free: equal times are common (same-instant bursts), so a
  // time-then-seq branch would mispredict.
  static bool less(const Key& a, const Key& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  // Slot s lives in chunk k = floor(log2(s + 1)), which holds 2^k slots:
  // chunk sizes double, so a slab of n slots takes O(log n) allocations.
  void* slot_storage(std::uint32_t slot) {
    const std::uint32_t v = slot + 1;
    const int k = std::bit_width(v) - 1;
    return chunks_[static_cast<std::size_t>(k)][v - (std::uint32_t{1} << k)]
        .bytes;
  }

  SmallFn& fn_at(std::uint32_t slot) {
    return *std::launder(static_cast<SmallFn*>(slot_storage(slot)));
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (std::has_single_bit(slots_ + 1)) {  // the chunks so far are full
      chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(slots_ + 1));
    }
    return slots_++;
  }

  // Both sifts move a hole instead of swapping: each level copies one key.
  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!less(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  /// Places `k` at the root hole and sifts it down to its level.
  void sift_down(const Key& k) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        best = less(heap_[c], heap_[best]) ? c : best;
      }
      if (!less(heap_[best], k)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = k;
  }

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t slots_ = 0;  // slab slots ever handed out
  /// Time of the last pop: no push may land before it.
  SimTime floor_ = 0;
  Stats stats_;
};

}  // namespace strings::sim
