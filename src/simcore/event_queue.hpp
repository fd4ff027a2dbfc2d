// Event scheduler for the simulation kernel: a 4-ary min-heap of 16-byte
// keys over a slab of closures, plus a FIFO lane for same-instant events.
//
// A key is one unsigned 128-bit integer: the time in the top 64 bits, then
// the seq (40 bits), then the closure's slab slot (24 bits). Queued seqs are
// unique, so one integer compare orders keys by (time, seq) and the slot
// never decides; four keys share a cache line. The weak flag sits beside
// its closure in the slab. The closures never move while queued. push
// constructs the caller's closure straight into a free slab slot and sifts
// its key up; pop moves the closure out exactly once. Sifting therefore
// shuffles keys, never ~90-byte SmallFn records, and the cost of a push does
// not depend on how far ahead the event lies — simulations mix zero-delay
// wakeups, 10 ms dispatcher epochs and seconds-ahead arrivals in one queue,
// and a calendar queue's single bucket width cannot fit them all.
//
// Hole-to-leaf pop. The root's hole walks down to a leaf, each level taking
// the least of its (up to) four children, picked branch-free; the old last
// key then goes into that leaf and sifts up. The last key is one of the
// largest, so it rises few levels, and the walk down asks no "stop here?"
// question whose answer a branch predictor could miss.
//
// Packing limits. A seq must be below 2^40 and a slot below 2^24 (16.7M
// events queued at once); past either, push throws std::length_error in
// every build rather than misorder. The Simulation starts ordinary seqs at
// 2^32, which leaves about 1.1e12 events per Simulation. Times must not be
// negative or before the last pop (the Simulation never schedules into the
// past): an unsigned key cannot order them.
//
// The same-instant lane. A push whose time equals the last popped time (a
// zero-delay wakeup, a notify, a channel hop with no latency) and whose seq
// is above the seq at the lane's back is appended to a plain FIFO instead of
// the heap. Every lane key then has the same time, the floor, and the lane
// holds them in ascending seq, so the lane front is the lane's least key;
// pop compares it with the heap top and takes the smaller. The popped order
// is therefore exactly the heap-only order: the lane is a sorted run the
// merge reads from its front. The floor cannot rise while the lane holds a
// key (that key, at the floor, pops first), so the lane drains before time
// moves on. A push that fails either test — a later time, a run_until jump
// past the floor, or a schedule_first rank below the lane's back — goes to
// the heap as before.
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
#include <stdexcept>
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
    /// The pushes that took the same-instant lane instead of the heap.
    std::uint64_t lane_pushes = 0;
    std::uint64_t pops = 0;
    /// Always 0: a heap never rebuilds. Kept because perfbench reports it
    /// as simcore.queue_rebuilds.
    std::uint64_t rebuilds = 0;
  };

  static constexpr int kSeqBits = 40;
  static constexpr int kSlotBits = 24;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() {
    for (const Key k : heap_) std::destroy_at(&slot_at(slot_of(k)).fn());
    for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
      std::destroy_at(&slot_at(slot_of(lane_[i])).fn());
    }
  }

  bool empty() const { return heap_.empty() && lane_empty(); }
  std::size_t size() const {
    return heap_.size() + (lane_.size() - lane_head_);
  }
  const Stats& stats() const { return stats_; }

  /// Templated on the callable so the caller's closure is constructed
  /// straight into its slab slot (no intermediate SmallFn move). Throws
  /// std::length_error past the packing limits.
  template <typename F>
  void push(SimTime time, std::uint64_t seq, F&& fn, bool weak) {
    assert(time >= floor_ && "cannot schedule into the past");
    if (seq >> kSeqBits != 0) [[unlikely]] {
      throw std::length_error("EventQueue: seq past 2^40");
    }
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    // A free slot holds nothing or a moved-from (inert) SmallFn.
    std::construct_at(reinterpret_cast<SmallFn*>(s.bytes), std::forward<F>(fn));
    s.weak = weak;
    ++stats_.pushes;
    const Key k = pack(time, seq, slot);
    if (time == floor_ && (lane_empty() || k > lane_.back())) {
      lane_.push_back(k);
      ++stats_.lane_pushes;
      return;
    }
    heap_.push_back(k);
    sift_up(heap_.size() - 1, k);
  }

  /// The earliest event's timestamp. Queue must be non-empty.
  SimTime min_time() const {
    assert(!empty());
    // A lane key sits at the floor, which no heap key precedes.
    return lane_empty() ? time_of(heap_.front()) : floor_;
  }

  /// Removes and returns the earliest event in (time, seq) order.
  EventRecord pop() {
    assert(!empty());
    Key top;
    if (!lane_empty() && (heap_.empty() || lane_[lane_head_] < heap_.front())) {
      top = lane_[lane_head_++];
      if (lane_empty()) {  // drained: rewind, keeping the capacity
        lane_.clear();
        lane_head_ = 0;
      }
    } else {
      top = heap_.front();
      const Key last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_up(hole_to_leaf(), last);
    }
    const std::uint32_t slot = slot_of(top);
    free_.push_back(slot);
    ++stats_.pops;
    floor_ = time_of(top);
    Slot& s = slot_at(slot);
    return EventRecord{floor_,
                       static_cast<std::uint64_t>(top >> kSlotBits) & kSeqMask,
                       std::move(s.fn()), s.weak};
  }

 private:
  __extension__ typedef unsigned __int128 Key;

  static constexpr std::uint64_t kSeqMask =
      (std::uint64_t{1} << kSeqBits) - 1;
  static constexpr std::uint32_t kSlotMask =
      (std::uint32_t{1} << kSlotBits) - 1;

  static Key pack(SimTime time, std::uint64_t seq, std::uint32_t slot) {
    return Key{static_cast<std::uint64_t>(time)} << 64 |
           Key{seq << kSlotBits | slot};
  }
  static SimTime time_of(Key k) { return static_cast<SimTime>(k >> 64); }
  static std::uint32_t slot_of(Key k) {
    return static_cast<std::uint32_t>(k) & kSlotMask;
  }

  /// Storage for one SmallFn, live only while its event is queued, and the
  /// event's weak flag.
  struct Slot {
    alignas(SmallFn) std::byte bytes[sizeof(SmallFn)];
    bool weak;
    SmallFn& fn() { return *std::launder(reinterpret_cast<SmallFn*>(bytes)); }
  };

  static constexpr std::size_t kArity = 4;

  bool lane_empty() const { return lane_head_ == lane_.size(); }

  // Slot s lives in chunk k = floor(log2(s + 1)), which holds 2^k slots:
  // chunk sizes double, so a slab of n slots takes O(log n) allocations.
  Slot& slot_at(std::uint32_t slot) {
    const std::uint32_t v = slot + 1;
    const int k = std::bit_width(v) - 1;
    return chunks_[static_cast<std::size_t>(k)][v - (std::uint32_t{1} << k)];
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (slots_ > kSlotMask) [[unlikely]] {
      throw std::length_error("EventQueue: more than 2^24 events queued");
    }
    if (std::has_single_bit(slots_ + 1)) {  // the chunks so far are full
      chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(slots_ + 1));
    }
    return slots_++;
  }

  /// Places `k` at hole `i` and lifts it to its level, moving the hole
  /// instead of swapping: each level copies one key.
  void sift_up(std::size_t i, Key k) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!(k < heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  /// Walks the root's hole down to a leaf along the least child of each
  /// group and returns the leaf.
  std::size_t hole_to_leaf() {
    const std::size_t n = heap_.size();
    Key* h = heap_.data();
    std::size_t i = 0;
    std::size_t first = 1;
    for (; first + kArity <= n; first = i * kArity + 1) {
      // Index arithmetic, not ?:, so that no compare becomes a branch.
      const std::size_t a = first + (h[first + 1] < h[first]);
      const std::size_t b = first + 2 + (h[first + 3] < h[first + 2]);
      const std::size_t best =
          a ^ ((a ^ b) & (std::size_t{0} - (h[b] < h[a])));
      h[i] = h[best];
      i = best;
    }
    if (first < n) {  // the last group, with fewer than four children
      std::size_t best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        best = h[c] < h[best] ? c : best;
      }
      h[i] = h[best];
      i = best;
    }
    return i;
  }

  std::vector<Key> heap_;
  /// The same-instant FIFO: keys at time floor_ in ascending seq, live from
  /// lane_head_ on. Emptied (not shrunk) each time it drains.
  std::vector<Key> lane_;
  std::size_t lane_head_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t slots_ = 0;  // slab slots ever handed out
  /// Time of the last pop: no push may land before it, and the lane holds
  /// only keys at it.
  SimTime floor_ = 0;
  Stats stats_;
};

}  // namespace strings::sim
