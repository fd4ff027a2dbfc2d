// A move-only `void()` callable with a large inline buffer.
//
// The kernel queues one closure per event. std::function's small-buffer
// optimization (16 bytes in libstdc++) spills to the heap for almost every
// capture in this codebase — a resume closure is [Simulation*, Process*]
// plus padding, a channel delivery closure carries a whole rpc::Packet.
// SmallFn keeps 80 bytes inline so the common closures, packets included,
// live directly inside the event queue's slab and scheduling an event
// allocates nothing.
//
// Compared to std::function: move-only (captures need not be copyable,
// which lets closures own Packets and other move-only state), no target
// introspection, and calling an empty SmallFn is undefined instead of
// throwing. That is exactly the contract the event loop needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace strings::sim {

/// Process-wide count of SmallFn constructions that spilled to the heap.
/// The kernel's perf story depends on this staying at zero for every
/// closure the event loop schedules (docs/simcore.md); the telemetry
/// stream exports it as sim/smallfn_heap_fallbacks and
/// bench/micro_benchmarks asserts it stays flat across a packet-delivery
/// run. Plain (non-atomic) because the kernel is single-threaded in fact.
inline std::uint64_t& small_fn_heap_fallbacks() {
  static std::uint64_t count = 0;
  return count;
}

class SmallFn {
 public:
  /// Inline capture capacity. Closures larger than this fall back to one
  /// heap allocation (still cheaper than std::function: no control block).
  static constexpr std::size_t kInlineBytes = 80;

  SmallFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, SmallFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
      ++small_fn_heap_fallbacks();
    }
  }

  SmallFn(SmallFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) relocate_from(o);
  }

  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) relocate_from(o);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    // Move-construct into `dst` from `src`, destroying `src`. nullptr means
    // trivially relocatable: moving is a memcpy of the buffer. Event-queue
    // closures are almost all trivially copyable captures of a few pointers,
    // so the hot path relocates without an indirect call.
    void (*relocate)(void* dst, void* src);
    // nullptr means trivially destructible: dropping is free.
    void (*destroy)(void* buf);
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* buf) { (*std::launder(static_cast<Fn*>(buf)))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) {
              Fn* s = std::launder(static_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*s));
              s->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* buf) { std::launder(static_cast<Fn*>(buf))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* buf) { (**std::launder(static_cast<Fn**>(buf)))(); },
      nullptr,  // the buffer holds a raw Fn*: memcpy moves it
      [](void* buf) { delete *std::launder(static_cast<Fn**>(buf)); },
  };

  void relocate_from(SmallFn& o) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, o.buf_);
    } else {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    }
    o.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace strings::sim
