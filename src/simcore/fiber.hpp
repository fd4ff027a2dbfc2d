// Stackful cooperative fibers for the simulation kernel.
//
// A sim::Process used to be user code on its own OS thread, with the kernel
// handing a baton back and forth through a mutex/condvar pair — two real
// context switches plus a lock round-trip per handoff. A Fiber is the same
// thing without the OS in the loop: a private stack and a saved stack
// pointer, switched by strings_sim_fiber_switch (fiber_switch.S), which
// saves the callee-saved registers and the FP control words and swaps rsp.
// A kernel -> fiber -> kernel round trip measured 30-37 ns on a 4-core
// x86-64 host. glibc's context switch, which this replaces, took 480-590 ns
// there: it makes an rt_sigprocmask syscall per switch and saves the whole
// FP environment.
// The kernel remains single-threaded in fact (not just in effect), so
// determinism needs no synchronization at all.
//
// Switch discipline: the kernel fiber (the thread's native stack, default-
// constructed) switches to a process fiber and that fiber always switches
// straight back to the kernel — fibers never switch to each other. C++
// exceptions work normally within a fiber (each stack unwinds
// independently; unwinding ends at strings_sim_fiber_start); they must not
// propagate across a switch. Each fiber keeps its own MXCSR and x87 control
// word, so a body that changes the rounding mode changes it for itself only.
//
// Stacks are reused. A finished fiber's stack, guard page and all, goes on
// its thread's spare list (at most kSpareStacks of them) and the next fiber
// the thread creates takes it from there, so a simulation that spawns a
// process per request pays mmap + mprotect + munmap only until the list
// warms up. The list is thread_local, never shared, and unmaps what it
// holds when its thread exits.
//
// AddressSanitizer needs to be told about stack switches
// (__sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber);
// the annotations below keep the ASan/UBSan CI job's fake-stack bookkeeping
// coherent across fiber switches.
#pragma once

#if !defined(__x86_64__) || !defined(__linux__)
#error "sim::Fiber is Linux x86-64 only; port src/simcore/fiber_switch.S and the frame in fiber.hpp"
#endif

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define STRINGS_SIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STRINGS_SIM_ASAN_FIBERS 1
#endif
#endif

#ifdef STRINGS_SIM_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save,
                                    const void* bottom, std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr,
                                   std::size_t size);
}
#endif

extern "C" {
// Saves the current context's callee-saved state on its stack, stores that
// stack pointer in *from_sp, and resumes the context saved at to_sp.
void strings_sim_fiber_switch(void** from_sp, void* to_sp);
// A new fiber's first return address (never called directly).
void strings_sim_fiber_start();
}

namespace strings::sim {

class Fiber {
 public:
  using Entry = void (*)(void*);

  /// Stack size per fiber. Stacks are mmap'd and demand-paged, so the cost
  /// is address space, not resident memory.
  static constexpr std::size_t kStackBytes = 512 * 1024;

  /// Finished fibers' stacks a thread keeps for reuse. Spares are only ever
  /// stacks that were live at once earlier, so keeping them raises no peak
  /// RSS; the cap bounds the touched pages a thread holds on to after its
  /// peak. The scale workloads run up to several hundred fibers at once,
  /// and a cap of 64 left 90% of their stack mmaps in place.
  static constexpr int kSpareStacks = 1024;

  /// The calling thread's native context. switch_to() fills it in when
  /// leaving; it owns no stack.
  Fiber() = default;

  /// A fiber that will run entry(arg) on its own stack when first switched
  /// to. `entry` must never return — it must switch back to another fiber
  /// as its final act (see Simulation's fiber trampoline).
  Fiber(Entry entry, void* arg) : entry_(entry), arg_(arg) {
    allocate_stack();
    // The frame strings_sim_fiber_switch pops (layout in fiber_switch.S).
    // The stack top is page-aligned, so its `ret` enters
    // strings_sim_fiber_start with rsp 16-byte aligned. The new fiber
    // starts with the creator's FP control words.
    struct Frame {
      std::uint16_t fpu_cw = 0;
      std::uint16_t unused = 0;
      std::uint32_t mxcsr = 0;
      void* r15 = nullptr;
      void* r14 = nullptr;
      Fiber* r13 = nullptr;
      void (*r12)(Fiber*) = nullptr;
      void* rbx = nullptr;
      void* rbp = nullptr;
      void (*ret)() = nullptr;
    };
    static_assert(sizeof(Frame) == 64);
    std::uint16_t fpu_cw = 0;
    std::uint32_t mxcsr = 0;
    __asm__ volatile("fnstcw %0" : "=m"(fpu_cw));
    __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
    sp_ = new (stack_ + kStackBytes - sizeof(Frame))
        Frame{.fpu_cw = fpu_cw,
              .mxcsr = mxcsr,
              .r13 = this,
              .r12 = &Fiber::trampoline,
              .ret = &strings_sim_fiber_start};
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ~Fiber() { release_stack(); }

  /// Suspends this fiber (saving the current machine context into it) and
  /// resumes `target` where it last suspended — or at its entry point if it
  /// has never run. Returns when something switches back to this fiber.
  /// `exiting` must be true only on a finished fiber's final switch away;
  /// it tells ASan to retire this fiber's fake stack.
  void switch_to(Fiber& target, [[maybe_unused]] bool exiting = false) {
#ifdef STRINGS_SIM_ASAN_FIBERS
    void* fake = nullptr;
    // The kernel fiber owns no stack of its own — it IS the thread's native
    // stack, whose bounds ASan reported on the first switch away (see
    // trampoline). Passing nullptr/0 instead would wreck ASan's bookkeeping
    // for every later native-stack frame.
    const void* bottom = target.stack_;
    std::size_t size = kStackBytes;
    if (bottom == nullptr) {
      bottom = native_stack().bottom;
      size = native_stack().size;
    }
    __sanitizer_start_switch_fiber(exiting ? nullptr : &fake, bottom, size);
#endif
    strings_sim_fiber_switch(&sp_, target.sp_);
#ifdef STRINGS_SIM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  }

 private:
#ifdef STRINGS_SIM_ASAN_FIBERS
  /// The thread's native stack bounds, learned from ASan on the first
  /// switch into a process fiber (per thread: each Simulation runs on its
  /// own kernel fiber).
  struct NativeStack {
    const void* bottom = nullptr;
    std::size_t size = 0;
  };
  static NativeStack& native_stack() {
    thread_local NativeStack s;
    return s;
  }
#endif

  /// First code on a new stack, called by strings_sim_fiber_start.
  static void trampoline(Fiber* self) {
#ifdef STRINGS_SIM_ASAN_FIBERS
    // First activation of this stack: complete the switch that got us here.
    // The stack we came from is the kernel fiber's — the thread's native
    // stack (switch discipline: only the kernel switches to process
    // fibers) — so this is where its real bounds are learned.
    const void* bottom_old = nullptr;
    std::size_t size_old = 0;
    __sanitizer_finish_switch_fiber(nullptr, &bottom_old, &size_old);
    if (native_stack().bottom == nullptr) {
      native_stack().bottom = bottom_old;
      native_stack().size = size_old;
    }
#endif
    // entry() must not return: strings_sim_fiber_start traps if it does.
    self->entry_(self->arg_);
  }

  /// The calling thread's spare stacks. Trivially destructible, so it
  /// outlives the Closer below: a fiber destroyed during the thread's
  /// teardown, after the Closer ran, finds the list closed and unmaps its
  /// stack itself.
  struct SpareStacks {
    char* stacks[kSpareStacks] = {};
    int count = 0;
    bool closed = false;
  };
  static SpareStacks& spares() {
    thread_local SpareStacks s;
    return s;
  }
  /// Unmaps the thread's spare stacks when the thread exits.
  struct Closer {
    ~Closer() {
      SpareStacks& s = spares();
      while (s.count > 0) unmap(s.stacks[--s.count]);
      s.closed = true;
    }
  };

  static std::size_t page_bytes() {
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return page;
  }

  static void unmap(char* stack) {
    ::munmap(stack - page_bytes(), kStackBytes + page_bytes());
  }

  void allocate_stack() {
    SpareStacks& s = spares();
    if (s.count > 0) {
      stack_ = s.stacks[--s.count];
    } else {
      // One guard page below the stack turns overflow into a clean fault
      // instead of silent corruption of a neighboring fiber's stack.
      const std::size_t page = page_bytes();
      void* mem = ::mmap(nullptr, kStackBytes + page, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (mem == MAP_FAILED) throw std::bad_alloc();
      ::mprotect(mem, page, PROT_NONE);
      stack_ = static_cast<char*>(mem) + page;
    }
#ifdef STRINGS_SIM_ASAN_FIBERS
    // A reused stack, or a fresh range that held a finished fiber's stack,
    // may still carry poisoned redzones; the frame write below must not trip
    // on them.
    __asan_unpoison_memory_region(stack_, kStackBytes);
#endif
  }

  void release_stack() {
    if (stack_ == nullptr) return;
    thread_local Closer closer;  // registered on the thread's first release
    SpareStacks& s = spares();
    if (!s.closed && s.count < kSpareStacks) {
      s.stacks[s.count++] = stack_;
    } else {
      unmap(stack_);
    }
    stack_ = nullptr;
  }

  void* sp_ = nullptr;  // saved stack pointer while suspended
  char* stack_ = nullptr;
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
};

}  // namespace strings::sim
