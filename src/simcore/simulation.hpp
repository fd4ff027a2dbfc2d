// Deterministic cooperative discrete-event simulation kernel.
//
// The kernel owns a heap-ordered queue of timed events and a set of processes.
// A process is user code on its own stackful fiber (see fiber.hpp); the
// kernel switches to at most one fiber at any instant and every fiber
// switches straight back, so the whole simulation runs on a single OS
// thread: no data races, and a fixed seed gives a bit-identical run.
// A handoff is a user-space stack switch of a few tens of nanoseconds, with
// no syscall or lock (fiber.hpp). docs/simcore.md covers the determinism
// contract.
//
// Inside a process body, code may call Simulation::wait_for(), block on an
// Event / Mailbox, or simply return (which ends the process). Plain callback
// events (Simulation::schedule) run on the kernel fiber and must not block.
#pragma once

#include <cassert>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/fiber.hpp"
#include "simcore/hooks.hpp"
#include "simcore/sim_time.hpp"
#include "simcore/small_fn.hpp"

namespace strings::sim {

class Simulation;
class Event;

/// Thrown inside a process body when the simulation tears it down early
/// (e.g. the Simulation is destroyed while the process is blocked). Process
/// bodies should let it propagate; RAII handles cleanup.
struct ProcessKilled {};

/// Thrown by Simulation::run() when every live process is blocked on an
/// Event and no timed event can ever wake one of them.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// A cooperative process: user code on its own fiber, scheduled by the
/// kernel. Created via Simulation::spawn(); lifetime is managed by the
/// Simulation.
class Process {
 public:
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() = default;

  const std::string& name() const { return name_; }
  bool finished() const { return state_ == State::kFinished; }

  /// Daemon processes may remain blocked when the event queue drains without
  /// triggering deadlock detection (analogous to daemon threads). Used for
  /// server loops such as backend daemons.
  void set_daemon(bool daemon) { daemon_ = daemon; }
  bool daemon() const { return daemon_; }

 private:
  friend class Simulation;
  friend class Event;
  enum class State { kCreated, kRunnable, kBlocked, kFinished };

  Process(Simulation& sim, std::string name, std::function<void()> body);

  void start();
  // Kernel side: switch to the process fiber until it yields.
  void resume();
  // Process side: switch back to the kernel fiber until resumed.
  void suspend();
  void fiber_main();
  static void fiber_entry(void* self);

  Simulation& sim_;
  std::string name_;
  std::function<void()> body_;
  std::unique_ptr<Fiber> fiber_;

  State state_ = State::kCreated;
  bool killed_ = false;
  bool daemon_ = false;
  std::exception_ptr error_;
  std::uint64_t wait_epoch_ = 0;  // invalidates stale timeout events

  // Intrusive wait cell: a process blocks on at most one Event at a time,
  // so the cell lives here instead of a shared_ptr allocated per wait.
  Event* waiting_on_ = nullptr;
  bool wait_woken_ = false;
};

/// The simulation kernel. Not copyable or movable; components hold references.
class Simulation {
 public:
  /// Lifetime fiber-activity counters, for the sim/... telemetry stream.
  /// Purely observational: nothing in the kernel reads them back.
  struct KernelStats {
    std::uint64_t fibers_spawned = 0;
    std::uint64_t fiber_parks = 0;    // process suspensions
    std::uint64_t fiber_resumes = 0;  // switches into a process fiber
  };

  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Creates a process that starts running at the current virtual time
  /// (after already-scheduled events with the same timestamp).
  Process& spawn(std::string name, std::function<void()> body);

  /// Like spawn(), but the process is a daemon: it may stay blocked forever
  /// without tripping deadlock detection when the simulation drains.
  Process& spawn_daemon(std::string name, std::function<void()> body);

  /// Schedules a kernel-context callback `delay` from now. The callback must
  /// not block; it may send to mailboxes, notify events, and spawn processes.
  /// Templated so the closure is constructed directly inside the event
  /// queue's slab — scheduling moves no bytes it doesn't have to.
  template <typename F>
  void schedule(SimTime delay, F&& fn) {
    assert(delay >= 0 && "cannot schedule into the past");
    const std::uint64_t seq = next_seq_++;
    queue_.push(now_ + delay, seq, std::forward<F>(fn), /*weak=*/false);
    ++real_events_;
    if (auto* h = sim_hooks()) h->on_event_scheduled(*this, seq);
  }

  /// Like schedule(), but the event leads its instant: it runs before every
  /// event schedule() or schedule_weak() queues for the same time, and
  /// events schedule_first() queues for one time run in ascending `rank`,
  /// whenever each was queued. `rank` is the event's seq, so a rank may
  /// have at most one event queued at a time. The Dispatcher keys its epoch
  /// ticks this way, by GPU id: when a tick runs then does not depend on
  /// when it was armed.
  template <typename F>
  void schedule_first(SimTime delay, std::uint32_t rank, F&& fn) {
    assert(delay >= 0 && "cannot schedule into the past");
    queue_.push(now_ + delay, rank, std::forward<F>(fn), /*weak=*/false);
    ++real_events_;
    if (auto* h = sim_hooks()) h->on_event_scheduled(*this, rank);
  }

  /// Like schedule(), but the event is *weak*: it runs if simulation time
  /// reaches it, yet does not by itself keep run() alive (analogous to
  /// daemon processes). Used by periodic observers — the telemetry stream's
  /// window tick re-arms itself weakly and so stops when the real workload
  /// drains.
  template <typename F>
  void schedule_weak(SimTime delay, F&& fn) {
    assert(delay >= 0 && "cannot schedule into the past");
    const std::uint64_t seq = next_seq_++;
    queue_.push(now_ + delay, seq, std::forward<F>(fn), /*weak=*/true);
    if (auto* h = sim_hooks()) h->on_event_scheduled(*this, seq);
  }

  /// Runs until no non-weak events remain. Throws DeadlockError if live
  /// processes remain blocked with an empty event queue, and rethrows the
  /// first exception that escaped a process body.
  void run();

  /// Runs events with timestamp <= t, then sets now() = t.
  /// Returns true if non-weak events remain after t.
  bool run_until(SimTime t);

  /// The process currently running, or nullptr in kernel context.
  Process* current() const { return current_; }

  /// Blocks the calling process for `delay` of virtual time. Throws
  /// std::logic_error outside process context.
  void wait_for(SimTime delay);

  /// Reschedules the calling process after all events already queued at the
  /// current timestamp.
  void yield() { wait_for(0); }

  /// Number of processes that have not yet finished.
  int live_processes() const { return live_processes_; }

  /// Total events executed so far (wall-clock throughput denominators).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Fiber-activity counters (spawns, parks, resumes).
  const KernelStats& kernel_stats() const { return kernel_stats_; }
  /// The event queue's operation counters (pushes, pops).
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }
  /// Events currently queued (weak and non-weak).
  std::size_t queue_size() const { return queue_.size(); }

  /// True once terminate_processes() has started unwinding processes.
  /// Destructors check it to skip blocking work: there is no event loop
  /// left to wake them.
  bool tearing_down() const { return tearing_down_; }

  /// Kills every unfinished process (each unwinds via ProcessKilled on its
  /// fiber). Idempotent; the destructor calls it as a fallback. Call it
  /// explicitly before destroying objects that live processes still
  /// reference, when ending a simulation early (e.g. fixed-horizon runs).
  void terminate_processes();

 private:
  friend class Process;
  friend class Event;

  // Runs one event; returns false when the queue is empty.
  bool step();
  void check_deadlock() const;
  // Schedules a resume of `p` at now()+delay. Used by wait_for and Event.
  void schedule_resume(Process& p, SimTime delay);
  // Switches to `p` as the current process until it parks or finishes; a
  // finished process gives its fiber (and stack) back.
  void run_process(Process& p);
  // Process-context helper: marks p blocked and suspends until resumed.
  void block_current();

  SimTime now_ = 0;
  // Seqs below 2^32 are schedule_first()'s ranks; ordinary events take
  // seqs above them, so at one instant every ranked event runs first.
  std::uint64_t next_seq_ = std::uint64_t{1} << 32;
  std::uint64_t events_executed_ = 0;
  std::int64_t real_events_ = 0;  // queued non-weak events
  EventQueue queue_;
  std::vector<std::unique_ptr<Process>> processes_;
  Process* current_ = nullptr;
  /// The kernel's own context; process fibers switch back into it.
  Fiber kernel_fiber_;
  /// First exception that escaped a process body since the last step().
  std::exception_ptr pending_error_;
  int live_processes_ = 0;
  bool tearing_down_ = false;
  KernelStats kernel_stats_;
};

/// A virtual-time condition variable. Processes block on it; any context may
/// notify. Notification resumes waiters at the current timestamp (after
/// events already queued there).
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Blocks the calling process until notified.
  void wait();

  /// Blocks until notified or `timeout` elapses; returns false on timeout.
  /// Pass kNever for an infinite wait.
  bool wait_for(SimTime timeout);

  /// Wakes every waiter.
  void notify_all();

  /// Wakes the longest-waiting waiter, if any.
  void notify_one();

  int waiter_count() const { return static_cast<int>(waiters_.size()); }

 private:
  Simulation& sim_;
  /// FIFO of blocked processes. Entries are intrusive (Process::waiting_on_
  /// points back here); timed-out waiters are erased eagerly, so every
  /// entry is live — no tombstones, no per-wait allocation.
  std::vector<Process*> waiters_;
};

/// An unbounded FIFO channel. send() never blocks; receive() blocks the
/// calling process until a value is available.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& sim) : sim_(sim), ready_(sim) {}
  ~Mailbox() {
    if (auto* h = sim_hooks()) h->on_mailbox_destroyed(this);
  }

  void send(T value) {
    items_.push(std::move(value));
    if (auto* h = sim_hooks()) h->on_mailbox_send(this);
    ready_.notify_one();
  }

  T receive() {
    while (items_.empty()) ready_.wait();
    T v = std::move(items_.front());
    items_.pop();
    if (auto* h = sim_hooks()) h->on_mailbox_recv(this);
    return v;
  }

  /// Non-blocking receive.
  std::optional<T> try_receive() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop();
    if (auto* h = sim_hooks()) h->on_mailbox_recv(this);
    return v;
  }

  /// Blocking receive with a deadline: returns std::nullopt if no value
  /// arrives within `timeout` of virtual time.
  std::optional<T> receive_for(SimTime timeout) {
    const SimTime deadline = sim_.now() + timeout;
    while (items_.empty()) {
      const SimTime remaining = deadline - sim_.now();
      if (remaining <= 0) return std::nullopt;
      if (!ready_.wait_for(remaining) && items_.empty()) return std::nullopt;
    }
    T v = std::move(items_.front());
    items_.pop();
    if (auto* h = sim_hooks()) h->on_mailbox_recv(this);
    return v;
  }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

 private:
  sim::Simulation& sim_;
  Event ready_;
  std::queue<T> items_;
};

}  // namespace strings::sim
