#include "simcore/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace strings::sim {

// ------------------------------------------------------------------ Hooks --

namespace detail {
SimHooks* g_sim_hooks = nullptr;
}  // namespace detail

void set_sim_hooks(SimHooks* hooks) {
  if (hooks != nullptr && detail::g_sim_hooks != nullptr &&
      detail::g_sim_hooks != hooks) {
    throw std::logic_error("sim hooks already installed");
  }
  detail::g_sim_hooks = hooks;
}

// ---------------------------------------------------------------- Process --

Process::Process(Simulation& sim, std::string name, std::function<void()> body)
    : sim_(sim), name_(std::move(name)), body_(std::move(body)) {}

void Process::start() {
  fiber_ = std::make_unique<Fiber>(&Process::fiber_entry, this);
  ++sim_.kernel_stats_.fibers_spawned;
}

void Process::fiber_entry(void* self) {
  static_cast<Process*>(self)->fiber_main();
}

void Process::fiber_main() {
  try {
    body_();
  } catch (const ProcessKilled&) {
    // Normal teardown path.
  } catch (...) {
    // Surfaced by the next step(), at the point in virtual time where it
    // happened. At most one process runs per event, so one slot suffices;
    // keep the first error if teardown unwinds several bodies at once.
    if (!sim_.pending_error_) sim_.pending_error_ = std::current_exception();
  }
  state_ = State::kFinished;
  // Final departure from this fiber; `exiting` retires its sanitizer state.
  fiber_->switch_to(sim_.kernel_fiber_, /*exiting=*/true);
  std::abort();  // finished processes are never resumed
}

void Process::resume() {
  ++sim_.kernel_stats_.fiber_resumes;
  sim_.kernel_fiber_.switch_to(*fiber_);
}

void Process::suspend() {
  ++sim_.kernel_stats_.fiber_parks;
  fiber_->switch_to(sim_.kernel_fiber_);
  if (killed_) throw ProcessKilled{};
}

// ------------------------------------------------------------- Simulation --

Simulation::Simulation() = default;

Simulation::~Simulation() { terminate_processes(); }

void Simulation::terminate_processes() {
  tearing_down_ = true;
  // Resume every unfinished process with the kill flag set, so suspend()
  // throws ProcessKilled and the body unwinds (RAII) on its own fiber.
  for (auto& p : processes_) {
    if (p->state_ == Process::State::kFinished) continue;
    p->killed_ = true;
    if (p->state_ == Process::State::kCreated) {
      // Never started: there is nothing on the fiber to unwind.
      p->state_ = Process::State::kFinished;
      continue;
    }
    // Unwind in the killed process's own context, so code its destructors
    // run sees it as current(): one that blocks parks the fiber instead of
    // dereferencing a null current process.
    Process* prev = current_;
    current_ = p.get();
    p->resume();
    current_ = prev;
    if (p->finished()) p->fiber_.reset();
  }
}

Process& Simulation::spawn(std::string name, std::function<void()> body) {
  // make_unique cannot reach the private constructor; Simulation is a friend.
  std::unique_ptr<Process> proc(
      new Process(*this, std::move(name), std::move(body)));
  Process& p = *proc;
  processes_.push_back(std::move(proc));
  ++live_processes_;
  if (auto* h = sim_hooks()) h->on_process_spawned(*this, p);
  schedule(0, [this, &p] {
    if (p.state_ == Process::State::kCreated) {
      p.state_ = Process::State::kRunnable;
      p.start();
      run_process(p);
    }
  });
  return p;
}

void Simulation::run_process(Process& p) {
  Process* prev = current_;
  current_ = &p;
  if (auto* h = sim_hooks()) h->on_process_running(*this, p);
  p.resume();
  if (auto* h = sim_hooks()) h->on_process_yielded(*this, p);
  current_ = prev;
  if (p.finished()) {
    --live_processes_;
    // The fiber made its last switch; its stack goes back to the thread's
    // spare list for the next process to start.
    p.fiber_.reset();
  }
}

Process& Simulation::spawn_daemon(std::string name, std::function<void()> body) {
  Process& p = spawn(std::move(name), std::move(body));
  p.set_daemon(true);
  return p;
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  EventRecord ev = queue_.pop();
  if (!ev.weak) --real_events_;
  assert(ev.time >= now_);
  now_ = ev.time;
  ++events_executed_;
  if (auto* h = sim_hooks()) h->on_event_begin(*this, ev.seq);
  ev.fn();
  if (auto* h = sim_hooks()) h->on_event_end(*this, ev.seq);
  // Surface process failures immediately, at the point in virtual time where
  // they happened.
  if (pending_error_) {
    auto err = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(err);
  }
  return true;
}

void Simulation::run() {
  // Weak events past the last real event are abandoned, so a self-rearming
  // observer tick does not keep the simulation alive.
  while (real_events_ > 0) step();
  check_deadlock();
}

bool Simulation::run_until(SimTime t) {
  while (!queue_.empty() && queue_.min_time() <= t) step();
  if (now_ < t) now_ = t;
  return real_events_ > 0;
}

void Simulation::check_deadlock() const {
  std::vector<const Process*> stuck;
  for (const auto& p : processes_) {
    if (p->state_ == Process::State::kBlocked && !p->daemon()) {
      stuck.push_back(p.get());
    }
  }
  if (stuck.empty()) return;
  std::ostringstream os;
  os << "simulation deadlock: " << stuck.size()
     << " process(es) blocked with an empty event queue:";
  for (const auto* p : stuck) os << ' ' << p->name();
  throw DeadlockError(os.str());
}

void Simulation::schedule_resume(Process& p, SimTime delay) {
  schedule(delay, [this, &p] {
    if (p.state_ != Process::State::kBlocked) return;
    p.state_ = Process::State::kRunnable;
    run_process(p);
  });
}

void Simulation::block_current() {
  Process* p = current_;
  if (p == nullptr) {
    throw std::logic_error("blocking call outside process context");
  }
  p->state_ = Process::State::kBlocked;
  ++p->wait_epoch_;
  p->suspend();
}

void Simulation::wait_for(SimTime delay) {
  Process* p = current_;
  if (p == nullptr) throw std::logic_error("wait_for outside process context");
  assert(delay >= 0);
  schedule_resume(*p, delay);
  // schedule_resume only resumes kBlocked processes; mark *after* queuing so
  // the state transition is atomic w.r.t. the event queue.
  p->state_ = Process::State::kBlocked;
  ++p->wait_epoch_;
  p->suspend();
}

// ------------------------------------------------------------------ Event --

void Event::wait() { wait_for(kNever); }

bool Event::wait_for(SimTime timeout) {
  Process* p = sim_.current();
  if (p == nullptr) {
    throw std::logic_error("Event::wait outside process context");
  }
  p->waiting_on_ = this;
  p->wait_woken_ = false;
  waiters_.push_back(p);
  if (timeout != kNever) {
    const std::uint64_t epoch = p->wait_epoch_ + 1;  // epoch of this wait
    sim_.schedule(timeout, [this, p, epoch] {
      // The epoch identifies this exact wait: if the process moved on
      // (resumed, re-waited, or torn down), the timeout is stale.
      if (p->wait_epoch_ != epoch || p->finished()) return;
      if (p->wait_woken_) return;  // notify won; the resume is queued
      p->waiting_on_ = nullptr;    // cancel: notify must skip this process
      std::erase(waiters_, p);
      sim_.schedule_resume(*p, 0);
    });
  }
  sim_.block_current();
  const bool woken = p->wait_woken_;
  p->waiting_on_ = nullptr;
  p->wait_woken_ = false;
  return woken;
}

void Event::notify_all() {
  // schedule_resume only queues an event, so nothing can wait on this Event
  // while the loop runs; clearing afterwards keeps the vector's capacity.
  for (Process* p : waiters_) {
    p->wait_woken_ = true;
    p->waiting_on_ = nullptr;
    sim_.schedule_resume(*p, 0);
  }
  waiters_.clear();
}

void Event::notify_one() {
  if (waiters_.empty()) return;
  Process* p = waiters_.front();
  waiters_.erase(waiters_.begin());
  p->wait_woken_ = true;
  p->waiting_on_ = nullptr;
  sim_.schedule_resume(*p, 0);
}

}  // namespace strings::sim
