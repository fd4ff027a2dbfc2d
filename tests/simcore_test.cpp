// Unit tests for the cooperative discrete-event kernel.
#include "simcore/simulation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace strings::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(usec(1), 1'000);
  EXPECT_EQ(msec(1), 1'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000);
  EXPECT_EQ(from_seconds(1.5), sec(1) + msec(500));
  EXPECT_DOUBLE_EQ(to_seconds(sec(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_millis(msec(3)), 3.0);
}

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulation, ScheduledCallbacksRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(msec(20), [&] { order.push_back(2); });
  sim.schedule(msec(10), [&] { order.push_back(1); });
  sim.schedule(msec(30), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), msec(30));
}

TEST(Simulation, TiesBreakInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(msec(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, ScheduleFirstLeadsItsInstantInRankOrder) {
  Simulation sim;
  std::vector<int> order;
  // Queued long before the ranked events, yet runs after them.
  sim.schedule(msec(2), [&] { order.push_back(0); });
  sim.schedule(msec(1), [&] {
    sim.schedule(msec(1), [&] { order.push_back(1); });
    sim.schedule_first(msec(1), 7, [&] { order.push_back(17); });
    sim.schedule_first(msec(1), 3, [&] { order.push_back(13); });
  });
  // Leads the ordinary event queued before it for the same instant.
  sim.schedule_first(msec(1), 0, [&] { order.push_back(10); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 13, 17, 0, 1}));
}

TEST(Simulation, ProcessWaitForAdvancesClock) {
  Simulation sim;
  SimTime seen = -1;
  sim.spawn("p", [&] {
    sim.wait_for(usec(123));
    seen = sim.now();
  });
  sim.run();
  EXPECT_EQ(seen, usec(123));
}

TEST(Simulation, NestedSpawnFromProcess) {
  Simulation sim;
  std::vector<std::string> order;
  sim.spawn("outer", [&] {
    order.push_back("outer-start");
    sim.spawn("inner", [&] { order.push_back("inner"); });
    sim.wait_for(usec(1));
    order.push_back("outer-end");
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"outer-start", "inner", "outer-end"}));
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.schedule(msec(10), [&] { ++fired; });
  sim.schedule(msec(20), [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(msec(15)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), msec(15));
  EXPECT_FALSE(sim.run_until(msec(25)));
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, ExceptionInProcessPropagates) {
  Simulation sim;
  sim.spawn("bad", [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulation, DeadlockDetected) {
  Simulation sim;
  Event ev(sim);
  sim.spawn("stuck", [&] { ev.wait(); });
  EXPECT_THROW(sim.run(), DeadlockError);
}

TEST(Simulation, DaemonBlockedForeverIsNotDeadlock) {
  Simulation sim;
  Event ev(sim);
  sim.spawn_daemon("server", [&] { ev.wait(); });
  sim.schedule(msec(1), [] {});
  EXPECT_NO_THROW(sim.run());
}

TEST(Simulation, TeardownKillsBlockedProcesses) {
  bool cleaned_up = false;
  {
    Simulation sim;
    Event ev(sim);
    sim.spawn("stuck", [&] {
      struct Raii {
        bool* flag;
        ~Raii() { *flag = true; }
      } raii{&cleaned_up};
      ev.wait();
    });
    sim.run_until(msec(1));
    // Simulation destroyed with the process still blocked.
  }
  EXPECT_TRUE(cleaned_up);
}

TEST(Simulation, TeardownUnwindsInProcessContext) {
  // A destructor running while terminate_processes() unwinds a killed
  // process sees that process as current, with tearing_down() set.
  Simulation sim;
  Event ev(sim);
  const Process* unwinding_as = nullptr;
  bool saw_teardown = false;
  Process& p = sim.spawn("stuck", [&] {
    struct Raii {
      Simulation& sim;
      const Process*& as;
      bool& teardown;
      ~Raii() {
        as = sim.current();
        teardown = sim.tearing_down();
      }
    } raii{sim, unwinding_as, saw_teardown};
    ev.wait();
  });
  sim.run_until(msec(1));
  sim.terminate_processes();
  EXPECT_EQ(unwinding_as, &p);
  EXPECT_TRUE(saw_teardown);
  EXPECT_EQ(sim.current(), nullptr);
}

TEST(Simulation, BlockingOutsideProcessContextThrows) {
  // Kernel context cannot block: every build type reports it instead of
  // dereferencing a null current process.
  Simulation sim;
  Event ev(sim);
  EXPECT_THROW(sim.wait_for(msec(1)), std::logic_error);
  EXPECT_THROW(sim.yield(), std::logic_error);
  EXPECT_THROW(ev.wait(), std::logic_error);
  EXPECT_THROW(ev.wait_for(msec(1)), std::logic_error);
}

TEST(Event, NotifyAllWakesEveryWaiter) {
  Simulation sim;
  Event ev(sim);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn("w" + std::to_string(i), [&] {
      ev.wait();
      ++woken;
    });
  }
  sim.schedule(msec(1), [&] { ev.notify_all(); });
  sim.run();
  EXPECT_EQ(woken, 5);
}

TEST(Event, NotifyOneWakesInFifoOrder) {
  Simulation sim;
  Event ev(sim);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn("w" + std::to_string(i), [&ev, &order, i] {
      ev.wait();
      order.push_back(i);
    });
  }
  sim.schedule(msec(1), [&] { ev.notify_one(); });
  sim.schedule(msec(2), [&] { ev.notify_one(); });
  sim.schedule(msec(3), [&] { ev.notify_one(); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Event, WaitTimesOut) {
  Simulation sim;
  Event ev(sim);
  bool result = true;
  SimTime at = 0;
  sim.spawn("w", [&] {
    result = ev.wait_for(msec(7));
    at = sim.now();
  });
  sim.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(at, msec(7));
}

TEST(Event, NotifyBeatsTimeout) {
  Simulation sim;
  Event ev(sim);
  bool result = false;
  sim.spawn("w", [&] { result = ev.wait_for(msec(100)); });
  sim.schedule(msec(5), [&] { ev.notify_all(); });
  sim.run();
  EXPECT_TRUE(result);
  EXPECT_EQ(sim.now(), msec(100));  // stale timeout event still drains
}

TEST(Event, StaleTimeoutDoesNotWakeLaterWait) {
  Simulation sim;
  Event ev(sim);
  std::vector<SimTime> wakeups;
  sim.spawn("w", [&] {
    ev.wait_for(msec(10));  // notified at 5ms
    wakeups.push_back(sim.now());
    ev.wait_for(msec(100));  // must not be woken by the 10ms timeout
    wakeups.push_back(sim.now());
  });
  sim.schedule(msec(5), [&] { ev.notify_all(); });
  sim.run();
  ASSERT_EQ(wakeups.size(), 2u);
  EXPECT_EQ(wakeups[0], msec(5));
  EXPECT_EQ(wakeups[1], msec(105));
}

TEST(Mailbox, SendThenReceive) {
  Simulation sim;
  Mailbox<int> box(sim);
  int got = 0;
  sim.spawn("rx", [&] { got = box.receive(); });
  sim.schedule(msec(1), [&] { box.send(42); });
  sim.run();
  EXPECT_EQ(got, 42);
}

TEST(Mailbox, PreservesFifoOrder) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<int> got;
  sim.spawn("rx", [&] {
    for (int i = 0; i < 4; ++i) got.push_back(box.receive());
  });
  sim.schedule(msec(1), [&] {
    for (int i = 0; i < 4; ++i) box.send(i);
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Mailbox, ReceiveForTimesOut) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::optional<int> got = 42;
  SimTime at = -1;
  sim.spawn("rx", [&] {
    got = box.receive_for(msec(5));
    at = sim.now();
  });
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(at, msec(5));
}

TEST(Mailbox, ReceiveForDeliversBeforeDeadline) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::optional<int> got;
  sim.spawn("rx", [&] { got = box.receive_for(msec(100)); });
  sim.schedule(msec(3), [&] { box.send(9); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 9);
}

TEST(Mailbox, ReceiveForHonorsTotalDeadlineAcrossSteals) {
  // A competing receiver steals the first value; the timed receiver's
  // deadline is absolute, not per-wakeup.
  Simulation sim;
  Mailbox<int> box(sim);
  std::optional<int> got = 1;
  SimTime at = -1;
  sim.spawn("thief", [&] {
    int v = box.receive();
    (void)v;
  });
  sim.spawn("timed", [&] {
    got = box.receive_for(msec(10));
    at = sim.now();
  });
  sim.schedule(msec(4), [&] { box.send(7); });  // thief takes it
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(at, msec(10));
}

TEST(Mailbox, TryReceiveNonBlocking) {
  Simulation sim;
  Mailbox<int> box(sim);
  EXPECT_FALSE(box.try_receive().has_value());
  box.send(7);
  auto v = box.try_receive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_TRUE(box.empty());
}

TEST(Simulation, DeterministicInterleaving) {
  // Two identical runs must produce identical traces.
  auto run_once = [] {
    Simulation sim;
    Event ev(sim);
    std::vector<std::string> trace;
    for (int i = 0; i < 4; ++i) {
      sim.spawn("p" + std::to_string(i), [&sim, &ev, &trace, i] {
        sim.wait_for(usec(10 * (i % 2)));
        trace.push_back("a" + std::to_string(i));
        ev.wait_for(usec(50));
        trace.push_back("b" + std::to_string(i));
      });
    }
    sim.schedule(usec(30), [&] { ev.notify_all(); });
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, ManyProcessesStress) {
  Simulation sim;
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    sim.spawn("p" + std::to_string(i), [&sim, &done, i] {
      for (int k = 0; k < 10; ++k) sim.wait_for(usec(i + 1));
      ++done;
    });
  }
  sim.run();
  EXPECT_EQ(done, 64);
  EXPECT_EQ(sim.live_processes(), 0);
}


// 1.0/3.0 computed at run time, so it rounds under the live MXCSR mode
// (fegetround() reads the x87 control word instead).
std::uint64_t runtime_third_bits() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return std::bit_cast<std::uint64_t>(one / three);
}

constexpr std::uint64_t kThirdNearest = std::bit_cast<std::uint64_t>(1.0 / 3.0);

TEST(Fiber, FpControlStateIsPerFiber) {
  // A process that switches to upward rounding keeps it across parks;
  // the kernel, its callbacks and other processes keep round-to-nearest.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  ASSERT_EQ(runtime_third_bits(), kThirdNearest);
  Simulation sim;
  int upward_checks = 0;
  int nearest_checks = 0;
  auto expect_nearest = [&] {
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(runtime_third_bits(), kThirdNearest);
    ++nearest_checks;
  };
  sim.spawn("upward", [&] {
    std::fesetround(FE_UPWARD);
    for (int i = 0; i < 4; ++i) {
      sim.wait_for(usec(10));
      EXPECT_EQ(std::fegetround(), FE_UPWARD);
      EXPECT_EQ(runtime_third_bits(), kThirdNearest + 1);
      ++upward_checks;
    }
  });
  sim.spawn("nearest", [&] {
    for (int i = 0; i < 4; ++i) {
      sim.wait_for(i == 0 ? usec(5) : usec(10));
      expect_nearest();
    }
  });
  for (int i = 1; i <= 4; ++i) sim.schedule(usec(10 * i + 2), expect_nearest);
  sim.run();
  EXPECT_EQ(upward_checks, 4);
  EXPECT_EQ(nearest_checks, 8);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(runtime_third_bits(), kThirdNearest);
}

[[gnu::noinline]] void park_then_throw(Simulation& sim) {
  sim.wait_for(usec(1));
  throw std::runtime_error("after park");
}

TEST(Fiber, FirstActivationIsAlignedAndExceptionsCrossParkedFrames) {
  Simulation sim;
  std::uintptr_t local_addr = 1;
  std::string caught;
  bool finished = false;
  sim.spawn("body", [&] {
    // Laundered through volatile so the compiler cannot assume the ABI's
    // alignment and fold the check away.
    alignas(16) char local[16] = {};
    volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(&local[0]);
    local_addr = addr;
    try {
      park_then_throw(sim);
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    sim.wait_for(usec(1));
    finished = true;
  });
  sim.run();
  EXPECT_EQ(local_addr % 16, 0u);
  EXPECT_EQ(caught, "after park");
  EXPECT_TRUE(finished);
  EXPECT_EQ(sim.now(), usec(2));
}

}  // namespace
}  // namespace strings::sim
