// Host-time attribution for the traced run, measured from outside the
// simulator through its public seams only:
//  - a sim::SimHooks observer that charges host time to the innermost open
//    frame: the kernel loop (simcore), a kernel-context event body
//    (callbacks), or a process fiber (bucketed by process-name prefix);
//  - timing decorators around the device and balancing policies, registered
//    under new names that only the traced run's config selects.
// Frames nest (kernel > event > fiber > policy call), and every clock read
// closes one interval, so the self times add up to the time between
// Probe::start() and Probe::stop().
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "simcore/hooks.hpp"
#include "workloads/testbed.hpp"

namespace perfbench {

enum class Layer {
  kSimcore,       // kernel loop between events
  kCallbacks,     // kernel-context event bodies (epoch tick, GPU model, rpc)
  kDevicePolicy,  // DeviceSchedPolicy::pick_awake
  kBalancing,     // BalancingPolicy::select
  kBackend,       // be/... fibers
  kFrontend,      // ol/... and srv/... fibers (app, frontend, cudart client)
  kWorkloads,     // gen/... and ol-gen/... fibers
  kPlacement,     // placement/... fibers
  kOther,         // fibers with any other name (left unattributed)
  kCount
};

struct LayerTimes {
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_s{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> resumes{};
  std::uint64_t device_calls = 0;
  std::uint64_t rcb_entries = 0;
  std::uint64_t balancing_calls = 0;

  double self(Layer l) const { return self_s[static_cast<std::size_t>(l)]; }
  std::uint64_t resumed(Layer l) const {
    return resumes[static_cast<std::size_t>(l)];
  }
};

/// Installs itself as the simulation's hooks and as the target of the
/// policy decorators for its lifetime. One at a time.
class Probe final : public strings::sim::SimHooks {
 public:
  Probe();
  ~Probe() override;
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Opens the kernel frame; call right before Simulation::run().
  void start();
  /// Closes the kernel frame; call right after Simulation::run().
  void stop();
  const LayerTimes& times() const { return times_; }

  /// Opens / closes a policy frame (called by the decorators).
  void enter(Layer l);
  void leave();
  LayerTimes& counts() { return times_; }

  void on_event_scheduled(strings::sim::Simulation&, std::uint64_t) override {}
  void on_event_begin(strings::sim::Simulation&, std::uint64_t) override;
  void on_event_end(strings::sim::Simulation&, std::uint64_t) override;
  void on_process_spawned(strings::sim::Simulation&,
                          strings::sim::Process&) override {}
  void on_process_running(strings::sim::Simulation&,
                          strings::sim::Process& p) override;
  void on_process_yielded(strings::sim::Simulation&,
                          strings::sim::Process&) override;
  void on_mailbox_send(const void*) override {}
  void on_mailbox_recv(const void*) override {}
  void on_mailbox_destroyed(const void*) override {}

 private:
  using Clock = std::chrono::steady_clock;
  void charge(Clock::time_point now);

  LayerTimes times_;
  static constexpr int kMaxDepth = 16;
  std::array<Layer, kMaxDepth> stack_{};
  int depth_ = 0;
  Clock::time_point last_{};
};

/// A copy of `tb` whose device, static and feedback policies are timing
/// decorators around the ones `tb` names. Registers the decorators (under
/// "bench.dev", "bench.bal.static", "bench.bal.feedback") as a side effect.
strings::workloads::TestbedConfig traced_config(
    const strings::workloads::TestbedConfig& tb);

}  // namespace perfbench
