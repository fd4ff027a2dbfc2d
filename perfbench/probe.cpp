#include "probe.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "policies/balancing.hpp"
#include "policies/device_policies.hpp"

namespace perfbench {

namespace pol = strings::policies;

namespace {

Probe* g_probe = nullptr;

Layer fiber_layer(const std::string& name) {
  const auto starts = [&name](const char* prefix) {
    return name.starts_with(prefix);
  };
  if (starts("be/") || starts("be-master/")) return Layer::kBackend;
  if (starts("ol/") || starts("srv/")) return Layer::kFrontend;
  if (starts("gen/") || starts("ol-gen/")) return Layer::kWorkloads;
  if (starts("placement/")) return Layer::kPlacement;
  return Layer::kOther;
}

/// Opens a policy frame on the active probe, if any, for one call.
class Frame {
 public:
  explicit Frame(Layer l) : probe_(g_probe) {
    if (probe_ != nullptr) probe_->enter(l);
  }
  ~Frame() {
    if (probe_ != nullptr) probe_->leave();
  }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

 private:
  Probe* probe_;
};

class TimedDevicePolicy final : public pol::DeviceSchedPolicy {
 public:
  explicit TimedDevicePolicy(std::unique_ptr<pol::DeviceSchedPolicy> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<pol::RcbSnapshot>& rcb) override {
    count(rcb);
    Frame f(Layer::kDevicePolicy);
    return inner_->pick_awake(rcb);
  }
  std::vector<std::uint64_t> pick_awake(
      const std::vector<pol::RcbSnapshot>& rcb,
      strings::sim::SimTime now) override {
    count(rcb);
    Frame f(Layer::kDevicePolicy);
    return inner_->pick_awake(rcb, now);
  }

 private:
  static void count(const std::vector<pol::RcbSnapshot>& rcb) {
    if (g_probe == nullptr) return;
    ++g_probe->counts().device_calls;
    g_probe->counts().rcb_entries += rcb.size();
  }
  std::unique_ptr<pol::DeviceSchedPolicy> inner_;
};

class TimedBalancingPolicy final : public pol::BalancingPolicy {
 public:
  explicit TimedBalancingPolicy(std::unique_ptr<pol::BalancingPolicy> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }
  bool needs_feedback() const override { return inner_->needs_feedback(); }
  void configure_striping(int rank, int deciders) override {
    inner_->configure_striping(rank, deciders);
  }
  strings::core::Gid select(const pol::BalanceInput& in) override {
    if (g_probe != nullptr) ++g_probe->counts().balancing_calls;
    Frame f(Layer::kBalancing);
    return inner_->select(in);
  }

 private:
  std::unique_ptr<pol::BalancingPolicy> inner_;
};

std::string wrap_balancing(const std::string& slot, const std::string& inner) {
  if (inner.empty()) return inner;
  const std::string name = "bench.bal." + slot;
  pol::register_balancing_policy(name, [inner] {
    return std::make_unique<TimedBalancingPolicy>(
        pol::make_balancing_policy(inner));
  });
  return name;
}

}  // namespace

Probe::Probe() {
  if (g_probe != nullptr) throw std::logic_error("a Probe is already active");
  strings::sim::set_sim_hooks(this);
  g_probe = this;
}

Probe::~Probe() {
  strings::sim::set_sim_hooks(nullptr);
  g_probe = nullptr;
}

void Probe::charge(Clock::time_point now) {
  if (depth_ > 0) {
    times_.self_s[static_cast<std::size_t>(stack_[depth_ - 1])] +=
        std::chrono::duration<double>(now - last_).count();
  }
  last_ = now;
}

void Probe::enter(Layer l) {
  charge(Clock::now());
  if (depth_ == kMaxDepth) throw std::logic_error("probe frames too deep");
  stack_[depth_++] = l;
}

void Probe::leave() {
  charge(Clock::now());
  if (depth_ == 0) throw std::logic_error("probe frame underflow");
  --depth_;
}

void Probe::start() {
  depth_ = 0;
  enter(Layer::kSimcore);
}

void Probe::stop() { leave(); }

void Probe::on_event_begin(strings::sim::Simulation&, std::uint64_t) {
  enter(Layer::kCallbacks);
}

void Probe::on_event_end(strings::sim::Simulation&, std::uint64_t) {
  leave();
}

void Probe::on_process_running(strings::sim::Simulation&,
                               strings::sim::Process& p) {
  const Layer l = fiber_layer(p.name());
  ++times_.resumes[static_cast<std::size_t>(l)];
  enter(l);
}

void Probe::on_process_yielded(strings::sim::Simulation&,
                               strings::sim::Process&) {
  leave();
}

strings::workloads::TestbedConfig traced_config(
    const strings::workloads::TestbedConfig& tb) {
  strings::workloads::TestbedConfig out = tb;
  const std::string device = tb.device_policy;
  const pol::MqfqConfig mqfq = tb.mqfq;
  // BackendDaemon builds MQFQ itself (so the scenario's knobs reach it)
  // instead of asking the factory; the decorator must wrap that same object.
  pol::register_device_policy("bench.dev", [device, mqfq] {
    std::unique_ptr<pol::DeviceSchedPolicy> inner;
    if (device == "MQFQ" || device == "mqfq") {
      inner = std::make_unique<pol::MqfqStickyPolicy>(mqfq);
    } else {
      inner = pol::make_device_policy(device);
    }
    return std::make_unique<TimedDevicePolicy>(std::move(inner));
  });
  out.device_policy = "bench.dev";
  out.balancing_policy = wrap_balancing("static", tb.balancing_policy);
  out.feedback_policy = wrap_balancing("feedback", tb.feedback_policy);
  return out;
}

}  // namespace perfbench
