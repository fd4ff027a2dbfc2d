#include "workloads/testbed.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/prof.hpp"
#include "simcore/flat_map.hpp"

namespace strings::workloads {

namespace {

/// Baseline-mode API wrapper: retires the pid -> tenant mapping when the
/// app instance goes away. The exit flush runs first so the op observer
/// attributes every last completion; without the erase the map grows by one
/// entry per request for the life of the run (open-loop churn made that a
/// real leak). The accumulated per-tenant service itself survives — that is
/// the whole-run quantity Jain is computed over. During teardown (a fixed-
/// horizon run killing in-flight requests) there is no event loop left to
/// flush against, so the destructor must not block.
class BaselineApi final : public frontend::DirectApi {
 public:
  BaselineApi(const sim::Simulation& sim, cuda::CudaRuntime& rt,
              sim::FlatMap<cuda::ProcessId, std::string>& pid_tenant)
      : DirectApi(rt), sim_(sim), pid_tenant_(pid_tenant) {}
  ~BaselineApi() override {
    if (!sim_.tearing_down()) cudaThreadExit();
    pid_tenant_.erase(pid());
  }

 private:
  const sim::Simulation& sim_;
  sim::FlatMap<cuda::ProcessId, std::string>& pid_tenant_;
};

}  // namespace

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kCudaBaseline: return "CUDA";
    case Mode::kRain: return "Rain";
    case Mode::kStrings: return "Strings";
    case Mode::kDesign2: return "Design-II";
  }
  return "?";
}

std::vector<gpu::DeviceProps> paper_node_a() {
  return {gpu::quadro2000(), gpu::tesla_c2050()};
}

std::vector<gpu::DeviceProps> paper_node_b() {
  return {gpu::quadro4000(), gpu::tesla_c2070()};
}

std::vector<std::vector<gpu::DeviceProps>> small_server() {
  return {paper_node_a()};
}

std::vector<std::vector<gpu::DeviceProps>> supernode() {
  return {paper_node_a(), paper_node_b()};
}

Testbed::Testbed(sim::Simulation& sim, TestbedConfig config)
    : sim_(sim), config_(std::move(config)) {
  if (config_.nodes.empty()) config_.nodes = small_server();
  if (config_.cpu_fallback_devices) {
    for (auto& node : config_.nodes) node.push_back(gpu::cpu_executor());
  }
  const auto node_count = config_.nodes.size();
  if (config_.control_plane.service_node < 0 ||
      static_cast<std::size_t>(config_.control_plane.service_node) >=
          node_count) {
    throw std::invalid_argument("control-plane service_node out of range");
  }

  // The analyzer must observe every event from the first schedule() on, so
  // it installs before any component is constructed. GRR's divergence bound
  // scales with the number of independent deciders: one centralized
  // service, or one optimistic agent per node.
  if (config_.analyze) {
    analyzer_ = std::make_unique<analysis::Analyzer>();
    analyzer_->install(sim_);
    analyzer_->set_grr_deciders(
        config_.control_plane.placement == core::PlacementMode::kDistributed
            ? static_cast<int>(node_count)
            : 1);
    // Distributed agents stripe stateful cursors by agent id, which changes
    // the shape of the INV-GRR-1 bound (per residue class, not global).
    analyzer_->set_grr_striped(config_.control_plane.placement ==
                               core::PlacementMode::kDistributed);
  }

  if (config_.trace) {
    tracer_ = std::make_unique<obs::Tracer>();
    // Run-config labels: exported as trace metadata and echoed in the
    // profiler report header (online and offline alike).
    tracer_->set_meta("mode", mode_name(config_.mode));
    tracer_->set_meta("balancing", config_.balancing_policy);
    tracer_->set_meta("device_policy", config_.device_policy);
    if (!config_.feedback_policy.empty()) {
      tracer_->set_meta("feedback", config_.feedback_policy);
    }
    tracer_->set_meta(
        "placement",
        config_.control_plane.placement == core::PlacementMode::kDistributed
            ? "distributed"
            : "centralized");
    tracer_->set_meta("nodes", std::to_string(node_count));
    if (config_.exemplars > 0) {
      tracer_->enable_forensics();
      // The profiler keys off these (online and offline alike): forensics
      // turns culprit attribution on; exemplar_k/window_ns let it re-derive
      // the per-window top-K from the exported trace byte-identically.
      tracer_->set_meta("forensics", "1");
      tracer_->set_meta("exemplar_k", std::to_string(config_.exemplars));
      tracer_->set_meta("window_ns", std::to_string(config_.stream_window));
      if (config_.stream_window > 0) {
        tracer_->count_completions_per(config_.stream_window);
      }
    }
  }
  core::PlacementService::Config mcfg;
  mcfg.static_policy = config_.balancing_policy;
  mcfg.feedback_policy = config_.feedback_policy;
  service_ = std::make_unique<core::PlacementService>(mcfg);
  if (tracer_ != nullptr) {
    service_->set_tracer(tracer_.get(), config_.control_plane.service_node);
  }

  for (std::size_t n = 0; n < node_count; ++n) {
    devices_.emplace_back();
    std::vector<gpu::GpuDevice*> ptrs;
    for (std::size_t d = 0; d < config_.nodes[n].size(); ++d) {
      devices_[n].push_back(std::make_unique<gpu::GpuDevice>(
          sim_, static_cast<int>(d), config_.nodes[n][d],
          config_.trace));
      ptrs.push_back(devices_[n].back().get());
    }
    runtimes_.push_back(std::make_unique<cuda::CudaRuntime>(sim_, ptrs));
    node_gids_.push_back(service_->report_node(static_cast<core::NodeId>(n),
                                              config_.nodes[n]));
  }
  service_->finalize();

  if (tracer_ != nullptr) {
    // One compute/copy/dispatch track triple per device, grouped by node.
    for (std::size_t n = 0; n < node_count; ++n) {
      for (std::size_t d = 0; d < config_.nodes[n].size(); ++d) {
        tracer_->register_gpu(node_gids_[n][d], static_cast<int>(n),
                              config_.nodes[n][d].name);
      }
    }
  }

  // Precompute the shared-wire matrix (one full-duplex pair per unordered
  // node pair) so wires_between is a flat index on the binding hot path.
  if (config_.shared_network) {
    wires_.resize(node_count * node_count);
    for (std::size_t a = 0; a < node_count; ++a) {
      for (std::size_t b = a + 1; b < node_count; ++b) {
        auto fwd = std::make_shared<rpc::SharedLink>();
        auto rev = std::make_shared<rpc::SharedLink>();
        wires_[a * node_count + b] = {fwd, rev};
        wires_[b * node_count + a] = {rev, fwd};
      }
    }
  }

  // Stand up the control plane: one caching MapperAgent per node, talking
  // to the PlacementService on service_node. Under kDirect (and in the
  // unscheduled baseline mode) agents call the service object directly;
  // otherwise each agent gets a timed channel whose serve loop the service
  // hosts as a daemon process.
  const bool use_channels =
      config_.mode != Mode::kCudaBaseline &&
      config_.control_plane.transport != core::ControlTransport::kDirect;
  for (std::size_t n = 0; n < node_count; ++n) {
    const auto node = static_cast<core::NodeId>(n);
    rpc::DuplexChannel* channel = nullptr;
    if (use_channels) {
      // Only data-plane transport contends on the shared wires; zero-cost
      // channels must stay free of data traffic to preserve equivalence.
      auto [tx, rx] =
          config_.control_plane.transport == core::ControlTransport::kDataPlane
              ? wires_between(node, config_.control_plane.service_node)
              : std::pair<std::shared_ptr<rpc::SharedLink>,
                          std::shared_ptr<rpc::SharedLink>>{nullptr, nullptr};
      channel = &service_->connect_agent(sim_, node, control_link_for(node),
                                         std::move(tx), std::move(rx));
    }
    rpc::Channel* push = nullptr;
    if (channel != nullptr &&
        config_.control_plane.placement == core::PlacementMode::kDistributed &&
        config_.control_plane.sync_mode != core::SyncMode::kPull) {
      // Push sync: a dedicated service->agent delta channel. Under
      // data-plane transport it shares the service->agent wire direction
      // with RPC responses, so fan-out traffic contends realistically.
      auto wire =
          config_.control_plane.transport == core::ControlTransport::kDataPlane
              ? wires_between(config_.control_plane.service_node, node).first
              : nullptr;
      push = &service_->connect_push(sim_, node, control_link_for(node),
                                     std::move(wire));
    }
    agents_.push_back(std::make_unique<core::MapperAgent>(
        sim_, node, *service_, config_.control_plane, channel, push));
  }

  if (config_.mode == Mode::kCudaBaseline) {
    // No scheduling stack; observe device ops directly for fairness
    // accounting (pid -> tenant is recorded in make_api).
    for (auto& rt : runtimes_) {
      rt->set_op_observer([this](cuda::ProcessId pid, cuda::cudaStream_t,
                                 const gpu::GpuDevice::Op& op) {
        auto it = baseline_pid_tenant_.find(pid);
        if (it == baseline_pid_tenant_.end()) return;
        baseline_tenant_service_[it->second] += op.completed - op.started;
      });
    }
    register_metrics();
    if (config_.stream) init_stream();
    return;
  }

  backend::BackendConfig bcfg;
  bcfg.sched.epoch = config_.sched_epoch;
  bcfg.device_policy = config_.device_policy;
  bcfg.mqfq = config_.mqfq;
  bcfg.packer.convert_sync_to_async = config_.convert_sync_to_async;
  bcfg.packer.convert_device_sync = config_.convert_device_sync;
  switch (config_.mode) {
    case Mode::kRain:
      bcfg.design = backend::Design::kProcessPerApp;
      bcfg.packer.convert_sync_to_async = false;
      bcfg.packer.convert_device_sync = false;
      bcfg.sched.measure_includes_wait = true;
      break;
    case Mode::kStrings:
      bcfg.design = backend::Design::kThreadPerApp;
      break;
    case Mode::kDesign2:
      bcfg.design = backend::Design::kSingleMaster;
      break;
    case Mode::kCudaBaseline:
      break;
  }
  for (std::size_t n = 0; n < runtimes_.size(); ++n) {
    daemons_.push_back(std::make_unique<backend::BackendDaemon>(
        sim_, static_cast<core::NodeId>(n), *runtimes_[n], node_gids_[n],
        bcfg));
    if (tracer_ != nullptr) {
      daemons_.back()->set_tracer(tracer_.get());
      for (std::size_t d = 0; d < config_.nodes[n].size(); ++d) {
        daemons_.back()->scheduler(static_cast<int>(d))
            .set_tracer(tracer_.get());
      }
    }
  }

  register_metrics();
  if (config_.stream) init_stream();
}

void Testbed::register_metrics() {
  // Control plane: the service's counters plus one instrument group per
  // node-local agent. Gauges poll the owning component at collection time,
  // so registration costs nothing on the simulation's hot paths.
  registry_.gauge_fn("control_plane/service/rpcs_served",
                     [this] { return double(service_->rpcs_served()); });
  registry_.gauge_fn("control_plane/service/static_selections",
                     [this] { return double(service_->static_selections()); });
  registry_.gauge_fn("control_plane/service/feedback_selections", [this] {
    return double(service_->feedback_selections());
  });
  registry_.gauge_fn("control_plane/service/dst_version",
                     [this] { return double(service_->version()); });
  registry_.gauge_fn("control_plane/service/deltas_sent",
                     [this] { return double(service_->deltas_sent()); });
  for (std::size_t n = 0; n < agents_.size(); ++n) {
    const std::string pre = "control_plane/agent" + std::to_string(n) + "/";
    core::MapperAgent* a = agents_[n].get();
    registry_.gauge_fn(pre + "select_rpcs",
                       [a] { return double(a->counters().select_rpcs); });
    registry_.gauge_fn(pre + "sync_rpcs",
                       [a] { return double(a->counters().sync_rpcs); });
    registry_.gauge_fn(pre + "stale_hits",
                       [a] { return double(a->counters().stale_hits); });
    registry_.gauge_fn(pre + "deltas_applied",
                       [a] { return double(a->counters().deltas_applied); });
    registry_.gauge_fn(pre + "delta_gap_syncs",
                       [a] { return double(a->counters().delta_gap_syncs); });
    registry_.gauge_fn(pre + "direct_calls",
                       [a] { return double(a->counters().direct_calls); });
    registry_.gauge_fn(pre + "oneway_msgs",
                       [a] { return double(a->counters().oneway_msgs); });
    registry_.gauge_fn(pre + "bytes_sent",
                       [a] { return double(a->bytes_sent()); });
    registry_.gauge_fn(pre + "packets_sent",
                       [a] { return double(a->packets_sent()); });
    a->set_latency_histogram(&registry_.histogram(
        pre + "placement_latency_ms", obs::default_latency_buckets_ms()));
  }

  // Devices: one group per GPU under its node.
  for (std::size_t n = 0; n < devices_.size(); ++n) {
    for (std::size_t d = 0; d < devices_[n].size(); ++d) {
      const core::Gid gid = node_gids_[n][d];
      const std::string pre = "node" + std::to_string(n) + "/gpu" +
                              std::to_string(gid) + "/";
      gpu::GpuDevice* dev = devices_[n][d].get();
      registry_.gauge_fn(pre + "dev/kernels_completed", [dev] {
        return double(dev->counters().kernels_completed);
      });
      registry_.gauge_fn(pre + "dev/copies_completed", [dev] {
        return double(dev->counters().copies_completed);
      });
      registry_.gauge_fn(pre + "dev/compute_busy_ms", [dev] {
        return sim::to_millis(dev->counters().compute_busy_time);
      });
      registry_.gauge_fn(pre + "dev/h2d_busy_ms", [dev] {
        return sim::to_millis(dev->counters().h2d_busy_time);
      });
      registry_.gauge_fn(pre + "dev/d2h_busy_ms", [dev] {
        return sim::to_millis(dev->counters().d2h_busy_time);
      });
    }
  }

  // Scheduled modes: dispatcher and wire instruments.
  for (std::size_t n = 0; n < daemons_.size(); ++n) {
    backend::BackendDaemon* daemon = daemons_[n].get();
    const std::string npre = "node" + std::to_string(n) + "/";
    registry_.gauge_fn(npre + "daemon/wire_bytes",
                       [daemon] { return double(daemon->wire_bytes()); });
    registry_.gauge_fn(npre + "daemon/wire_packets",
                       [daemon] { return double(daemon->wire_packets()); });
    registry_.gauge_fn(npre + "daemon/connections", [daemon] {
      return double(daemon->connections_accepted());
    });
    for (std::size_t d = 0; d < config_.nodes[n].size(); ++d) {
      core::GpuScheduler& sched = daemon->scheduler(static_cast<int>(d));
      const std::string pre = npre + "gpu" + std::to_string(sched.gid()) +
                              "/sched/";
      registry_.gauge_fn(pre + "wakes", [&sched] {
        return double(sched.dispatcher_wakes());
      });
      registry_.gauge_fn(pre + "sleeps", [&sched] {
        return double(sched.dispatcher_sleeps());
      });
      registry_.gauge_fn(pre + "epochs",
                         [&sched] { return double(sched.epochs_run()); });
      registry_.gauge_fn(pre + "registered", [&sched] {
        return double(sched.registered_count());
      });
    }
  }
}

void Testbed::init_stream() {
  timeseries_ = std::make_unique<obs::TimeSeries>(
      registry_, obs::TimeSeries::Config{config_.stream_window});
  register_sim_metrics();
  for (const auto& daemon : daemons_) {
    for (int dev = 0; dev < daemon->device_count(); ++dev) {
      if (const auto* mqfq = dynamic_cast<const policies::MqfqStickyPolicy*>(
              &daemon->scheduler(dev).policy())) {
        mqfq_vtimes_.push_back({mqfq, {}});
      }
    }
  }
  sim_.schedule_weak(config_.stream_window, [this] { stream_tick(); });
}

void Testbed::register_sim_metrics() {
  sim::Simulation* sim = &sim_;
  registry_.gauge_fn("sim/events_executed",
                     [sim] { return double(sim->events_executed()); });
  registry_.gauge_fn("sim/fibers/spawned", [sim] {
    return double(sim->kernel_stats().fibers_spawned);
  });
  registry_.gauge_fn("sim/fibers/parks", [sim] {
    return double(sim->kernel_stats().fiber_parks);
  });
  registry_.gauge_fn("sim/fibers/resumes", [sim] {
    return double(sim->kernel_stats().fiber_resumes);
  });
  registry_.gauge_fn("sim/queue/occupancy",
                     [sim] { return double(sim->queue_size()); });
  registry_.gauge_fn("sim/queue/pushes",
                     [sim] { return double(sim->queue_stats().pushes); });
  registry_.gauge_fn("sim/queue/pops",
                     [sim] { return double(sim->queue_stats().pops); });
  // Baseline-relative, so earlier deployments in the same process (the
  // SmallFn counter is process-global) don't bleed into this run's number.
  const std::uint64_t smallfn_base = sim::small_fn_heap_fallbacks();
  registry_.gauge_fn("sim/smallfn_heap_fallbacks", [smallfn_base] {
    return double(sim::small_fn_heap_fallbacks() - smallfn_base);
  });
  // Settable: updated by emit_window from the injected wall clock (bench
  // layer only); stays 0 — and therefore out of the stream — without one.
  wall_ms_gauge_ = &registry_.gauge("sim/wall_ms_per_window");
  wall_ms_gauge_->set(0.0);
}

void Testbed::attach_slo(std::vector<obs::SloRule> rules) {
  if (timeseries_ == nullptr) {
    throw std::logic_error("attach_slo requires TestbedConfig::stream");
  }
  watchdog_ = std::make_unique<obs::SloWatchdog>(std::move(rules));
}

void Testbed::set_stream_sink(StreamSink sink) {
  stream_sink_ = std::move(sink);
}

void Testbed::set_wall_clock(std::function<double()> wall_ms) {
  wall_clock_ms_ = std::move(wall_ms);
  if (wall_clock_ms_) last_wall_ms_ = wall_clock_ms_();
}

void Testbed::stream_tick() {
  emit_window(/*partial=*/false);
  sim_.schedule_weak(config_.stream_window, [this] { stream_tick(); });
}

void Testbed::finalize_stream() {
  if (timeseries_ == nullptr) return;
  const sim::SimTime tail = sim_.now() - timeseries_->last_end();
  if (tail <= 0) return;
  // The weak tick dies with the last real event; close what it missed. A
  // tail of exactly one window width is a full window that never ticked.
  emit_window(/*partial=*/tail < config_.stream_window);
}

void Testbed::emit_window(bool partial) {
  if (timeseries_ == nullptr) return;
  // MQFQ live instruments: per-tenant virtual time (ms of per-unit-weight
  // service, max across devices) so strings_top and the SLO watchdog see
  // who is ahead/throttled under overload. Each gauge registers at the
  // first window close its tenant is known at, and only on the streaming
  // path, so non-MQFQ (and non-streaming) runs are byte-identical to
  // before.
  for (MqfqVtimes& m : mqfq_vtimes_) {
    m.policy->for_each_vtime(
        [&](std::uint32_t id, const std::string& tenant, double vt) {
          if (id >= m.gauges.size()) m.gauges.resize(id + 1, nullptr);
          obs::Gauge*& g = m.gauges[id];
          if (g == nullptr) g = &registry_.gauge("mqfq/" + tenant + "/vtime");
          if (vt / 1e6 > g->value()) g->set(vt / 1e6);
        });
  }
  if (wall_clock_ms_) {
    const double wall = wall_clock_ms_();
    wall_ms_gauge_->set(wall - last_wall_ms_);
    last_wall_ms_ = wall;
  }
  const obs::Window& w = timeseries_->close_window(sim_.now(), partial);
  // Tail-exemplar ids of this window: positional ("w{index}.{rank}") over
  // the requests that completed in it, using the same completed_at /
  // window_ns convention the profiler derives the full exemplar lines
  // with at run end — so the ids referenced here resolve to those lines.
  std::vector<std::string> exemplar_ids;
  if (config_.exemplars > 0 && tracer_ != nullptr &&
      tracer_->forensics_enabled() && config_.stream_window > 0) {
    const auto index = static_cast<std::int64_t>(w.index);
    exemplar_ids = obs::prof::exemplar_ids_for_window(
        tracer_->completions_in(index), index, config_.exemplars);
  }
  std::vector<obs::SloAlert> alerts;
  if (watchdog_ != nullptr) {
    alerts = watchdog_->evaluate(w);
    if (!alerts.empty() && !exemplar_ids.empty()) {
      for (auto& a : alerts) a.exemplars = exemplar_ids;
      watchdog_->annotate_exemplars(alerts.size(), exemplar_ids);
    }
    for (const auto& a : alerts) {
      // Counters register lazily on the first alert of each (rule,
      // severity); they surface in the next window and the metrics CSV.
      registry_.counter("slo/" + a.rule + "/" + a.severity).inc();
      if (tracer_ != nullptr) {
        if (slo_track_ < 0) {
          slo_track_ = tracer_->add_track(
              tracer_->add_process("slo", /*sort_index=*/-1), "alerts");
        }
        using obs::TraceArg;
        tracer_->instant(
            slo_track_, tracer_->intern(a.severity, " ", a.rule), w.end,
            {TraceArg::name(obs::Tracer::kSeries, tracer_->intern(a.series)),
             TraceArg::str(obs::Tracer::kValue, std::to_string(a.value)),
             TraceArg::str(obs::Tracer::kThreshold,
                           std::to_string(a.threshold))});
      }
    }
  }
  if (stream_sink_) stream_sink_(w, alerts, exemplar_ids);
}

void Testbed::observe_request(const std::string& tenant, sim::SimTime response,
                              sim::SimTime service, int errors) {
  if (timeseries_ == nullptr) return;
  const std::string pre = "tenant/" + tenant + "/";
  registry_.counter(pre + "completed").inc();
  if (errors > 0) registry_.counter(pre + "errors").inc(errors);
  registry_.histogram(pre + "response_ms", obs::wide_latency_buckets_ms())
      .observe(sim::to_millis(response));
  const sim::SimTime queued = response - service;
  registry_.histogram(pre + "queue_ms", obs::wide_latency_buckets_ms())
      .observe(sim::to_millis(queued > 0 ? queued : 0));
  if (service > 0) {
    registry_.histogram(pre + "slowdown", obs::slowdown_buckets())
        .observe(double(response) / double(service));
  }
}

Testbed::~Testbed() = default;

rpc::LinkModel Testbed::control_link_for(core::NodeId node) const {
  switch (config_.control_plane.transport) {
    case core::ControlTransport::kDirect:
    case core::ControlTransport::kZeroCost:
      // Full message machinery, zero simulated cost.
      return rpc::LinkModel{0, 0.0};
    case core::ControlTransport::kDataPlane:
      return node == config_.control_plane.service_node ? config_.local_link
                                                        : config_.remote_link;
  }
  return rpc::LinkModel{0, 0.0};
}

std::unique_ptr<frontend::GpuApi> Testbed::make_api(
    const backend::AppDescriptor& app) {
  if (config_.mode == Mode::kCudaBaseline) {
    auto api = std::make_unique<BaselineApi>(sim_, runtime(app.origin_node),
                                             baseline_pid_tenant_);
    baseline_pid_tenant_[api->pid()] = app.tenant;
    return api;
  }
  backend::AppDescriptor desc = app;
  if (desc.app_id == 0) desc.app_id = next_app_id_++;
  frontend::InterposerConfig icfg;
  icfg.nonblocking_rpc =
      config_.mode != Mode::kRain && config_.nonblocking_rpc;
  if (tracer_ != nullptr) {
    icfg.sim = &sim_;
    icfg.tracer = tracer_.get();
    tracer_->begin_request(desc.app_id, desc.app_type, desc.tenant,
                           desc.origin_node, sim_.now(), desc.tenant_weight);
  }
  return std::make_unique<frontend::Interposer>(*this, desc, icfg);
}

core::Gid Testbed::select_device(const std::string& app_type,
                                 core::NodeId origin) {
  return agent(origin).select_device(app_type);
}

const core::GpuEntry& Testbed::resolve(core::Gid gid) {
  // Resolution uses the caller-side gMap replica semantics: the map is
  // immutable after the gPool broadcast, so any node's copy is current.
  return service_->gmap().entry(gid);
}

backend::BackendDaemon& Testbed::daemon(core::NodeId node) {
  return *daemons_.at(static_cast<std::size_t>(node));
}

void Testbed::unbind(core::Gid gid, const std::string& app_type,
                     core::NodeId origin) {
  agent(origin).unbind(gid, app_type);
}

void Testbed::report_feedback(const core::FeedbackRecord& rec,
                              core::NodeId origin) {
  agent(origin).report_feedback(rec);
}

core::ControlPlaneStats Testbed::control_plane_stats() const {
  core::ControlPlaneStats total;
  for (const auto& a : agents_) total.merge(a->stats());
  total.placements = service_->placements();
  total.deltas_sent = service_->deltas_sent();
  return total;
}

rpc::LinkModel Testbed::link_between(core::NodeId origin, core::NodeId node) {
  return origin == node ? config_.local_link : config_.remote_link;
}

std::pair<std::shared_ptr<rpc::SharedLink>, std::shared_ptr<rpc::SharedLink>>
Testbed::wires_between(core::NodeId origin, core::NodeId node) {
  if (!config_.shared_network || origin == node) return {nullptr, nullptr};
  // Direction matters: origin->node traffic uses .first, the reverse .second.
  return wires_[static_cast<std::size_t>(origin) * config_.nodes.size() +
                static_cast<std::size_t>(node)];
}

double Testbed::attained_service_s(const std::string& tenant) const {
  if (config_.mode == Mode::kCudaBaseline) {
    auto it = baseline_tenant_service_.find(tenant);
    return it == baseline_tenant_service_.end() ? 0.0
                                                : sim::to_seconds(it->second);
  }
  sim::SimTime total = 0;
  for (const auto& d : daemons_) {
    for (int dev = 0; dev < static_cast<int>(
                                config_.nodes[static_cast<std::size_t>(
                                                  d->node())].size());
         ++dev) {
      total += d->scheduler(dev).tenant_service(tenant);
    }
  }
  return sim::to_seconds(total);
}

gpu::GpuDevice& Testbed::device(core::Gid gid) {
  const core::GpuEntry& e = service_->gmap().entry(gid);
  return *devices_.at(static_cast<std::size_t>(e.node))
              .at(static_cast<std::size_t>(e.local_device));
}

}  // namespace strings::workloads
