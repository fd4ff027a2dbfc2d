// Testbed: assembles a complete simulated deployment — nodes with GPUs and
// CUDA runtimes, backend daemons, the distributed Affinity Mapper control
// plane (PlacementService + per-node MapperAgents) — and hands out
// application-facing GpuApi instances per execution mode:
//
//   kCudaBaseline — bare CUDA runtime; static provisioning (paper baseline)
//   kRain         — the authors' earlier scheduler: Design I backends
//                   (process per app), no context packing, coarse service
//                   accounting
//   kStrings      — the paper's system: Design III backends, context
//                   packing, async conversions, non-blocking RPC
//   kDesign2      — the single-master-thread alternative of Fig. 5
//
// Standard topologies mirror the paper's testbed: NodeA = Quadro 2000 +
// Tesla C2050, NodeB = Quadro 4000 + Tesla C2070; small server = NodeA,
// supernode = NodeA + NodeB over Gigabit Ethernet.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "backend/backend_daemon.hpp"
#include "core/control_plane.hpp"
#include "core/mapper_agent.hpp"
#include "core/placement_service.hpp"
#include "cudart/cuda_runtime.hpp"
#include "frontend/direct_api.hpp"
#include "frontend/interposer.hpp"
#include "gpu/gpu_device.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "simcore/flat_map.hpp"
#include "simcore/simulation.hpp"

namespace strings::workloads {

enum class Mode { kCudaBaseline, kRain, kStrings, kDesign2 };

const char* mode_name(Mode m);

struct TestbedConfig {
  Mode mode = Mode::kStrings;
  /// Device properties per node.
  std::vector<std::vector<gpu::DeviceProps>> nodes;
  std::string balancing_policy = "GMin";
  /// Feedback policy for the Policy Arbiter; empty disables switching.
  std::string feedback_policy;
  std::string device_policy = "AllAwake";
  /// MQFQ-Sticky knobs (throttle threshold T, stickiness window); only
  /// consulted when device_policy selects MQFQ.
  policies::MqfqConfig mqfq;
  sim::SimTime sched_epoch = sim::msec(10);
  /// Unified observability: request-lifecycle spans and per-device tracks
  /// (Testbed::tracer; the exported `util` counter is derived from the op
  /// spans, `queue_depth` is written at each RCB change), plus each
  /// device's change-driven utilization series (GpuDevice::tracer, read by
  /// the Fig. 1/2 statistics). Off by default — a disabled run is
  /// bit-for-bit identical to one without instrumentation.
  bool trace = false;
  /// Dynamic analysis: install the happens-before tracker and protocol
  /// invariant checker on the simulation (Testbed::analyzer). Off by
  /// default — a disabled run is bit-for-bit identical to one without the
  /// analysis layer, and an enabled run observes without perturbing
  /// (pinned by tests/analysis_zero_overhead_test).
  bool analyze = false;
  /// Streaming telemetry: windowed aggregation of the metrics registry
  /// (obs::TimeSeries) on a weak tick, plus per-tenant request instruments
  /// and the sim/... kernel self-metrics. Off by default — a disabled run
  /// is bit-for-bit identical to one without the pipeline (pinned by
  /// tests/stream_zero_overhead_test).
  bool stream = false;
  /// Tumbling-window width of the telemetry stream (virtual time).
  sim::SimTime stream_window = sim::msec(10);
  /// Interference forensics: turn on the Tracer's occupant flight recorder
  /// (GpuScheduler / BackendDaemon / Channel stamp who held which resource
  /// when) so the profiler can attribute blocked time to culprit tenants.
  /// Requires `trace`. Off by default — a disabled run is byte-for-byte
  /// identical to one that never heard of forensics.
  bool forensics = false;
  /// Per-window top-K slowest-request exemplars (> 0 enables; implies
  /// forensics). Exemplar ids ride closed stream windows and SLO alerts;
  /// the full strings.exemplar.v1 lines are derived by the profiler at run
  /// end. Requires `trace` + `stream`.
  int exemplars = 0;
  /// Ablation knobs (apply to Strings / Design-II modes; Rain always runs
  /// without conversions and with blocking RPC, as the real Rain did).
  bool convert_sync_to_async = true;
  bool convert_device_sync = true;
  bool nonblocking_rpc = true;
  rpc::LinkModel local_link = rpc::LinkModel::shared_memory();
  /// Default follows the paper's SIII-A idealization (remote GPUs as NUMA
  /// memory); swap in LinkModel::gigabit_ethernet() to model the physical
  /// link honestly (see bench/ablation_transport, ablation_supernode_scale).
  rpc::LinkModel remote_link = rpc::LinkModel::numa_like();
  /// Model the inter-node network as one shared full-duplex wire per node
  /// pair (scale-out contention) instead of a dedicated link per binding.
  bool shared_network = false;
  /// Adds a CPU pseudo-device to every node's pool (the paper's future-work
  /// CPU/GPU mapping): under runtime-aware policies (RTF) the balancer
  /// spills work to host cores only when every GPU queue is deep enough
  /// that a ~20x-slower executor still wins.
  bool cpu_fallback_devices = false;
  /// Deployment of the Affinity Mapper control plane: who decides
  /// (centralized service vs per-node agents over cached snapshots) and
  /// what the decisions cost (direct oracle, zero-cost channels, or real
  /// data-plane links). The default — centralized over zero-cost channels —
  /// reproduces the pre-split monolithic mapper bit-for-bit while still
  /// exercising the message machinery.
  core::ControlPlaneConfig control_plane;
};

/// NodeA of the paper's testbed.
std::vector<gpu::DeviceProps> paper_node_a();
/// NodeB of the paper's testbed.
std::vector<gpu::DeviceProps> paper_node_b();
/// Single small-scale server (2 GPUs).
std::vector<std::vector<gpu::DeviceProps>> small_server();
/// Emulated 4-GPU supernode (2 nodes x 2 GPUs).
std::vector<std::vector<gpu::DeviceProps>> supernode();

class Testbed final : public frontend::SchedulerDirectory {
 public:
  Testbed(sim::Simulation& sim, TestbedConfig config);
  ~Testbed() override;

  /// Creates the application-facing API for one app instance (request).
  std::unique_ptr<frontend::GpuApi> make_api(
      const backend::AppDescriptor& app);

  // ---- SchedulerDirectory (routed through the origin node's agent) ----
  core::Gid select_device(const std::string& app_type,
                          core::NodeId origin) override;
  const core::GpuEntry& resolve(core::Gid gid) override;
  backend::BackendDaemon& daemon(core::NodeId node) override;
  void unbind(core::Gid gid, const std::string& app_type,
              core::NodeId origin) override;
  void report_feedback(const core::FeedbackRecord& rec,
                       core::NodeId origin) override;
  rpc::LinkModel link_between(core::NodeId origin,
                              core::NodeId node) override;
  std::pair<std::shared_ptr<rpc::SharedLink>,
            std::shared_ptr<rpc::SharedLink>>
  wires_between(core::NodeId origin, core::NodeId node) override;

  // ---- introspection ----
  sim::Simulation& simulation() { return sim_; }
  const TestbedConfig& config() const { return config_; }
  /// The authoritative side of the control plane (gPool Creator + Target
  /// GPU Selector + Policy Arbiter).
  core::PlacementService& mapper() { return *service_; }
  /// This node's caching agent (the object interposers actually call).
  core::MapperAgent& agent(core::NodeId node) {
    return *agents_.at(static_cast<std::size_t>(node));
  }
  /// Aggregated control-plane counters across all agents, with the
  /// service's authoritative placement log attached.
  core::ControlPlaneStats control_plane_stats() const;
  /// Populated when TestbedConfig::analyze is set; nullptr otherwise. Holds
  /// the happens-before tracker and invariant checker; render its report
  /// with analyzer()->render(os) after the run.
  analysis::Analyzer* analyzer() { return analyzer_.get(); }
  /// Populated when TestbedConfig::trace is set; nullptr otherwise. Export
  /// with obs::write_chrome_trace_file after the run. kCudaBaseline runs no
  /// GpuScheduler, so its trace has no op spans and no util/queue_depth.
  obs::Tracer* tracer() { return tracer_.get(); }
  /// The deployment's metrics registry (always available). Control-plane,
  /// scheduler, daemon, and device instruments are registered under the
  /// node{N}/... and control_plane/... namespaces.
  obs::Registry& metrics_registry() { return registry_; }
  /// Populated when TestbedConfig::stream is set; nullptr otherwise.
  obs::TimeSeries* timeseries() { return timeseries_.get(); }
  /// Populated by attach_slo(); nullptr otherwise.
  obs::SloWatchdog* watchdog() { return watchdog_.get(); }
  /// Installs the SLO watchdog (requires TestbedConfig::stream). Each
  /// closed window is evaluated against `rules`; alerts bump slo/...
  /// counters, emit trace instants (when tracing), and reach the sink.
  void attach_slo(std::vector<obs::SloRule> rules);
  /// Called with every closed window (its alerts and — when
  /// TestbedConfig::exemplars is set — the window's tail-exemplar ids) as
  /// it closes — the streaming exporter hook. The Window reference is valid
  /// for the call.
  using StreamSink = std::function<void(const obs::Window&,
                                        const std::vector<obs::SloAlert>&,
                                        const std::vector<std::string>&)>;
  void set_stream_sink(StreamSink sink);
  /// Injects a wall-clock source (milliseconds, any epoch) for the
  /// sim/wall_ms_per_window gauge. Only the bench layer installs this —
  /// src code never reads the wall clock (determinism lint DL001) and the
  /// default stream stays byte-reproducible without it.
  void set_wall_clock(std::function<double()> wall_ms);
  /// Closes the trailing window after the run drains (the weak tick dies
  /// with the last real event). Partial if the tail is shorter than a full
  /// window. No-op when streaming is off or nothing is pending.
  void finalize_stream();
  /// Request-completion hook for per-tenant SLO instruments (completed /
  /// errors counters, response/queue/slowdown histograms under
  /// tenant/<name>/...). No-op unless streaming is on.
  void observe_request(const std::string& tenant, sim::SimTime response,
                       sim::SimTime service, int errors);
  cuda::CudaRuntime& runtime(core::NodeId node) {
    return *runtimes_.at(static_cast<std::size_t>(node));
  }
  gpu::GpuDevice& device(core::Gid gid);
  int gpu_count() const { return service_->gmap().size(); }
  int node_count() const { return static_cast<int>(runtimes_.size()); }

  /// Cumulative GPU service (seconds) attained by a tenant across the whole
  /// deployment — the quantity Jain's fairness is computed over. In
  /// scheduled modes this comes from the per-device Request Monitors; in
  /// baseline mode the testbed observes device ops directly.
  double attained_service_s(const std::string& tenant) const;

 private:
  /// Link model between a node's agent and the service host.
  rpc::LinkModel control_link_for(core::NodeId node) const;
  /// Registers the standing registry instruments (gauges over component
  /// counters, the per-agent placement-latency histograms).
  void register_metrics();
  /// Creates the TimeSeries, registers the sim/... self-metrics, and arms
  /// the weak stream tick. Called from the constructor when
  /// TestbedConfig::stream is set.
  void init_stream();
  /// Registers the sim/... kernel self-metrics (fiber counters, event-queue
  /// occupancy and traffic, SmallFn heap fallbacks) — only when streaming is
  /// on, so the metrics CSV of a non-streaming run is untouched.
  void register_sim_metrics();
  /// One stream tick: close the current window, then weakly re-arm.
  void stream_tick();
  /// Closes one window ending now: watchdog evaluation, slo/... counters,
  /// trace instants, sink delivery.
  void emit_window(bool partial);

  sim::Simulation& sim_;
  TestbedConfig config_;
  /// Declared before every other component so it is destroyed last: the
  /// analyzer's sim hooks must stay installed while member teardown (e.g.
  /// channel mailbox destruction) still fires observer callbacks.
  std::unique_ptr<analysis::Analyzer> analyzer_;
  std::vector<std::vector<std::unique_ptr<gpu::GpuDevice>>> devices_;
  std::vector<std::unique_ptr<cuda::CudaRuntime>> runtimes_;
  /// GIDs per (node, local device), from the gPool Creator.
  std::vector<std::vector<core::Gid>> node_gids_;
  std::unique_ptr<core::PlacementService> service_;
  /// Declared after service_: agents hold channels the service owns.
  std::vector<std::unique_ptr<core::MapperAgent>> agents_;
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Registry registry_;
  std::unique_ptr<obs::TimeSeries> timeseries_;
  std::unique_ptr<obs::SloWatchdog> watchdog_;
  StreamSink stream_sink_;
  std::function<double()> wall_clock_ms_;
  double last_wall_ms_ = 0.0;
  /// Trace track for SLO alert instants, created on first alert.
  int slo_track_ = -1;
  std::vector<std::unique_ptr<backend::BackendDaemon>> daemons_;
  std::uint64_t next_app_id_ = 1;
  // Baseline-mode service accounting (no schedulers exist to measure it).
  sim::FlatMap<cuda::ProcessId, std::string> baseline_pid_tenant_;
  sim::FlatMap<std::string, sim::SimTime> baseline_tenant_service_;
  // Physical wire pairs, one per ordered node pair, precomputed at
  // construction when shared_network is on ([origin * nodes + dest]; the
  // old lazy map did a lookup per binding on the hot path).
  std::vector<std::pair<std::shared_ptr<rpc::SharedLink>,
                        std::shared_ptr<rpc::SharedLink>>>
      wires_;
};

}  // namespace strings::workloads
