#include "workloads/scenario_config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "obs/export.hpp"
#include "obs/prof.hpp"
#include "workloads/profiles.hpp"

namespace strings::workloads {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw ScenarioParseError("scenario line " + std::to_string(line) + ": " +
                           what);
}

int to_int(int line, const std::string& v) {
  try {
    std::size_t pos = 0;
    const int out = std::stoi(v, &pos);
    if (pos != v.size()) fail(line, "trailing characters in integer '" + v + "'");
    return out;
  } catch (const ScenarioParseError&) {
    throw;
  } catch (...) {
    fail(line, "not an integer: '" + v + "'");
  }
}

double to_double(int line, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size()) fail(line, "trailing characters in number '" + v + "'");
    return out;
  } catch (const ScenarioParseError&) {
    throw;
  } catch (...) {
    fail(line, "not a number: '" + v + "'");
  }
}

bool to_bool(int line, const std::string& v) {
  const std::string l = lower(v);
  if (l == "true" || l == "1" || l == "yes" || l == "on") return true;
  if (l == "false" || l == "0" || l == "no" || l == "off") return false;
  fail(line, "not a boolean: '" + v + "'");
}

Mode to_mode(int line, const std::string& v) {
  const std::string l = lower(v);
  if (l == "cuda") return Mode::kCudaBaseline;
  if (l == "rain") return Mode::kRain;
  if (l == "strings") return Mode::kStrings;
  if (l == "design2") return Mode::kDesign2;
  fail(line, "unknown mode '" + v + "' (cuda|rain|strings|design2)");
}

std::vector<std::vector<gpu::DeviceProps>> to_topology(int line,
                                                       const std::string& v) {
  const std::string l = lower(v);
  if (l == "small") return small_server();
  if (l == "supernode") return supernode();
  // "NxM": N homogeneous nodes with M reference GPUs each.
  const auto x = l.find('x');
  if (x != std::string::npos) {
    const int nodes = to_int(line, l.substr(0, x));
    const int gpus = to_int(line, l.substr(x + 1));
    if (nodes < 1 || gpus < 1) fail(line, "topology sizes must be >= 1");
    std::vector<std::vector<gpu::DeviceProps>> topo;
    for (int n = 0; n < nodes; ++n) {
      topo.emplace_back(static_cast<std::size_t>(gpus),
                        gpu::reference_device());
    }
    return topo;
  }
  fail(line, "unknown topology '" + v + "' (small|supernode|NxM)");
}

rpc::LinkModel to_link(int line, const std::string& v) {
  const std::string l = lower(v);
  if (l == "numa") return rpc::LinkModel::numa_like();
  if (l == "gige") return rpc::LinkModel::gigabit_ethernet();
  if (l == "shm") return rpc::LinkModel::shared_memory();
  fail(line, "unknown link '" + v + "' (numa|gige|shm)");
}

}  // namespace

ScenarioConfig parse_scenario(std::istream& in) {
  ScenarioConfig cfg;
  ArrivalConfig* stream = nullptr;
  OpenLoopTenant* tenant = nullptr;
  std::string raw;
  int line = 0;
  std::uint32_t default_seed = 1;

  while (std::getline(in, raw)) {
    ++line;
    // Strip comments, then whitespace.
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string text = trim(raw);
    if (text.empty()) continue;

    if (text == "[stream]") {
      cfg.streams.emplace_back();
      stream = &cfg.streams.back();
      tenant = nullptr;
      stream->seed = default_seed++;
      continue;
    }
    if (text == "[tenant]") {
      cfg.tenants.emplace_back();
      tenant = &cfg.tenants.back();
      stream = nullptr;
      tenant->seed = default_seed++;
      tenant->name = "tenant" + std::to_string(cfg.tenants.size());
      continue;
    }
    if (text.front() == '[') fail(line, "unknown section " + text);

    const auto eq = text.find('=');
    if (eq == std::string::npos) fail(line, "expected key = value");
    const std::string key = lower(trim(text.substr(0, eq)));
    const std::string value = trim(text.substr(eq + 1));
    if (value.empty()) fail(line, "empty value for '" + key + "'");

    if (stream == nullptr && tenant == nullptr) {
      // Global (testbed) section.
      if (key == "mode") {
        cfg.testbed.mode = to_mode(line, value);
      } else if (key == "topology") {
        cfg.testbed.nodes = to_topology(line, value);
      } else if (key == "balancing") {
        cfg.testbed.balancing_policy = value;
      } else if (key == "feedback") {
        cfg.testbed.feedback_policy = value;
      } else if (key == "device_policy") {
        cfg.testbed.device_policy = value;
      } else if (key == "mqfq_t") {
        // Keys are lowercased, so this accepts the documented `mqfq_T`.
        const double ms = to_double(line, value);
        if (ms <= 0) fail(line, "mqfq_T must be positive");
        cfg.testbed.mqfq.throttle_T = static_cast<sim::SimTime>(ms * 1e6);
      } else if (key == "mqfq_sticky_ms") {
        const double ms = to_double(line, value);
        if (ms < 0) fail(line, "mqfq_sticky_ms must be non-negative");
        cfg.testbed.mqfq.sticky_window = static_cast<sim::SimTime>(ms * 1e6);
      } else if (key == "remote_link") {
        cfg.testbed.remote_link = to_link(line, value);
      } else if (key == "shared_network") {
        cfg.testbed.shared_network = to_bool(line, value);
      } else if (key == "epoch_ms") {
        cfg.testbed.sched_epoch = sim::msec(to_int(line, value));
      } else if (key == "trace") {
        cfg.testbed.trace = to_bool(line, value);
      } else if (key == "analyze") {
        cfg.testbed.analyze = to_bool(line, value);
      } else if (key == "stream") {
        cfg.testbed.stream = to_bool(line, value);
      } else if (key == "stream_window_ms") {
        const int ms = to_int(line, value);
        if (ms <= 0) fail(line, "stream_window_ms must be positive");
        cfg.testbed.stream_window = sim::msec(ms);
      } else if (key == "cpu_fallback") {
        cfg.testbed.cpu_fallback_devices = to_bool(line, value);
      } else if (key == "placement") {
        // centralized | distributed
        try {
          cfg.testbed.control_plane.placement =
              core::parse_placement_mode(value);
        } catch (const std::invalid_argument& e) {
          fail(line, e.what());
        }
      } else if (key == "control_transport") {
        // direct | zero_cost | data_plane
        try {
          cfg.testbed.control_plane.transport =
              core::parse_control_transport(value);
        } catch (const std::invalid_argument& e) {
          fail(line, e.what());
        }
      } else if (key == "service_node") {
        cfg.testbed.control_plane.service_node = to_int(line, value);
      } else if (key == "refresh_epoch_ms") {
        cfg.testbed.control_plane.refresh_epoch =
            sim::msec(to_int(line, value));
      } else if (key == "feedback_batch") {
        cfg.testbed.control_plane.feedback_batch_size = to_int(line, value);
      } else if (key == "feedback_flush_ms") {
        cfg.testbed.control_plane.feedback_max_delay =
            sim::msec(to_int(line, value));
      } else if (key == "sync_mode") {
        // pull | push
        try {
          cfg.testbed.control_plane.sync_mode = core::parse_sync_mode(value);
        } catch (const std::invalid_argument& e) {
          fail(line, e.what());
        }
      } else {
        fail(line, "unknown global key '" + key + "'");
      }
    } else if (tenant != nullptr) {
      if (key == "name") {
        tenant->name = value;
      } else if (key == "app") {
        profile(value);  // validates; throws std::invalid_argument if bad
        tenant->app = value;
      } else if (key == "origin") {
        tenant->origin = to_int(line, value);
      } else if (key == "arrival") {
        const std::string l = lower(value);
        if (l == "poisson") {
          tenant->arrival = ArrivalKind::kPoisson;
        } else if (l == "bursty") {
          tenant->arrival = ArrivalKind::kBursty;
        } else if (l == "trace") {
          tenant->arrival = ArrivalKind::kTrace;
        } else {
          fail(line, "unknown arrival '" + value + "' (poisson|bursty|trace)");
        }
      } else if (key == "rate") {
        tenant->rate_rps = to_double(line, value);
        if (tenant->rate_rps <= 0) fail(line, "rate must be positive");
      } else if (key == "burst_factor") {
        tenant->burst_factor = to_double(line, value);
        if (tenant->burst_factor <= 0) {
          fail(line, "burst_factor must be positive");
        }
      } else if (key == "burst_on_ms") {
        tenant->burst_on = sim::msec(to_int(line, value));
        if (tenant->burst_on <= 0) fail(line, "burst_on_ms must be positive");
      } else if (key == "burst_off_ms") {
        tenant->burst_off = sim::msec(to_int(line, value));
        if (tenant->burst_off <= 0) {
          fail(line, "burst_off_ms must be positive");
        }
      } else if (key == "trace_file") {
        tenant->trace_file = value;
      } else if (key == "requests") {
        tenant->requests = to_int(line, value);
        if (tenant->requests <= 0) fail(line, "requests must be positive");
      } else if (key == "attach_ms") {
        tenant->attach_at = sim::msec(to_int(line, value));
      } else if (key == "detach_ms") {
        tenant->detach_at = sim::msec(to_int(line, value));
      } else if (key == "seed") {
        tenant->seed = static_cast<std::uint64_t>(to_int(line, value));
      } else if (key == "weight") {
        tenant->weight = to_double(line, value);
      } else {
        fail(line, "unknown tenant key '" + key + "'");
      }
    } else {
      if (key == "app") {
        profile(value);  // validates; throws std::invalid_argument if bad
        stream->app = value;
      } else if (key == "origin") {
        stream->origin = to_int(line, value);
      } else if (key == "requests") {
        stream->requests = to_int(line, value);
      } else if (key == "lambda_scale") {
        stream->lambda_scale = to_double(line, value);
      } else if (key == "server_threads") {
        stream->server_threads = to_int(line, value);
      } else if (key == "seed") {
        stream->seed = static_cast<std::uint32_t>(to_int(line, value));
      } else if (key == "tenant") {
        stream->tenant = value;
      } else if (key == "weight") {
        stream->tenant_weight = to_double(line, value);
      } else {
        fail(line, "unknown stream key '" + key + "'");
      }
    }
  }

  if (cfg.streams.empty() && cfg.tenants.empty()) {
    throw ScenarioParseError(
        "scenario defines no [stream] or [tenant] sections");
  }
  const int node_count = static_cast<int>(
      (cfg.testbed.nodes.empty() ? small_server() : cfg.testbed.nodes)
          .size());
  if (cfg.testbed.control_plane.service_node < 0 ||
      cfg.testbed.control_plane.service_node >= node_count) {
    throw ScenarioParseError("service_node out of range for topology");
  }
  for (std::size_t i = 0; i < cfg.streams.size(); ++i) {
    if (cfg.streams[i].app.empty()) {
      throw ScenarioParseError("stream " + std::to_string(i + 1) +
                               " has no app");
    }
    if (cfg.streams[i].origin < 0 || cfg.streams[i].origin >= node_count) {
      throw ScenarioParseError("stream " + std::to_string(i + 1) +
                               " origin out of range");
    }
  }
  for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
    const OpenLoopTenant& t = cfg.tenants[i];
    const std::string who = "tenant " + std::to_string(i + 1);
    if (t.app.empty()) throw ScenarioParseError(who + " has no app");
    if (t.origin < 0 || t.origin >= node_count) {
      throw ScenarioParseError(who + " origin out of range");
    }
    if (t.arrival == ArrivalKind::kTrace && t.trace_file.empty()) {
      throw ScenarioParseError(who + " uses arrival=trace with no trace_file");
    }
    if (t.detach_at >= 0 && t.detach_at <= t.attach_at) {
      throw ScenarioParseError(who + " detach_ms must exceed attach_ms");
    }
  }
  return cfg;
}

ScenarioConfig parse_scenario(const std::string& text) {
  std::istringstream in(text);
  return parse_scenario(in);
}

ScenarioConfig load_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ScenarioParseError("cannot open scenario file: " + path);
  return parse_scenario(in);
}

RunResult run(const ScenarioConfig& cfg, const RunArtifacts& artifacts,
              sim::SimTime horizon) {
  ScenarioConfig run_cfg = cfg;
  if (!artifacts.trace_path.empty() || !artifacts.prof_path.empty()) {
    run_cfg.testbed.trace = true;
  }
  if (!artifacts.analysis_path.empty()) run_cfg.testbed.analyze = true;
  if (!artifacts.stream_path.empty() || !artifacts.slo_rules_path.empty()) {
    run_cfg.testbed.stream = true;
  }
  if (artifacts.exemplar_k > 0) {
    // Exemplars need the full pipeline: request traces for the causal
    // timelines, streaming windows for the ids, forensics for the culprit
    // attribution (exemplars > 0 implies forensics in the Testbed).
    run_cfg.testbed.trace = true;
    run_cfg.testbed.stream = true;
    run_cfg.testbed.exemplars = artifacts.exemplar_k;
  }
  sim::Simulation sim;
  Testbed bed(sim, run_cfg.testbed);
  // Streaming exporter: open (and fail) before the run, flush per window so
  // a live consumer (tools/strings_top --follow) sees each line as it
  // closes.
  std::ofstream stream_out;
  if (!artifacts.stream_path.empty()) {
    stream_out.open(artifacts.stream_path);
    if (!stream_out) {
      throw std::runtime_error("cannot write stream file: " +
                               artifacts.stream_path);
    }
  }
  if (!artifacts.slo_rules_path.empty()) {
    bed.attach_slo(obs::load_slo_rules(artifacts.slo_rules_path));
  }
  if (artifacts.wall_clock_ms) bed.set_wall_clock(artifacts.wall_clock_ms);
  if (stream_out.is_open()) {
    bed.set_stream_sink([&stream_out](const obs::Window& w,
                                      const std::vector<obs::SloAlert>& a,
                                      const std::vector<std::string>& ex) {
      obs::write_stream_line(stream_out, w,
                             a.empty() ? "" : obs::render_alerts_json(a), ex);
      stream_out.flush();
    });
  }
  auto stream_stats = start_streams(bed, run_cfg.streams);
  auto tenant_stats = start_open_loop(bed, run_cfg.tenants);
  if (horizon == sim::kNever) {
    sim.run();
  } else {
    sim.run_until(horizon);
  }
  RunResult result;
  result.streams = *stream_stats;
  result.streams.insert(result.streams.end(), tenant_stats->begin(),
                        tenant_stats->end());
  for (const StreamStats& st : result.streams) {
    result.tenant_service_s[st.tenant] = bed.attained_service_s(st.tenant);
    result.makespan = std::max(result.makespan, st.makespan);
  }
  if (horizon != sim::kNever) result.makespan = horizon;
  result.control_plane = bed.control_plane_stats();
  for (core::Gid g = 0; g < bed.gpu_count(); ++g) {
    result.device_counters.push_back(bed.device(g).counters());
    if (run_cfg.testbed.trace && result.makespan > 0) {
      result.device_util.push_back(
          bed.device(g).utilization().summary(result.makespan));
    }
  }
  // Close the trailing window (the weak tick dies with the last real
  // event) before any export reads the registry or the alert log.
  bed.finalize_stream();
  if (bed.watchdog() != nullptr) {
    result.slo_warns = bed.watchdog()->warn_count();
    result.slo_fails = bed.watchdog()->fail_count();
    result.slo_hard_violations = bed.watchdog()->hard_violations();
    if (!artifacts.alerts_path.empty()) {
      std::ofstream out(artifacts.alerts_path);
      if (!out) {
        throw std::runtime_error("cannot write alerts file: " +
                                 artifacts.alerts_path);
      }
      obs::write_alerts_jsonl(out, bed.watchdog()->alerts());
    }
  }
  const bool want_prof = !artifacts.prof_path.empty();
  const bool want_exemplars =
      artifacts.exemplar_k > 0 && stream_out.is_open();
  if ((want_prof || want_exemplars) && bed.tracer() != nullptr) {
    // Profile before the metrics export so prof/... instruments (and the
    // interference/... gauges when forensics is on) land in the CSV too.
    const obs::prof::Report report =
        obs::prof::profile(obs::prof::input_from_tracer(*bed.tracer()));
    if (want_prof) result.prof_incomplete_requests = report.incomplete_requests;
    obs::prof::export_to_registry(report, bed.metrics_registry());
    if (want_prof) {
      std::ofstream out(artifacts.prof_path);
      if (!out) {
        throw std::runtime_error("cannot write prof report: " +
                                 artifacts.prof_path);
      }
      obs::prof::render(report, out);
    }
    if (want_exemplars) {
      // The forensics ring is only complete once the run drained, so the
      // full exemplar lines land after the final window line — interleaved
      // in the stream for live consumers, duplicated to a sidecar for
      // schema checks and byte-compare fixtures.
      obs::prof::write_exemplars_jsonl(report, stream_out);
      stream_out.flush();
      const std::string sidecar =
          artifacts.stream_path + ".exemplars.jsonl";
      std::ofstream ex_out(sidecar);
      if (!ex_out) {
        throw std::runtime_error("cannot write exemplars file: " + sidecar);
      }
      obs::prof::write_exemplars_jsonl(report, ex_out);
    }
  }
  if (!artifacts.trace_path.empty() && bed.tracer() != nullptr &&
      !obs::write_chrome_trace_file(*bed.tracer(), artifacts.trace_path)) {
    throw std::runtime_error("cannot write trace file: " +
                             artifacts.trace_path);
  }
  if (!artifacts.metrics_path.empty() &&
      !obs::write_metrics_csv_file(bed.metrics_registry(),
                                   artifacts.metrics_path)) {
    throw std::runtime_error("cannot write metrics file: " +
                             artifacts.metrics_path);
  }
  const std::string& analysis_path = artifacts.analysis_path;
  if (bed.analyzer() != nullptr) {
    result.invariant_violations = bed.analyzer()->report().invariant_violations();
    result.logical_races = bed.analyzer()->report().logical_races();
    if (!analysis_path.empty()) {
      std::ofstream out(analysis_path);
      if (!out) {
        throw std::runtime_error("cannot write analysis report: " +
                                 analysis_path);
      }
      bed.analyzer()->render(out);
    }
  }
  // Unwind live processes (requests in flight at the horizon, idle
  // daemons) while the testbed they reference is still alive.
  sim.terminate_processes();
  return result;
}

}  // namespace strings::workloads
