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

/// `v`, or a line error naming `key` when `v` is not positive.
template <typename T>
T positive(int line, const std::string& key, T v) {
  if (v <= 0) fail(line, key + " must be positive");
  return v;
}

/// `v`, or a line error naming `key` when `v` is negative.
template <typename T>
T non_negative(int line, const std::string& key, T v) {
  if (v < 0) fail(line, key + " must be non-negative");
  return v;
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

/// Parses one of the keys [stream] and [tenant] share (app, origin,
/// requests, seed, weight) into `section`; false when `key` is none of
/// them. `weight` is the section's tenant-weight field.
template <typename Section>
bool parse_request_key(int line, const std::string& key,
                       const std::string& value, Section& section,
                       double& weight) {
  if (key == "app") {
    profile(value);  // validates; throws std::invalid_argument if bad
    section.app = value;
  } else if (key == "origin") {
    section.origin = to_int(line, value);
  } else if (key == "requests") {
    section.requests = positive(line, key, to_int(line, value));
  } else if (key == "seed") {
    section.seed = static_cast<decltype(section.seed)>(to_int(line, value));
  } else if (key == "weight") {
    weight = positive(line, key, to_double(line, value));
  } else {
    return false;
  }
  return true;
}

/// Opens a run artifact for writing; throws std::runtime_error naming it.
std::ofstream open_artifact(const std::string& path, const std::string& what) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + what + ": " + path);
  return out;
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
        const double ms = positive(line, "mqfq_T", to_double(line, value));
        cfg.testbed.mqfq.throttle_T = static_cast<sim::SimTime>(ms * 1e6);
      } else if (key == "mqfq_sticky_ms") {
        const double ms = non_negative(line, key, to_double(line, value));
        cfg.testbed.mqfq.sticky_window = static_cast<sim::SimTime>(ms * 1e6);
      } else if (key == "remote_link") {
        cfg.testbed.remote_link = to_link(line, value);
      } else if (key == "shared_network") {
        cfg.testbed.shared_network = to_bool(line, value);
      } else if (key == "epoch_ms") {
        cfg.testbed.sched_epoch =
            sim::msec(positive(line, key, to_int(line, value)));
      } else if (key == "stream_window_ms") {
        cfg.testbed.stream_window =
            sim::msec(positive(line, key, to_int(line, value)));
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
            sim::msec(non_negative(line, key, to_int(line, value)));
      } else if (key == "feedback_batch") {
        cfg.testbed.control_plane.feedback_batch_size =
            positive(line, key, to_int(line, value));
      } else if (key == "feedback_flush_ms") {
        cfg.testbed.control_plane.feedback_max_delay =
            sim::msec(non_negative(line, key, to_int(line, value)));
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
        tenant->rate_rps = positive(line, key, to_double(line, value));
      } else if (key == "burst_factor") {
        tenant->burst_factor = positive(line, key, to_double(line, value));
      } else if (key == "burst_on_ms") {
        tenant->burst_on = sim::msec(positive(line, key, to_int(line, value)));
      } else if (key == "burst_off_ms") {
        tenant->burst_off = sim::msec(positive(line, key, to_int(line, value)));
      } else if (key == "trace_file") {
        tenant->trace_file = value;
      } else if (key == "attach_ms") {
        tenant->attach_at =
            sim::msec(non_negative(line, key, to_int(line, value)));
      } else if (key == "detach_ms") {
        tenant->detach_at = sim::msec(to_int(line, value));
      } else if (!parse_request_key(line, key, value, *tenant,
                                    tenant->weight)) {
        fail(line, "unknown tenant key '" + key + "'");
      }
    } else {
      if (key == "lambda_scale") {
        stream->lambda_scale = positive(line, key, to_double(line, value));
      } else if (key == "server_threads") {
        stream->server_threads = positive(line, key, to_int(line, value));
      } else if (key == "tenant") {
        stream->tenant = value;
      } else if (!parse_request_key(line, key, value, *stream,
                                    stream->tenant_weight)) {
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
  const auto check_app_and_origin = [node_count](const std::string& who,
                                                 const auto& section) {
    if (section.app.empty()) throw ScenarioParseError(who + " has no app");
    if (section.origin < 0 || section.origin >= node_count) {
      throw ScenarioParseError(who + " origin out of range");
    }
  };
  for (std::size_t i = 0; i < cfg.streams.size(); ++i) {
    check_app_and_origin("stream " + std::to_string(i + 1), cfg.streams[i]);
  }
  for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
    const OpenLoopTenant& t = cfg.tenants[i];
    const std::string who = "tenant " + std::to_string(i + 1);
    check_app_and_origin(who, t);
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
  sim::Simulation sim;
  Testbed bed(sim, run_cfg.testbed);
  // Streaming exporter: open (and fail) before the run, flush per window so
  // a live consumer (tools/strings_top --follow) sees each line as it
  // closes.
  std::ofstream stream_out;
  if (!artifacts.stream_path.empty()) {
    stream_out = open_artifact(artifacts.stream_path, "stream file");
    bed.set_stream_sink([&stream_out](const obs::Window& w,
                                      const std::vector<obs::SloAlert>& a,
                                      const std::vector<std::string>& ex) {
      obs::write_stream_line(stream_out, w,
                             a.empty() ? "" : obs::render_alerts_json(a), ex);
      stream_out.flush();
    });
  }
  if (!artifacts.slo_rules_path.empty()) {
    bed.attach_slo(obs::load_slo_rules(artifacts.slo_rules_path));
  }
  if (artifacts.wall_clock_ms) bed.set_wall_clock(artifacts.wall_clock_ms);
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
    if (bed.config().trace && result.makespan > 0) {
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
      std::ofstream out = open_artifact(artifacts.alerts_path, "alerts file");
      obs::write_alerts_jsonl(out, bed.watchdog()->alerts());
    }
  }
  const bool want_prof = !artifacts.prof_path.empty();
  const bool want_exemplars =
      bed.config().exemplars > 0 && stream_out.is_open();
  if ((want_prof || want_exemplars) && bed.tracer() != nullptr) {
    // Profile before the metrics export so prof/... instruments (and the
    // interference/... gauges when forensics is on) land in the CSV too.
    const obs::prof::Report report =
        obs::prof::profile(obs::prof::input_from_tracer(*bed.tracer()));
    if (want_prof) result.prof_incomplete_requests = report.incomplete_requests;
    obs::prof::export_to_registry(report, bed.metrics_registry());
    if (want_prof) {
      std::ofstream out = open_artifact(artifacts.prof_path, "prof report");
      obs::prof::render(report, out);
    }
    if (want_exemplars) {
      // The forensics ring is only complete once the run drained, so the
      // full exemplar lines land after the final window line — interleaved
      // in the stream for live consumers, duplicated to a sidecar for
      // schema checks and byte-compare fixtures.
      obs::prof::write_exemplars_jsonl(report, stream_out);
      stream_out.flush();
      std::ofstream ex_out = open_artifact(
          artifacts.stream_path + ".exemplars.jsonl", "exemplars file");
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
  if (bed.analyzer() != nullptr) {
    result.invariant_violations = bed.analyzer()->report().invariant_violations();
    result.logical_races = bed.analyzer()->report().logical_races();
    if (!artifacts.analysis_path.empty()) {
      std::ofstream out =
          open_artifact(artifacts.analysis_path, "analysis report");
      bed.analyzer()->render(out);
    }
  }
  // Unwind live processes (requests in flight at the horizon, idle
  // daemons) while the testbed they reference is still alive.
  sim.terminate_processes();
  return result;
}

}  // namespace strings::workloads
