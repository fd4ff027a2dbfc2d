#include "workloads/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace strings::workloads {

namespace {

/// splitmix64 (Steele et al.): tiny, full-period, and — unlike the standard
/// library distributions — identical bit-for-bit on every platform.
struct SplitMix64 {
  std::uint64_t state = 0;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform on (0, 1] — never 0, so log() below is always finite.
  double next_unit() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
};

/// Exponential gap with the given mean, floored at 1 ns (paper eq. 4 shape).
sim::SimTime exp_gap(SplitMix64& rng, double mean_ns) {
  return std::max<sim::SimTime>(
      1, static_cast<sim::SimTime>(-mean_ns * std::log(rng.next_unit())));
}

std::vector<sim::SimTime> trace_schedule(const OpenLoopTenant& t) {
  std::ifstream in(t.trace_file);
  if (!in) {
    throw std::runtime_error("arrivals: cannot open trace file: " +
                             t.trace_file);
  }
  std::vector<sim::SimTime> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    double offset_ms = 0.0;
    if (!(ls >> offset_ms) || offset_ms < 0.0) {
      throw std::runtime_error("arrivals: bad offset at " + t.trace_file +
                               ":" + std::to_string(lineno));
    }
    const sim::SimTime at =
        t.attach_at + static_cast<sim::SimTime>(offset_ms * 1e6);
    if (t.detach_at >= 0 && at >= t.detach_at) break;
    out.push_back(at);
    if (static_cast<int>(out.size()) >= t.requests) break;
  }
  return out;
}

}  // namespace

std::uint64_t tenant_stream_seed(std::uint64_t seed, const std::string& name) {
  // FNV-1a over the name, folded with the scenario seed, then one splitmix
  // scramble so nearby seeds map to distant streams.
  std::uint64_t h = 14695981039346656037ull ^ seed;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  SplitMix64 s{h};
  return s.next();
}

std::vector<sim::SimTime> arrival_schedule(const OpenLoopTenant& t) {
  if (t.requests <= 0) {
    throw std::invalid_argument("arrivals: requests must be positive");
  }
  if (t.attach_at < 0) {
    throw std::invalid_argument("arrivals: attach_at must be non-negative");
  }
  if (t.detach_at >= 0 && t.detach_at <= t.attach_at) {
    throw std::invalid_argument("arrivals: detach_at must exceed attach_at");
  }
  if (t.arrival == ArrivalKind::kTrace) return trace_schedule(t);
  if (t.rate_rps <= 0.0) {
    throw std::invalid_argument("arrivals: rate must be positive");
  }

  SplitMix64 rng{tenant_stream_seed(t.seed, t.name)};
  const double base_mean_ns = 1e9 / t.rate_rps;
  std::vector<sim::SimTime> out;
  out.reserve(static_cast<std::size_t>(t.requests));
  sim::SimTime now = t.attach_at;

  if (t.arrival == ArrivalKind::kPoisson) {
    while (static_cast<int>(out.size()) < t.requests) {
      now += exp_gap(rng, base_mean_ns);
      if (t.detach_at >= 0 && now >= t.detach_at) break;
      out.push_back(now);
    }
    return out;
  }

  // Bursty MMPP-2: a two-state modulating chain with exponential dwell
  // times. Quiet (OFF) state emits at rate_rps, the burst (ON) state at
  // rate_rps * burst_factor. Gaps are memoryless, so redrawing the gap at a
  // state switch keeps the process exact.
  if (t.burst_factor <= 0.0 || t.burst_on <= 0 || t.burst_off <= 0) {
    throw std::invalid_argument("arrivals: bad bursty (MMPP) parameters");
  }
  bool on = false;
  sim::SimTime phase_end =
      now + exp_gap(rng, static_cast<double>(t.burst_off));
  while (static_cast<int>(out.size()) < t.requests) {
    const double mean_ns = on ? base_mean_ns / t.burst_factor : base_mean_ns;
    const sim::SimTime gap = exp_gap(rng, mean_ns);
    if (now + gap > phase_end) {
      now = phase_end;
      on = !on;
      phase_end = now + exp_gap(
          rng, static_cast<double>(on ? t.burst_on : t.burst_off));
      continue;
    }
    now += gap;
    if (t.detach_at >= 0 && now >= t.detach_at) break;
    out.push_back(now);
  }
  return out;
}

std::shared_ptr<std::vector<StreamStats>> start_open_loop(
    Testbed& bed, const std::vector<OpenLoopTenant>& tenants) {
  sim::Simulation& sim = bed.simulation();
  auto stats = std::make_shared<std::vector<StreamStats>>(tenants.size());

  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const OpenLoopTenant& cfg = tenants[i];
    (*stats)[i].app = cfg.app;
    (*stats)[i].tenant = cfg.name;
    auto desc = std::make_shared<const backend::AppDescriptor>(
        backend::AppDescriptor{.app_type = cfg.app,
                               .tenant = cfg.name,
                               .tenant_weight = cfg.weight,
                               .origin_node = cfg.origin});
    auto schedule = std::make_shared<const std::vector<sim::SimTime>>(
        arrival_schedule(cfg));

    // One generator fiber per tenant walks the precomputed schedule and
    // spawns a short-lived fiber per request: open loop, so arrivals never
    // wait for earlier requests to finish.
    sim.spawn(
        "ol-gen/" + cfg.name,
        [&sim, &bed, desc, prof = &profile(cfg.app),
         device = cfg.programmed_device, schedule, row = &(*stats)[i]] {
          for (std::size_t k = 0; k < schedule->size(); ++k) {
            const sim::SimTime at = (*schedule)[k];
            if (at > sim.now()) sim.wait_for(at - sim.now());
            sim.spawn("ol/" + desc->tenant + "/" + std::to_string(k),
                      [&bed, desc, prof, device, row, arrived = at] {
                        serve_request(bed, *desc, *prof, device, arrived,
                                      *row);
                      });
          }
        });
  }
  return stats;
}

std::vector<StreamStats> run_open_loop(
    Testbed& bed, const std::vector<OpenLoopTenant>& tenants) {
  auto stats = start_open_loop(bed, tenants);
  bed.simulation().run();
  return std::move(*stats);
}

}  // namespace strings::workloads
