#include "obs/prof.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <utility>

#include "obs/json.hpp"
#include "obs/number.hpp"
#include "simcore/flat_map.hpp"

namespace strings::obs::prof {

namespace {

bool is_frontend_phase(ReqPhase p) {
  switch (p) {
    case ReqPhase::kIssue:
    case ReqPhase::kBind:
    case ReqPhase::kMarshal:
    case ReqPhase::kTransit:
    case ReqPhase::kComplete:
      return true;
    default:
      return false;
  }
}

/// The concrete resource blamed when `b` dominates a request's wall-clock.
std::string resource_for(Bucket b, const ProfRequest& req) {
  switch (b) {
    case Bucket::kFrontend:
      return "frontend.host";
    case Bucket::kBind:
      return "control_plane.placement";
    case Bucket::kMarshal:
      return "frontend.marshal";
    case Bucket::kTransit:
      if (req.node < 0) return "link.unknown";
      if (req.node == req.origin) return "link.local";
      return "link.n" + std::to_string(req.origin) + "-n" +
             std::to_string(req.node);
    case Bucket::kBackendQueue:
      return req.node >= 0 ? "node" + std::to_string(req.node) + ".daemon"
                           : "backend.daemon";
    case Bucket::kDispatchWait:
      return req.gid >= 0 ? "gpu" + std::to_string(req.gid) + ".dispatcher"
                          : "gpu.dispatcher";
    case Bucket::kExecute:
      return req.gid >= 0 ? "gpu" + std::to_string(req.gid) + ".engines"
                          : "gpu.engines";
  }
  return "?";
}

/// True for the buckets forensics attributes to culprit tenants: time the
/// request spent blocked behind someone else's traffic or work.
bool is_wait_bucket(Bucket b) {
  return b == Bucket::kTransit || b == Bucket::kBackendQueue ||
         b == Bucket::kDispatchWait;
}

/// Splits the claimed wait segment [a, b) at the clipped boundaries of the
/// resource's occupant stamps and charges each sub-segment to the first
/// covering stamp's tenant (stamps come pre-sorted by (begin, end, tenant),
/// so the winner is deterministic); uncovered time goes to "(idle)". Every
/// nanosecond of [a, b) is charged exactly once — the conservation property
/// the tests pin falls out of this by construction.
void attribute_segment(const std::vector<OccupantStamp>* timeline,
                       sim::SimTime a, sim::SimTime b,
                       sim::FlatMap<std::string, sim::SimTime>& out) {
  if (b <= a) return;
  if (timeline == nullptr || timeline->empty()) {
    out[kIdleCulprit] += b - a;
    return;
  }
  std::vector<sim::SimTime> pts;
  pts.push_back(a);
  pts.push_back(b);
  for (const auto& s : *timeline) {
    if (s.begin >= b) break;  // sorted by begin: nothing later overlaps
    if (s.end <= a) continue;
    if (s.begin > a) pts.push_back(s.begin);
    if (s.end < b) pts.push_back(s.end);
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    const sim::SimTime x = pts[i], y = pts[i + 1];
    const std::string* winner = nullptr;
    for (const auto& s : *timeline) {
      if (s.begin > x) break;
      if (s.end >= y) {
        winner = &s.tenant;
        break;
      }
    }
    out[winner != nullptr ? *winner : kIdleCulprit] += y - x;
  }
}

}  // namespace

OccupantIndex build_occupant_index(const std::vector<OccupantStamp>& stamps) {
  OccupantIndex idx;
  for (const auto& s : stamps) {
    idx.by_resource[s.resource].push_back(s);
  }
  for (auto& [res, tl] : idx.by_resource) {
    std::sort(tl.begin(), tl.end(),
              [](const OccupantStamp& a, const OccupantStamp& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                if (a.end != b.end) return a.end < b.end;
                return a.tenant < b.tenant;
              });
  }
  return idx;
}

const char* bucket_name(Bucket b) {
  switch (b) {
    case Bucket::kFrontend: return "frontend";
    case Bucket::kBind: return "bind";
    case Bucket::kMarshal: return "marshal";
    case Bucket::kTransit: return "transit";
    case Bucket::kBackendQueue: return "backend_queue";
    case Bucket::kDispatchWait: return "dispatch_wait";
    case Bucket::kExecute: return "execute";
  }
  return "?";
}

int bucket_priority(Bucket b) {
  switch (b) {
    case Bucket::kFrontend: return 0;
    case Bucket::kBind: return 1;
    case Bucket::kMarshal: return 2;
    case Bucket::kTransit: return 3;
    case Bucket::kBackendQueue: return 4;
    case Bucket::kExecute: return 5;
    case Bucket::kDispatchWait: return 6;
  }
  return 0;
}

const std::vector<double>& digest_bounds_ms() {
  static const std::vector<double> bounds = {
      0.1,  0.25, 0.5,  1.0,    2.5,    5.0,    10.0,    25.0,    50.0,
      100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0};
  return bounds;
}

Digest::Digest() : counts(digest_bounds_ms().size() + 1, 0) {}

void Digest::observe(double ms) {
  const auto& bounds = digest_bounds_ms();
  std::size_t i = 0;
  while (i < bounds.size() && ms > bounds[i]) ++i;
  ++counts[i];
  ++count;
  sum_ms += ms;
  if (count == 1 || ms < min_ms) min_ms = ms;
  if (count == 1 || ms > max_ms) max_ms = ms;
}

double Digest::mean() const {
  return count > 0 ? sum_ms / static_cast<double>(count) : 0.0;
}

double Digest::quantile(double q) const {
  if (count == 0) return 0.0;
  const auto& bounds = digest_bounds_ms();
  const double rank = q * static_cast<double>(count);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const std::int64_t next = seen + counts[i];
    if (static_cast<double>(next) >= rank) {
      // Interpolate within the bucket, clamped to the observed range.
      double lo = i == 0 ? 0.0 : bounds[i - 1];
      double hi = i < bounds.size() ? bounds[i] : max_ms;
      if (lo < min_ms) lo = min_ms;
      if (hi > max_ms) hi = max_ms;
      if (hi < lo) hi = lo;
      const double frac =
          counts[i] > 0
              ? (rank - static_cast<double>(seen)) / static_cast<double>(counts[i])
              : 0.0;
      return lo + (hi - lo) * (frac < 0.0 ? 0.0 : (frac > 1.0 ? 1.0 : frac));
    }
    seen = next;
  }
  return max_ms;
}

ProfInput input_from_tracer(const Tracer& tracer) {
  ProfInput in;
  in.meta = tracer.meta();
  for (const auto& [app_id, r] : tracer.requests()) {
    if (r.issued_at < 0) continue;  // lazily created record, never issued
    ProfRequest q;
    q.app_id = app_id;
    q.app_type = r.app_type;
    q.tenant = r.tenant;
    q.weight = r.tenant_weight;
    q.origin = r.origin_node;
    q.gid = r.bound_gid;
    q.node = r.bound_node;
    q.issued_at = r.issued_at;
    q.completed_at = r.completed_at;
    q.steps = r.steps;
    in.requests.push_back(std::move(q));
  }
  for (const auto& e : tracer.events()) {
    if (e.type != Tracer::EventType::kComplete) continue;
    if (e.name != "KL" && e.name != "H2D" && e.name != "D2H") continue;
    for (const auto& a : e.args) {
      if (a.key == "tenant") {
        in.attained_ns[a.value] += e.dur;
        break;
      }
    }
  }
  in.occupants.assign(tracer.occupants().begin(), tracer.occupants().end());
  return in;
}

namespace {

/// The shared sweep. With `occ` non-null, wait-bucket segments are also
/// attributed to culprit tenants against the blamed resource's occupant
/// timeline (dispatch_wait resolves against the engines timeline — nothing
/// occupies the dispatcher itself; what the gated thread is waiting out is
/// whoever holds the engines).
RequestProfile profile_request_impl(const ProfRequest& req,
                                    const OccupantIndex* occ) {
  RequestProfile out;
  out.app_id = req.app_id;
  out.app_type = req.app_type;
  out.tenant = req.tenant;
  out.gid = req.gid;
  const sim::SimTime lo = req.issued_at;
  const sim::SimTime hi = req.completed_at;
  if (hi < lo) return out;
  out.wall = hi - lo;

  // 1. Build phase intervals from the step record. Frontend-side phases
  // (bind, marshal) end at the next frontend-side stamp; cross-side spans
  // (transit, backend_queue) FIFO-match sends to deliveries — the channel
  // is FIFO per connection, so the i-th transit pairs with the i-th
  // delivery even when the frontend pipelines ahead of the backend.
  struct Interval {
    sim::SimTime s, e;
    Bucket b;
  };
  std::vector<Interval> ivs;
  auto push = [&](sim::SimTime s, sim::SimTime e, Bucket b) {
    if (s < lo) s = lo;
    if (e > hi) e = hi;
    if (e > s) ivs.push_back({s, e, b});
  };
  const auto& st = req.steps;
  for (std::size_t i = 0; i < st.size(); ++i) {
    if (st[i].phase != ReqPhase::kBind && st[i].phase != ReqPhase::kMarshal)
      continue;
    sim::SimTime end = hi;
    for (std::size_t j = i + 1; j < st.size(); ++j) {
      if (is_frontend_phase(st[j].phase)) {
        end = st[j].at;
        break;
      }
    }
    push(st[i].at, end,
         st[i].phase == ReqPhase::kBind ? Bucket::kBind : Bucket::kMarshal);
  }
  std::vector<sim::SimTime> sends, queued;
  std::size_t send_head = 0, queue_head = 0;
  sim::SimTime serve_start = -1, gate_start = -1;
  for (const auto& s : st) {
    switch (s.phase) {
      case ReqPhase::kTransit:
        sends.push_back(s.at);
        break;
      case ReqPhase::kBackendQueue:
        if (send_head < sends.size())
          push(sends[send_head++], s.at, Bucket::kTransit);
        queued.push_back(s.at);
        break;
      case ReqPhase::kBackendStart:
        if (queue_head < queued.size())
          push(queued[queue_head++], s.at, Bucket::kBackendQueue);
        serve_start = s.at;
        break;
      case ReqPhase::kDispatchWait:
        gate_start = s.at;
        break;
      case ReqPhase::kExecute:
        if (gate_start >= 0) {
          push(gate_start, s.at, Bucket::kDispatchWait);
          gate_start = -1;
        }
        break;
      case ReqPhase::kBackendDone:
        if (serve_start >= 0) {
          push(serve_start, s.at, Bucket::kExecute);
          serve_start = -1;
        }
        break;
      default:
        break;
    }
  }

  // 2. Sweep: each instant of [issue, complete] is claimed by the highest-
  // priority covering interval; uncovered time is frontend/host. Bucket
  // sums are exclusive and add up exactly to wall-clock.
  std::vector<sim::SimTime> pts;
  pts.reserve(ivs.size() * 2 + 2);
  pts.push_back(lo);
  pts.push_back(hi);
  for (const auto& iv : ivs) {
    pts.push_back(iv.s);
    pts.push_back(iv.e);
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  // Timelines the wait buckets resolve against (fixed per request).
  const std::vector<OccupantStamp>* wait_tl[kBucketCount] = {};
  if (occ != nullptr) {
    auto timeline = [&](Bucket b) -> const std::vector<OccupantStamp>* {
      auto it = occ->by_resource.find(resource_for(b, req));
      return it == occ->by_resource.end() ? nullptr : &it->second;
    };
    wait_tl[static_cast<std::size_t>(Bucket::kTransit)] =
        timeline(Bucket::kTransit);
    wait_tl[static_cast<std::size_t>(Bucket::kBackendQueue)] =
        timeline(Bucket::kBackendQueue);
    // dispatch_wait aliases the engines timeline (see above).
    wait_tl[static_cast<std::size_t>(Bucket::kDispatchWait)] =
        timeline(Bucket::kExecute);
  }
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    const sim::SimTime a = pts[i], b = pts[i + 1];
    Bucket best = Bucket::kFrontend;
    for (const auto& iv : ivs) {
      if (iv.s <= a && iv.e >= b &&
          bucket_priority(iv.b) > bucket_priority(best)) {
        best = iv.b;
      }
    }
    out.by_bucket[static_cast<std::size_t>(best)] += b - a;
    if (occ != nullptr && is_wait_bucket(best)) {
      attribute_segment(wait_tl[static_cast<std::size_t>(best)], a, b,
                        out.culprits[static_cast<std::size_t>(best)]);
    }
  }

  // 3. Critical path: the bucket with the largest share (first wins ties).
  Bucket crit = Bucket::kFrontend;
  for (int i = 0; i < kBucketCount; ++i) {
    if (out.by_bucket[static_cast<std::size_t>(i)] >
        out.by_bucket[static_cast<std::size_t>(crit)]) {
      crit = static_cast<Bucket>(i);
    }
  }
  out.critical = crit;
  out.resource = resource_for(crit, req);
  return out;
}

}  // namespace

RequestProfile profile_request(const ProfRequest& req) {
  return profile_request_impl(req, nullptr);
}

RequestProfile profile_request(const ProfRequest& req,
                               const OccupantIndex& occ) {
  return profile_request_impl(req, &occ);
}

double TenantAccount::slowdown() const {
  if (wall_ns <= 0) return 1.0;
  const sim::SimTime uncontended = wall_ns - contention_ns;
  if (uncontended <= 0) return 1.0;
  return static_cast<double>(wall_ns) / static_cast<double>(uncontended);
}

Report profile(const ProfInput& in) {
  Report rep;
  rep.meta = in.meta;
  const auto fmeta = in.meta.find("forensics");
  rep.forensics = (fmeta != in.meta.end() && fmeta->second == "1") ||
                  !in.occupants.empty();
  OccupantIndex occ;
  if (rep.forensics) occ = build_occupant_index(in.occupants);
  // The ProfRequest behind each rep.requests entry, same order (exemplar
  // derivation needs completed_at, which RequestProfile does not carry).
  std::vector<const ProfRequest*> complete_reqs;
  for (const auto& req : in.requests) {
    if (req.issued_at < 0) continue;
    {
      // Scoped: FlatMap doctrine — don't hold a reference across later
      // mutations of other report tables.
      TenantAccount& seen = rep.tenants[req.tenant];
      if (seen.requests == 0) seen.weight = req.weight;
    }
    if (req.completed_at < 0) {
      ++rep.incomplete_requests;
      continue;
    }
    ++rep.complete_requests;
    if (rep.first_issue < 0 || req.issued_at < rep.first_issue)
      rep.first_issue = req.issued_at;
    if (req.completed_at > rep.last_complete)
      rep.last_complete = req.completed_at;

    RequestProfile p = rep.forensics ? profile_request(req, occ)
                                     : profile_request(req);
    const double wall_ms = sim::to_millis(p.wall);
    const std::string group_keys[3] = {
        "tenant/" + req.tenant, "app/" + req.app_type,
        req.gid >= 0 ? "gpu/gpu" + std::to_string(req.gid) : "gpu/unbound"};
    for (const auto& key : group_keys) {
      GroupStats& g = rep.groups[key];
      ++g.requests;
      g.digest.observe(wall_ms);
      g.wall_ns += p.wall;
      for (int b = 0; b < kBucketCount; ++b)
        g.bucket_ns[static_cast<std::size_t>(b)] +=
            p.by_bucket[static_cast<std::size_t>(b)];
    }
    for (int b = 0; b < kBucketCount; ++b) {
      const sim::SimTime t = p.by_bucket[static_cast<std::size_t>(b)];
      if (t <= 0) continue;
      rep.blame[resource_for(static_cast<Bucket>(b), req)].total_ns += t;
    }
    {
      ResourceBlame& blamed = rep.blame[p.resource];
      ++blamed.critical_for;
      blamed.critical_ns += p.by_bucket[static_cast<std::size_t>(p.critical)];
    }
    if (rep.forensics) {
      // Interference matrix: every culprit-attributed nanosecond of this
      // victim's wait buckets, including the "(idle)" remainder.
      sim::FlatMap<std::string, sim::SimTime>& row =
          rep.interference[req.tenant];
      for (const auto& m : p.culprits) {
        for (const auto& [culprit, ns] : m) row[culprit] += ns;
      }
    }
    {
      TenantAccount& acct = rep.tenants[req.tenant];
      ++acct.requests;
      acct.wall_ns += p.wall;
      acct.contention_ns +=
          p.by_bucket[static_cast<std::size_t>(Bucket::kBackendQueue)] +
          p.by_bucket[static_cast<std::size_t>(Bucket::kDispatchWait)];
    }
    complete_reqs.push_back(&req);
    rep.requests.push_back(std::move(p));
  }
  for (const auto& [tenant, ns] : in.attained_ns) {
    rep.tenants[tenant].attained_ns = ns;
  }

  // Tail exemplars: per-window top-K slowest completions. window_ns and
  // exemplar_k ride the run-config metadata, so the offline path derives
  // the same set from the exported trace alone.
  const auto meta_ll = [&](const char* key) -> long long {
    auto it = in.meta.find(key);
    return it == in.meta.end()
               ? 0
               : std::strtoll(it->second.c_str(), nullptr, 10);
  };
  const long long exemplar_k = meta_ll("exemplar_k");
  const long long window_ns = meta_ll("window_ns");
  if (exemplar_k > 0 && window_ns > 0 && !rep.requests.empty()) {
    std::map<std::int64_t,
             std::vector<std::pair<sim::SimTime, std::uint64_t>>>
        by_window;
    sim::FlatMap<std::uint64_t, std::size_t> pos;
    for (std::size_t i = 0; i < rep.requests.size(); ++i) {
      const ProfRequest& q = *complete_reqs[i];
      by_window[q.completed_at / window_ns].push_back(
          {rep.requests[i].wall, q.app_id});
      pos[q.app_id] = i;
    }
    for (auto& [win, cands] : by_window) {
      std::sort(cands.begin(), cands.end(),
                [](const std::pair<sim::SimTime, std::uint64_t>& a,
                   const std::pair<sim::SimTime, std::uint64_t>& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second < b.second;
                });
      const std::size_t k =
          std::min(cands.size(), static_cast<std::size_t>(exemplar_k));
      for (std::size_t r = 0; r < k; ++r) {
        const std::size_t idx = pos.at(cands[r].second);
        Exemplar ex;
        ex.window = win;
        ex.rank = static_cast<int>(r + 1);
        ex.id = "w" + std::to_string(win) + "." + std::to_string(ex.rank);
        ex.req = *complete_reqs[idx];
        ex.prof = rep.requests[idx];
        rep.exemplars.push_back(std::move(ex));
      }
    }
  }

  // Jain's index over weight-normalized attained service — the same
  // formula as metrics::jain_fairness (pinned equal by prof_test).
  if (rep.tenants.size() > 1) {
    double sum = 0.0, sum_sq = 0.0;
    for (const auto& [tenant, acct] : rep.tenants) {
      const double x = acct.weight > 0
                           ? sim::to_seconds(acct.attained_ns) / acct.weight
                           : 0.0;
      sum += x;
      sum_sq += x * x;
    }
    rep.jain = sum_sq == 0.0 ? 1.0
                             : (sum * sum) / (static_cast<double>(
                                                  rep.tenants.size()) *
                                              sum_sq);
  }
  return rep;
}

void render(const Report& r, std::ostream& os) {
  char line[512];
  os << "== strings profiler ==\n";
  std::snprintf(line, sizeof line, "requests: %d complete, %d incomplete\n",
                r.complete_requests, r.incomplete_requests);
  os << line;
  std::snprintf(line, sizeof line, "window_s: [%.6f, %.6f]\n",
                r.first_issue >= 0 ? sim::to_seconds(r.first_issue) : 0.0,
                r.last_complete >= 0 ? sim::to_seconds(r.last_complete) : 0.0);
  os << line;
  if (!r.meta.empty()) {
    os << "run_config:";
    for (const auto& [k, v] : r.meta) os << ' ' << k << '=' << v;
    os << '\n';
  }

  os << "\n-- latency breakdown (wall-clock share per phase) --\n";
  std::snprintf(line, sizeof line,
                "%-32s %5s %10s %10s %10s %6s %6s %6s %6s %6s %6s %6s\n",
                "group", "n", "mean_ms", "p50_ms", "p99_ms", "front%", "bind%",
                "mars%", "tran%", "queue%", "gate%", "exec%");
  os << line;
  for (const auto& [key, g] : r.groups) {
    double pct[kBucketCount] = {};
    for (int b = 0; b < kBucketCount; ++b) {
      pct[b] = g.wall_ns > 0
                   ? 100.0 * static_cast<double>(
                                 g.bucket_ns[static_cast<std::size_t>(b)]) /
                         static_cast<double>(g.wall_ns)
                   : 0.0;
    }
    std::snprintf(line, sizeof line,
                  "%-32s %5d %10.3f %10.3f %10.3f %6.1f %6.1f %6.1f %6.1f "
                  "%6.1f %6.1f %6.1f\n",
                  key.c_str(), g.requests, g.digest.mean(),
                  g.digest.quantile(0.50), g.digest.quantile(0.99),
                  pct[0], pct[1], pct[2], pct[3], pct[4], pct[5], pct[6]);
    os << line;
  }

  os << "\n-- critical path (time blocked per resource) --\n";
  std::snprintf(line, sizeof line, "%-30s %9s %12s %12s\n", "resource",
                "crit_reqs", "crit_ms", "total_ms");
  os << line;
  for (const auto& [name, b] : r.blame) {
    std::snprintf(line, sizeof line, "%-30s %9d %12.3f %12.3f\n", name.c_str(),
                  b.critical_for, sim::to_millis(b.critical_ns),
                  sim::to_millis(b.total_ns));
    os << line;
  }

  if (r.forensics) {
    os << "\n-- interference matrix (victim blocked-on culprit) --\n";
    std::snprintf(line, sizeof line, "%-24s %-24s %12s\n", "victim",
                  "culprit", "blocked_ms");
    os << line;
    for (const auto& [victim, row] : r.interference) {
      for (const auto& [culprit, ns] : row) {
        std::snprintf(line, sizeof line, "%-24s %-24s %12.3f\n",
                      victim.c_str(), culprit.c_str(), sim::to_millis(ns));
        os << line;
      }
    }
    if (!r.exemplars.empty()) {
      os << "\n-- tail exemplars (slowest requests per window) --\n";
      std::snprintf(line, sizeof line, "%-10s %-28s %10s %14s %s\n", "id",
                    "request", "wall_ms", "critical", "top_culprit");
      os << line;
      for (const auto& ex : r.exemplars) {
        // Largest single culprit charge across the wait buckets (first in
        // bucket order, then culprit order, wins ties).
        const std::string* top = nullptr;
        sim::SimTime top_ns = 0;
        for (const auto& m : ex.prof.culprits) {
          for (const auto& [culprit, ns] : m) {
            if (top == nullptr || ns > top_ns) {
              top = &culprit;
              top_ns = ns;
            }
          }
        }
        const std::string label = ex.prof.app_type + "#" +
                                  std::to_string(ex.prof.app_id) + " (" +
                                  ex.prof.tenant + ")";
        std::snprintf(line, sizeof line, "%-10s %-28s %10.3f %14s %s\n",
                      ex.id.c_str(), label.c_str(),
                      sim::to_millis(ex.prof.wall),
                      bucket_name(ex.prof.critical),
                      top != nullptr ? top->c_str() : "-");
        os << line;
      }
    }
  }

  os << "\n-- per-request critical path --\n";
  std::snprintf(line, sizeof line, "%-28s %10s %14s %s\n", "request",
                "wall_ms", "critical", "resource");
  os << line;
  constexpr std::size_t kMaxRequestRows = 32;
  for (std::size_t i = 0; i < r.requests.size() && i < kMaxRequestRows; ++i) {
    const RequestProfile& p = r.requests[i];
    const std::string label =
        p.app_type + "#" + std::to_string(p.app_id) + " (" + p.tenant + ")";
    std::snprintf(line, sizeof line, "%-28s %10.3f %14s %s\n", label.c_str(),
                  sim::to_millis(p.wall), bucket_name(p.critical),
                  p.resource.c_str());
    os << line;
  }
  if (r.requests.size() > kMaxRequestRows) {
    std::snprintf(line, sizeof line, "  (+%d more not shown)\n",
                  static_cast<int>(r.requests.size() - kMaxRequestRows));
    os << line;
  }

  os << "\n-- per-tenant fairness --\n";
  std::snprintf(line, sizeof line, "%-24s %8s %12s %8s %9s\n", "tenant",
                "requests", "attained_s", "weight", "slowdown");
  os << line;
  for (const auto& [tenant, acct] : r.tenants) {
    std::snprintf(line, sizeof line, "%-24s %8d %12.6f %8.2f %9.3f\n",
                  tenant.c_str(), acct.requests,
                  sim::to_seconds(acct.attained_ns), acct.weight,
                  acct.slowdown());
    os << line;
  }
  std::snprintf(line, sizeof line, "jain_fairness_index: %.6f\n", r.jain);
  os << line;
}

void write_exemplars_jsonl(const Report& r, std::ostream& os) {
  char num[kG17Chars];
  const auto ms = [&](sim::SimTime ns) {
    return format_g17(static_cast<double>(ns) / 1e6, num);
  };
  for (const auto& ex : r.exemplars) {
    os << "{\"schema\":\"strings.exemplar.v1\",\"id\":" << json::quote(ex.id)
       << ",\"window\":" << ex.window << ",\"rank\":" << ex.rank
       << ",\"app_id\":" << ex.req.app_id
       << ",\"app\":" << json::quote(ex.req.app_type)
       << ",\"tenant\":" << json::quote(ex.req.tenant)
       << ",\"gid\":" << ex.req.gid
       << ",\"node\":" << ex.req.node << ",\"wall_ms\":" << ms(ex.prof.wall)
       << ",\"issued_ms\":" << ms(ex.req.issued_at)
       << ",\"completed_ms\":" << ms(ex.req.completed_at) << ",\"buckets\":{";
    for (int b = 0; b < kBucketCount; ++b) {
      if (b > 0) os << ',';
      os << '"' << bucket_name(static_cast<Bucket>(b)) << "\":"
         << ms(ex.prof.by_bucket[static_cast<std::size_t>(b)]);
    }
    os << "},\"culprits\":{";
    bool first_bucket = true;
    for (int b = 0; b < kBucketCount; ++b) {
      const auto& m = ex.prof.culprits[static_cast<std::size_t>(b)];
      if (m.empty()) continue;
      if (!first_bucket) os << ',';
      first_bucket = false;
      os << '"' << bucket_name(static_cast<Bucket>(b)) << "\":{";
      bool first_culprit = true;
      for (const auto& [culprit, ns] : m) {
        if (!first_culprit) os << ',';
        first_culprit = false;
        os << json::quote(culprit) << ':' << ms(ns);
      }
      os << '}';
    }
    os << "},\"steps\":\"";
    // Same encoding RequestTrace::encode_steps uses on the umbrella span,
    // so the full causal timeline rides the exemplar line verbatim.
    for (std::size_t i = 0; i < ex.req.steps.size(); ++i) {
      if (i > 0) os << ';';
      os << req_phase_name(ex.req.steps[i].phase) << '@'
         << ex.req.steps[i].at;
    }
    os << "\"}\n";
  }
}

std::vector<std::string> exemplar_ids_for_window(std::int64_t completions,
                                                 std::int64_t window, int k) {
  std::vector<std::string> ids;
  const std::int64_t n = std::max<std::int64_t>(
      0, std::min<std::int64_t>(completions, k));
  ids.reserve(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    ids.push_back("w" + std::to_string(window) + "." +
                  std::to_string(r + 1));
  }
  return ids;
}

void export_to_registry(const Report& r, Registry& reg) {
  reg.gauge("prof/requests/complete")
      .set(static_cast<double>(r.complete_requests));
  reg.gauge("prof/requests/incomplete")
      .set(static_cast<double>(r.incomplete_requests));
  reg.gauge("prof/fairness/jain").set(r.jain);
  for (const auto& [tenant, acct] : r.tenants) {
    reg.gauge("prof/tenant/" + tenant + "/attained_s")
        .set(sim::to_seconds(acct.attained_ns));
    reg.gauge("prof/tenant/" + tenant + "/slowdown").set(acct.slowdown());
    reg.gauge("prof/tenant/" + tenant + "/requests")
        .set(static_cast<double>(acct.requests));
  }
  for (const auto& [name, b] : r.blame) {
    reg.gauge("prof/resource/" + name + "/critical_ms")
        .set(sim::to_millis(b.critical_ns));
    reg.gauge("prof/resource/" + name + "/total_ms")
        .set(sim::to_millis(b.total_ns));
  }
  for (const auto& [victim, row] : r.interference) {
    for (const auto& [culprit, ns] : row) {
      reg.gauge("interference/" + victim + "/" + culprit + "/blocked_ns")
          .set(static_cast<double>(ns));
    }
  }
  for (const auto& p : r.requests) {
    const double wall_ms = sim::to_millis(p.wall);
    const std::string keys[3] = {
        "tenant/" + p.tenant, "app/" + p.app_type,
        p.gid >= 0 ? "gpu/gpu" + std::to_string(p.gid) : "gpu/unbound"};
    for (const auto& key : keys) {
      reg.histogram("prof/" + key + "/latency_ms", digest_bounds_ms())
          .observe(wall_ms);
    }
  }
}

}  // namespace strings::obs::prof
