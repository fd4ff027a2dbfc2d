#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "obs/number.hpp"

namespace strings::obs {

const char* req_phase_name(ReqPhase p) {
  switch (p) {
    case ReqPhase::kIssue: return "issue";
    case ReqPhase::kBind: return "bind";
    case ReqPhase::kMarshal: return "marshal";
    case ReqPhase::kTransit: return "transit";
    case ReqPhase::kBackendQueue: return "backend_queue";
    case ReqPhase::kBackendStart: return "backend_start";
    case ReqPhase::kDispatchWait: return "dispatch_wait";
    case ReqPhase::kExecute: return "execute";
    case ReqPhase::kBackendDone: return "backend_done";
    case ReqPhase::kComplete: return "complete";
  }
  return "?";
}

bool req_phase_from_name(std::string_view name, ReqPhase* out) {
  static const ReqPhase kAll[] = {
      ReqPhase::kIssue,        ReqPhase::kBind,         ReqPhase::kMarshal,
      ReqPhase::kTransit,      ReqPhase::kBackendQueue, ReqPhase::kBackendStart,
      ReqPhase::kDispatchWait, ReqPhase::kExecute,      ReqPhase::kBackendDone,
      ReqPhase::kComplete,
  };
  for (ReqPhase p : kAll) {
    if (name == req_phase_name(p)) {
      if (out != nullptr) *out = p;
      return true;
    }
  }
  return false;
}

int RequestTrace::count(ReqPhase p) const {
  int n = 0;
  for (const auto& s : steps) {
    if (s.phase == p) ++n;
  }
  return n;
}

std::string RequestTrace::encode_steps() const {
  // No worst-case reserve: the string moves into the umbrella span's args
  // and keeps whatever capacity it has.
  std::string out;
  char at[24];  // any int64 in decimal
  for (const auto& s : steps) {
    if (!out.empty()) out += ';';
    out += req_phase_name(s.phase);
    out += '@';
    out.append(at, std::to_chars(at, at + sizeof at, s.at).ptr);
  }
  return out;
}

std::vector<RequestTrace::Step> RequestTrace::decode_steps(
    std::string_view encoded) {
  std::vector<Step> steps;
  while (!encoded.empty()) {
    const std::size_t end = std::min(encoded.find(';'), encoded.size());
    const std::string_view item = encoded.substr(0, end);
    encoded.remove_prefix(std::min(end + 1, encoded.size()));
    const std::size_t at = item.find('@');
    if (at == std::string_view::npos) continue;
    ReqPhase phase;
    if (!req_phase_from_name(item.substr(0, at), &phase)) continue;
    const std::string_view digits = item.substr(at + 1);
    sim::SimTime t = 0;
    if (std::from_chars(digits.data(), digits.data() + digits.size(), t).ec !=
        std::errc()) {
      throw std::invalid_argument("bad step time: " + std::string(item));
    }
    steps.push_back({phase, t});
  }
  return steps;
}

int Tracer::add_process(const std::string& name, int sort_index) {
  auto it = process_by_name_.find(name);
  if (it != process_by_name_.end()) return it->second;
  const int pid = static_cast<int>(processes_.size());
  processes_.push_back(ProcessInfo{name, sort_index});
  process_by_name_.emplace(name, pid);
  return pid;
}

int Tracer::add_track(int pid, const std::string& name) {
  Track t;
  t.pid = pid;
  // tids are assigned in creation order within the process, so Perfetto
  // shows tracks in the order the testbed registered them.
  int tid = 0;
  for (const auto& existing : tracks_) {
    if (existing.pid == pid) ++tid;
  }
  t.tid = tid;
  t.name = name;
  tracks_.push_back(std::move(t));
  return static_cast<int>(tracks_.size() - 1);
}

int Tracer::node_process(int node) {
  return add_process("node" + std::to_string(node), /*sort_index=*/node);
}

void Tracer::complete(int track, std::string name, sim::SimTime start,
                      sim::SimTime end, std::vector<TraceArg> args) {
  if (track < 0) return;
  Event e;
  e.type = EventType::kComplete;
  e.track = track;
  e.name = std::move(name);
  e.ts = start;
  e.dur = end > start ? end - start : 0;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Tracer::instant(int track, std::string name, sim::SimTime ts,
                     std::vector<TraceArg> args) {
  if (track < 0) return;
  Event e;
  e.type = EventType::kInstant;
  e.track = track;
  e.name = std::move(name);
  e.ts = ts;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Tracer::counter(int track, std::string name, sim::SimTime ts,
                     double value) {
  if (track < 0) return;
  Event e;
  e.type = EventType::kCounter;
  e.track = track;
  e.name = std::move(name);
  e.ts = ts;
  e.value = value;
  events_.push_back(std::move(e));
}

void Tracer::register_gpu(int gid, int node, const std::string& label) {
  if (gpu_tracks_.count(gid) != 0) return;
  const int pid = node_process(node);
  const std::string prefix = "gpu" + std::to_string(gid) +
                             (label.empty() ? "" : " " + label);
  GpuTracks t;
  t.compute = add_track(pid, prefix + " compute");
  t.copy = add_track(pid, prefix + " copy");
  t.dispatch = add_track(pid, prefix + " dispatch");
  gpu_tracks_.emplace(gid, t);
}

void Tracer::gpu_op(int gid, const char* kind, sim::SimTime start,
                    sim::SimTime end, std::vector<TraceArg> args) {
  auto it = gpu_tracks_.find(gid);
  if (it == gpu_tracks_.end()) return;
  const bool is_kernel = kind != nullptr && kind[0] == 'K';
  complete(is_kernel ? it->second.compute : it->second.copy, kind, start, end,
           std::move(args));
}

void Tracer::dispatcher_event(int gid, bool wake, sim::SimTime ts,
                              std::vector<TraceArg> args) {
  auto it = gpu_tracks_.find(gid);
  if (it == gpu_tracks_.end()) return;
  instant(it->second.dispatch, wake ? "dispatch.wake" : "dispatch.sleep", ts,
          std::move(args));
}

void Tracer::gpu_instant(int gid, const char* name, sim::SimTime ts,
                         std::vector<TraceArg> args) {
  auto it = gpu_tracks_.find(gid);
  if (it == gpu_tracks_.end()) return;
  instant(it->second.dispatch, name, ts, std::move(args));
}

void Tracer::gpu_counter(int gid, const char* name, sim::SimTime ts,
                         double value) {
  auto it = gpu_tracks_.find(gid);
  if (it == gpu_tracks_.end()) return;
  counter(it->second.dispatch, name, ts, value);
}

int Tracer::link_track(int from, int to) {
  const auto key = std::make_pair(from, to);
  auto it = link_tracks_.find(key);
  if (it != link_tracks_.end()) return it->second;
  const int pid = add_process("network", /*sort_index=*/1000);
  const int track = add_track(pid, "n" + std::to_string(from) + "->n" +
                                       std::to_string(to));
  link_tracks_.emplace(key, track);
  return track;
}

RequestTrace& Tracer::request_or_create(std::uint64_t app_id) {
  auto it = requests_.find(app_id);
  if (it != requests_.end()) return it->second;
  RequestTrace r;
  r.app_id = app_id;
  r.app_type = "app";
  return requests_.emplace(app_id, std::move(r)).first->second;
}

RequestTrace& Tracer::begin_request(std::uint64_t app_id,
                                    const std::string& app_type,
                                    const std::string& tenant, int origin_node,
                                    sim::SimTime now, double tenant_weight) {
  RequestTrace& r = request_or_create(app_id);
  r.app_type = app_type;
  r.tenant = tenant;
  r.tenant_weight = tenant_weight;
  r.origin_node = origin_node;
  if (r.issued_at < 0) {
    r.issued_at = now;
    r.steps.push_back({ReqPhase::kIssue, now});
  }
  return r;
}

int Tracer::request_track(std::uint64_t app_id) {
  RequestTrace& r = request_or_create(app_id);
  if (r.track < 0) {
    const int pid = node_process(r.origin_node);
    std::string name = r.app_type + "#" + std::to_string(app_id);
    if (!r.tenant.empty()) name += " (" + r.tenant + ")";
    r.track = add_track(pid, name);
  }
  return r.track;
}

void Tracer::request_phase(std::uint64_t app_id, ReqPhase phase,
                           sim::SimTime now) {
  RequestTrace& r = request_or_create(app_id);
  r.steps.push_back({phase, now});
}

void Tracer::request_bound(std::uint64_t app_id, int gid, int node) {
  RequestTrace& r = request_or_create(app_id);
  r.bound_gid = gid;
  r.bound_node = node;
}

void Tracer::end_request(std::uint64_t app_id, sim::SimTime now) {
  RequestTrace& r = request_or_create(app_id);
  if (r.completed_at >= 0) return;
  r.completed_at = now;
  r.steps.push_back({ReqPhase::kComplete, now});
  if (r.issued_at >= 0) {
    if (completion_width_ > 0) {
      const auto bucket = static_cast<std::size_t>(now / completion_width_);
      if (bucket >= completions_.size()) completions_.resize(bucket + 1, 0);
      ++completions_[bucket];
    }
    char weight[kG17Chars];
    complete(request_track(app_id), "request " + r.app_type, r.issued_at, now,
             {{"tenant", r.tenant},
              {"app_id", std::to_string(r.app_id)},
              {"origin", std::to_string(r.origin_node)},
              {"gid", std::to_string(r.bound_gid)},
              {"node", std::to_string(r.bound_node)},
              {"weight", std::string(format_g17(r.tenant_weight, weight))},
              {"issued", std::to_string(r.issued_at)},
              {"completed", std::to_string(r.completed_at)},
              {"steps", r.encode_steps()}});
  }
}

void Tracer::count_completions_per(sim::SimTime width) {
  completion_width_ = width;
}

std::int64_t Tracer::completions_in(std::int64_t bucket) const {
  const auto b = static_cast<std::size_t>(bucket);  // negative wraps high
  return b < completions_.size() ? completions_[b] : 0;
}

void Tracer::set_meta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

void Tracer::enable_forensics(std::size_t capacity) {
  forensics_enabled_ = true;
  forensics_capacity_ = capacity > 0 ? capacity : 1;
}

void Tracer::occupant(const std::string& resource, const std::string& tenant,
                      sim::SimTime begin, sim::SimTime end) {
  if (!forensics_enabled_ || end <= begin) return;
  occupants_.push_back(OccupantStamp{resource, tenant, begin, end});
  while (occupants_.size() > forensics_capacity_) {
    occupants_.pop_front();
    ++occupants_dropped_;
  }
}

}  // namespace strings::obs
