#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <iterator>
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

void RequestTrace::append_steps(std::string* out) const {
  char at[24];  // any int64 in decimal
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out->push_back(';');
    out->append(req_phase_name(steps[i].phase));
    out->push_back('@');
    out->append(at, std::to_chars(at, at + sizeof at, steps[i].at).ptr);
  }
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

namespace {

// Tracer::KnownName's strings, in its order.
constexpr std::string_view kKnown[] = {
    "KL", "H2D", "D2H", "queue", "gate_wait", "bind", "dispatch.wake",
    "dispatch.sleep", "queue_depth", "fe.departure", "util",
    "app", "tenant", "signal", "admit", "tenant_attained_s", "seq", "bytes",
    "gid", "node", "app_id", "origin", "weight", "issued", "completed",
    "steps", "series", "value", "threshold",
};
static_assert(std::size(kKnown) == Tracer::kKnownNames);
static_assert(sizeof(Tracer::Event) == 40);

}  // namespace

Tracer::Tracer() {
  for (const std::string_view s : kKnown) intern(s);
}

NameId Tracer::intern(std::string_view s) {
  if (auto it = name_ids_.find(s); it != name_ids_.end()) return it->second;
  const auto id = static_cast<NameId>(names_.size());
  names_.emplace_back(s);
  name_ids_.emplace(names_.back(), id);
  return id;
}

NameId Tracer::intern(std::string_view a, std::string_view b,
                      std::string_view c) {
  concat_.assign(a);
  concat_.append(b);
  concat_.append(c);
  return intern(concat_);
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
  // tids are assigned in creation order within the process, so Perfetto
  // shows tracks in the order the testbed registered them.
  const auto p = static_cast<std::size_t>(pid);
  if (p >= next_tid_.size()) next_tid_.resize(p + 1, 0);
  tracks_.push_back(Track{pid, next_tid_[p]++, name});
  return static_cast<int>(tracks_.size() - 1);
}

int Tracer::node_process(int node) {
  return add_process("node" + std::to_string(node), /*sort_index=*/node);
}

void Tracer::record(EventType type, int track, NameId name, sim::SimTime ts,
                    sim::SimTime dur, double value,
                    std::initializer_list<TraceArg> args) {
  assert(args.size() < kMaxArgs);
  Event e;
  e.type = type;
  e.track = track;
  e.name = name;
  e.ts = ts;
  e.dur = dur;
  e.value = value;
  e.first_arg = static_cast<std::uint32_t>(args_.size());
  e.arg_count = static_cast<std::uint8_t>(args.size());
  for (const TraceArg& a : args) {
    if (a.kind == TraceArg::Kind::kText) {
      args_.push_back({a.key, Arg::Kind::kText,
                       static_cast<std::int64_t>(texts_.size())});
      texts_.emplace_back(a.text);
    } else {
      args_.push_back({a.key,
                       a.kind == TraceArg::Kind::kInt ? Arg::Kind::kInt
                                                      : Arg::Kind::kName,
                       a.value});
    }
  }
  events_.push_back(e);
}

void Tracer::complete(int track, NameId name, sim::SimTime start,
                      sim::SimTime end, std::initializer_list<TraceArg> args) {
  if (track < 0) return;
  record(EventType::kComplete, track, name, start,
         end > start ? end - start : 0, 0.0, args);
}

void Tracer::instant(int track, NameId name, sim::SimTime ts,
                     std::initializer_list<TraceArg> args) {
  if (track < 0) return;
  record(EventType::kInstant, track, name, ts, 0, 0.0, args);
}

void Tracer::counter(int track, NameId name, sim::SimTime ts, double value) {
  if (track < 0) return;
  record(EventType::kCounter, track, name, ts, 0, value, {});
}

std::string_view Tracer::text(const Arg& a) const {
  switch (a.kind) {
    case Arg::Kind::kName: return name(static_cast<NameId>(a.value));
    case Arg::Kind::kText: return texts_[static_cast<std::size_t>(a.value)];
    default: return {};
  }
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

void Tracer::gpu_op(int gid, NameId kind, sim::SimTime start,
                    sim::SimTime end, std::initializer_list<TraceArg> args) {
  auto it = gpu_tracks_.find(gid);
  if (it == gpu_tracks_.end()) return;
  complete(kind == kKL ? it->second.compute : it->second.copy, kind, start,
           end, args);
}

void Tracer::dispatcher_event(int gid, bool wake, sim::SimTime ts,
                              std::initializer_list<TraceArg> args) {
  auto it = gpu_tracks_.find(gid);
  if (it == gpu_tracks_.end()) return;
  instant(it->second.dispatch, wake ? kDispatchWake : kDispatchSleep, ts,
          args);
}

void Tracer::gpu_instant(int gid, NameId name, sim::SimTime ts,
                         std::initializer_list<TraceArg> args) {
  auto it = gpu_tracks_.find(gid);
  if (it == gpu_tracks_.end()) return;
  instant(it->second.dispatch, name, ts, args);
}

void Tracer::gpu_counter(int gid, NameId name, sim::SimTime ts,
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
  if (app_id < request_by_id_.size() && request_by_id_[app_id] != nullptr) {
    return *request_by_id_[app_id];
  }
  auto [it, created] = requests_.try_emplace(app_id);
  RequestTrace& r = it->second;
  if (created) {
    r.app_id = app_id;
    r.app_type = "app";
  }
  // Index ids up to twice the range seen so far: a sequence stays dense,
  // and a stray huge id does not size the vector.
  if (app_id < 2 * request_by_id_.size() + 64) {
    if (app_id >= request_by_id_.size()) {
      request_by_id_.resize(app_id + 1, nullptr);
    }
    request_by_id_[app_id] = &r;
  }
  return r;
}

const RequestTrace* Tracer::find_request(std::uint64_t app_id) const {
  if (app_id < request_by_id_.size() && request_by_id_[app_id] != nullptr) {
    return request_by_id_[app_id];
  }
  auto it = requests_.find(app_id);
  return it != requests_.end() ? &it->second : nullptr;
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
    const auto id = static_cast<std::int64_t>(r.app_id);
    complete(request_track(app_id), intern("request ", r.app_type),
             r.issued_at, now,
             {TraceArg::name(kTenant, intern(r.tenant)),
              TraceArg::num(kAppId, id),
              TraceArg::num(kOrigin, r.origin_node),
              TraceArg::num(kGid, r.bound_gid),
              TraceArg::num(kNode, r.bound_node),
              TraceArg::str(kWeight, format_g17(r.tenant_weight, weight)),
              TraceArg::num(kIssued, r.issued_at),
              TraceArg::num(kCompleted, r.completed_at)});
    // The lifecycle is encoded at export (Arg::Kind::kSteps), not here: a
    // request holds thousands of steps.
    args_.push_back({kSteps, Arg::Kind::kSteps, id});
    ++events_.back().arg_count;
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
