#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/number.hpp"

namespace strings::obs {

namespace {

/// Microseconds with nanosecond precision (Chrome traces use double us).
std::string fmt_us(sim::SimTime ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

void write_args(std::ostream& os, const std::vector<TraceArg>& args) {
  os << "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) os << ',';
    os << json::quote(args[i].key) << ':' << json::quote(args[i].value);
  }
  os << '}';
}

void write_counter(std::ostream& os, const Tracer::Track& t,
                   const std::string& name, sim::SimTime ts, double value) {
  std::string val;
  json::append_number(&val, value);
  os << "{\"ph\":\"C\",\"name\":" << json::quote(name)
     << ",\"pid\":" << t.pid << ",\"tid\":" << t.tid
     << ",\"ts\":" << fmt_us(ts) << ",\"args\":{\"value\":" << val << "}}";
}

}  // namespace

void write_chrome_trace(const Tracer& tracer, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Metadata: run-level labels (mode, policies, topology). Offline tools
  // (tools/strings_prof) read these back so their reports carry the same
  // header the online profiler prints.
  if (!tracer.meta().empty()) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"strings_run_config\",\"pid\":0,"
          "\"tid\":0,";
    std::vector<TraceArg> meta_args;
    for (const auto& [k, v] : tracer.meta()) meta_args.push_back({k, v});
    write_args(os, meta_args);
    os << '}';
  }

  // Metadata: process and thread names + sort order.
  const auto& procs = tracer.processes();
  for (std::size_t pid = 0; pid < procs.size(); ++pid) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":" << json::quote(procs[pid].name)
       << "}}";
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"sort_index\":" << procs[pid].sort_index
       << "}}";
  }
  for (const auto& t : tracer.tracks()) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << t.pid
       << ",\"tid\":" << t.tid << ",\"args\":{\"name\":"
       << json::quote(t.name) << "}}";
  }

  // Each GPU's KL/H2D/D2H spans (its compute and copy tracks), gathered by
  // dispatch track as they stream out; `util` is derived from them below.
  const auto& tracks = tracer.tracks();
  std::vector<int> dispatch_of(tracks.size(), -1);
  for (const auto& [gid, g] : tracer.gpu_tracks()) {
    dispatch_of[static_cast<std::size_t>(g.compute)] = g.dispatch;
    dispatch_of[static_cast<std::size_t>(g.copy)] = g.dispatch;
  }
  std::map<int, std::vector<std::pair<sim::SimTime, sim::SimTime>>> busy;
  for (const auto& e : tracer.events()) {
    const auto& t = tracks[static_cast<std::size_t>(e.track)];
    sep();
    switch (e.type) {
      case Tracer::EventType::kComplete:
        if (const int d = dispatch_of[static_cast<std::size_t>(e.track)];
            d >= 0 && e.dur > 0) {
          busy[d].emplace_back(e.ts, e.ts + e.dur);
        }
        os << "{\"ph\":\"X\",\"name\":" << json::quote(e.name)
           << ",\"pid\":" << t.pid << ",\"tid\":" << t.tid
           << ",\"ts\":" << fmt_us(e.ts) << ",\"dur\":" << fmt_us(e.dur)
           << ',';
        write_args(os, e.args);
        os << '}';
        break;
      case Tracer::EventType::kInstant:
        os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":" << json::quote(e.name)
           << ",\"pid\":" << t.pid << ",\"tid\":" << t.tid
           << ",\"ts\":" << fmt_us(e.ts) << ',';
        write_args(os, e.args);
        os << '}';
        break;
      case Tracer::EventType::kCounter:
        write_counter(os, t, e.name, e.ts, e.value);
        break;
    }
  }

  // Device utilization: 1 while any engine of the GPU holds an op (the
  // union of its spans), 0 otherwise, one counter sample per transition on
  // the GPU's dispatch track.
  for (auto& [d, spans] : busy) {
    const auto& t = tracks[static_cast<std::size_t>(d)];
    auto emit = [&](sim::SimTime begin, sim::SimTime end) {
      sep();
      write_counter(os, t, "util", begin, 1.0);
      sep();
      write_counter(os, t, "util", end, 0.0);
    };
    std::sort(spans.begin(), spans.end());
    sim::SimTime begin = spans.front().first, end = spans.front().second;
    for (const auto& [span_begin, span_end] : spans) {
      if (span_begin > end) {
        emit(begin, end);
        begin = span_begin;
      }
      end = std::max(end, span_end);
    }
    emit(begin, end);
  }

  // Interference forensics: the occupant flight-recorder ring, one "occ"
  // span per stamp under a synthetic "forensics" process (the Tracer's
  // track registry is untouched — the pid is allocated here, past every
  // real process). tools/strings_prof reads these back to re-derive the
  // interference matrix and exemplars byte-identically offline.
  if (tracer.forensics_enabled() && !tracer.occupants().empty()) {
    const int fpid = static_cast<int>(procs.size());
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << fpid
       << ",\"tid\":0,\"args\":{\"name\":\"forensics\"}}";
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":" << fpid
       << ",\"tid\":0,\"args\":{\"sort_index\":2000}}";
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << fpid
       << ",\"tid\":0,\"args\":{\"name\":\"occupants\"}}";
    for (const auto& s : tracer.occupants()) {
      sep();
      os << "{\"ph\":\"X\",\"name\":\"occ\",\"pid\":" << fpid
         << ",\"tid\":0,\"ts\":" << fmt_us(s.begin)
         << ",\"dur\":" << fmt_us(s.end - s.begin) << ',';
      write_args(os, {{"res", s.resource}, {"tenant", s.tenant}});
      os << '}';
    }
  }

  // Requests that were issued but never completed get no umbrella span
  // (end_request never ran); emit an instant per straggler so offline
  // consumers can still account for them.
  for (const auto& [app_id, r] : tracer.requests()) {
    if (r.issued_at < 0 || r.completed_at >= 0) continue;
    int pid = 0, tid = 0;
    if (r.track >= 0) {
      const auto& t = tracks[static_cast<std::size_t>(r.track)];
      pid = t.pid;
      tid = t.tid;
    }
    sep();
    os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"request.incomplete\","
          "\"pid\":"
       << pid << ",\"tid\":" << tid << ",\"ts\":" << fmt_us(r.issued_at)
       << ',';
    // The profiler takes a tenant's weight from its requests, complete or
    // not, so a straggler carries it too.
    char w[kG17Chars];
    write_args(os, {{"tenant", r.tenant},
                    {"app_id", std::to_string(app_id)},
                    {"app", r.app_type},
                    {"weight", std::string(format_g17(r.tenant_weight, w))},
                    {"issued", std::to_string(r.issued_at)}});
    os << '}';
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(tracer, out);
  return static_cast<bool>(out);
}

void write_metrics_csv(const Registry& registry, std::ostream& os) {
  os << registry.to_csv();
}

bool write_metrics_csv_file(const Registry& registry,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_metrics_csv(registry, out);
  return static_cast<bool>(out);
}

}  // namespace strings::obs
