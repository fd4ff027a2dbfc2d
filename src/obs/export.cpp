#include "obs/export.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/number.hpp"

namespace strings::obs {

namespace {

// What TraceWriter::put renders besides literals and integers.
struct Str {  // a string, JSON-escaped and quoted
  std::string_view s;
};
struct Us {  // ns as microseconds, printf("%lld.%03lld", ns / 1000, ns % 1000)
  sim::SimTime ns;
};
struct Name {  // an interned name, escaped once up front
  NameId id;
};

/// The trace being rendered: one buffer, handed to the stream in large
/// chunks so a big trace never sits in memory twice, and the "first event
/// yet" state of its separator.
class TraceWriter {
 public:
  TraceWriter(const Tracer& tracer, std::ostream& os)
      : tracer_(tracer), os_(os) {
    for (NameId id = 0; id < tracer.name_count(); ++id) {
      name_at_.push_back(names_.size());
      json::append_string(&names_, tracer.name(id));
    }
    name_at_.push_back(names_.size());
  }

  /// Appends each part: a literal, an integer, or a Str, Us or Name.
  template <typename... Parts>
  void put(const Parts&... parts) {
    (append(parts), ...);
  }
  /// Starts the next event, first writing out a full chunk.
  void sep() {
    if (out_.size() >= kChunk) flush();
    put(first_ ? "\n" : ",\n");
    first_ = false;
  }
  void args(std::span<const Tracer::Arg> args) {
    put("\"args\":{");
    for (std::size_t i = 0; i < args.size(); ++i) {
      const Tracer::Arg& a = args[i];
      put(i > 0 ? "," : "", Name{a.key}, ":");
      switch (a.kind) {
        case Tracer::Arg::Kind::kInt:  // digits and '-' need no escape
          put("\"", a.value, "\"");
          break;
        case Tracer::Arg::Kind::kName:
          put(Name{static_cast<NameId>(a.value)});
          break;
        case Tracer::Arg::Kind::kText:
          put(Str{tracer_.text(a)});
          break;
        case Tracer::Arg::Kind::kSteps: {  // phase names, '@', ';', digits
          put("\"");
          const RequestTrace* r =
              tracer_.find_request(static_cast<std::uint64_t>(a.value));
          if (r != nullptr) r->append_steps(&out_);
          put("\"");
          break;
        }
      }
    }
    put("}");
  }
  void counter(const Tracer::Track& t, NameId name, sim::SimTime ts,
               double value) {
    put("{\"ph\":\"C\",\"name\":", Name{name}, ",\"pid\":", t.pid,
        ",\"tid\":", t.tid, ",\"ts\":", Us{ts}, ",\"args\":{\"value\":");
    json::append_number(&out_, value);
    put("}}");
  }
  void flush() {
    os_.write(out_.data(), static_cast<std::streamsize>(out_.size()));
    out_.clear();
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 20;

  void append(std::string_view s) { out_.append(s); }
  void append(std::integral auto v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  void append(Str s) { json::append_string(&out_, s.s); }
  void append(Name n) {
    out_.append(names_, name_at_[n.id], name_at_[n.id + 1] - name_at_[n.id]);
  }
  void append(Us t) {
    append(t.ns / 1000);
    std::int64_t frac = t.ns % 1000;
    if (frac < 0) {  // %03lld pads a negative value after its sign
      frac = -frac;
      append(frac < 10 ? ".-0" : ".-");
    } else {
      append(frac < 10 ? ".00" : frac < 100 ? ".0" : ".");
    }
    append(frac);
  }

  const Tracer& tracer_;
  std::ostream& os_;
  std::string names_;                // every name, JSON-quoted
  std::vector<std::size_t> name_at_;  // name id -> offset in names_
  std::string out_;
  bool first_ = true;
};

}  // namespace

void write_chrome_trace(const Tracer& tracer, std::ostream& os) {
  TraceWriter w(tracer, os);
  w.put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");

  // Metadata: run-level labels (mode, policies, topology). Offline tools
  // (tools/strings_prof) read these back so their reports carry the same
  // header the online profiler prints.
  if (!tracer.meta().empty()) {
    w.sep();
    w.put("{\"ph\":\"M\",\"name\":\"strings_run_config\",\"pid\":0,"
          "\"tid\":0,\"args\":{");
    const char* comma = "";
    for (const auto& [k, v] : tracer.meta()) {
      w.put(comma, Str{k}, ":", Str{v});
      comma = ",";
    }
    w.put("}}");
  }

  // Metadata: process and thread names + sort order.
  const auto& procs = tracer.processes();
  for (std::size_t pid = 0; pid < procs.size(); ++pid) {
    w.sep();
    w.put("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":", pid,
          ",\"tid\":0,\"args\":{\"name\":", Str{procs[pid].name}, "}}");
    w.sep();
    w.put("{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":", pid,
          ",\"tid\":0,\"args\":{\"sort_index\":", procs[pid].sort_index,
          "}}");
  }
  for (const auto& t : tracer.tracks()) {
    w.sep();
    w.put("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":", t.pid,
          ",\"tid\":", t.tid, ",\"args\":{\"name\":", Str{t.name}, "}}");
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
    w.sep();
    switch (e.type) {
      case Tracer::EventType::kComplete:
        if (const int d = dispatch_of[static_cast<std::size_t>(e.track)];
            d >= 0 && e.dur > 0) {
          busy[d].emplace_back(e.ts, e.ts + e.dur);
        }
        w.put("{\"ph\":\"X\",\"name\":", Name{e.name}, ",\"pid\":", t.pid,
              ",\"tid\":", t.tid, ",\"ts\":", Us{e.ts}, ",\"dur\":",
              Us{e.dur}, ",");
        w.args(tracer.args(e));
        w.put("}");
        break;
      case Tracer::EventType::kInstant:
        w.put("{\"ph\":\"i\",\"s\":\"t\",\"name\":", Name{e.name},
              ",\"pid\":", t.pid, ",\"tid\":", t.tid, ",\"ts\":", Us{e.ts},
              ",");
        w.args(tracer.args(e));
        w.put("}");
        break;
      case Tracer::EventType::kCounter:
        w.counter(t, e.name, e.ts, e.value);
        break;
    }
  }

  // Device utilization: 1 while any engine of the GPU holds an op (the
  // union of its spans), 0 otherwise, one counter sample per transition on
  // the GPU's dispatch track.
  for (auto& [d, spans] : busy) {
    const auto& t = tracks[static_cast<std::size_t>(d)];
    auto emit = [&](sim::SimTime begin, sim::SimTime end) {
      w.sep();
      w.counter(t, Tracer::kUtil, begin, 1.0);
      w.sep();
      w.counter(t, Tracer::kUtil, end, 0.0);
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
    const std::size_t fpid = procs.size();
    w.sep();
    w.put("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":", fpid,
          ",\"tid\":0,\"args\":{\"name\":\"forensics\"}}");
    w.sep();
    w.put("{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":", fpid,
          ",\"tid\":0,\"args\":{\"sort_index\":2000}}");
    w.sep();
    w.put("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":", fpid,
          ",\"tid\":0,\"args\":{\"name\":\"occupants\"}}");
    for (const auto& s : tracer.occupants()) {
      w.sep();
      w.put("{\"ph\":\"X\",\"name\":\"occ\",\"pid\":", fpid,
            ",\"tid\":0,\"ts\":", Us{s.begin}, ",\"dur\":",
            Us{s.end - s.begin}, ",\"args\":{\"res\":", Str{s.resource},
            ",\"tenant\":", Str{s.tenant}, "}}");
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
    // The profiler takes a tenant's weight from its requests, complete or
    // not, so a straggler carries it too.
    char weight[kG17Chars];
    w.sep();
    w.put("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"request.incomplete\","
          "\"pid\":",
          pid, ",\"tid\":", tid, ",\"ts\":", Us{r.issued_at},
          ",\"args\":{\"tenant\":", Str{r.tenant}, ",\"app_id\":\"", app_id,
          "\",\"app\":", Str{r.app_type}, ",\"weight\":",
          Str{format_g17(r.tenant_weight, weight)}, ",\"issued\":\"",
          r.issued_at, "\"}}");
  }
  w.put("\n]}\n");
  w.flush();
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
