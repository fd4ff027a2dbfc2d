// Request-lifecycle and device-activity tracing (the observability layer's
// event collector).
//
// A Tracer owns a flat list of timestamped events on named tracks. Tracks
// follow the Chrome trace-event process/thread model so the export
// (obs/export.hpp) renders directly in Perfetto / chrome://tracing:
//
//   process "node0"    — one per simulated node
//     thread "gpu0 compute"   — kernel (KL) spans from the Request Monitor
//     thread "gpu0 copy"      — H2D / D2H transfer spans
//     thread "gpu0 dispatch"  — dispatcher wake/sleep instants + counters
//     thread "MC#12 (tenant)" — one per request: bind, RPC and backend spans
//   process "network"  — one thread per directed node pair, packet
//     transmission spans from rpc::Channel
//
// Every simulated request additionally carries a RequestTrace: an ordered
// record of phase transitions (frontend issue -> marshal -> transit ->
// backend queue -> dispatcher wake -> execution -> completion) that tests
// and tools inspect programmatically.
//
// The Tracer holds no Simulation reference: callers pass virtual timestamps
// explicitly, so the collector works from both process and kernel context
// and never perturbs virtual time. When no Tracer is attached (the default
// everywhere), instrumented components skip all of this — a tracing-
// disabled run is bit-for-bit identical to an uninstrumented one.
#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simcore/sim_time.hpp"

namespace strings::obs {

/// An interned string: its index in the Tracer's name table. Event names,
/// arg keys and string arg values are all interned, so a record holds ids
/// and the text is written once, at export.
using NameId = std::uint32_t;

/// One key/value annotation as a call site passes it (rendered in
/// Perfetto's argument pane). The value is an int64, rendered at export
/// exactly as std::to_string renders it; an interned string; or text the
/// Tracer copies, for the rare value that is formatted at the call site.
/// A call site passes its args as a braced list, which lives on the stack.
struct TraceArg {
  enum class Kind : std::uint8_t { kInt, kName, kText };
  NameId key = 0;
  Kind kind = Kind::kInt;
  std::int64_t value = 0;  // kInt: the value; kName: its NameId
  std::string_view text;   // kText only

  static TraceArg num(NameId key, std::int64_t v) {
    return {key, Kind::kInt, v, {}};
  }
  static TraceArg name(NameId key, NameId v) {
    return {key, Kind::kName, static_cast<std::int64_t>(v), {}};
  }
  static TraceArg str(NameId key, std::string_view v) {
    return {key, Kind::kText, 0, v};
  }
};

/// Phases of the simulated request lifecycle, in the order a request moves
/// through the stack (paper §V reasons about exactly this decomposition).
enum class ReqPhase {
  kIssue,         // frontend created (request admitted by a server thread)
  kBind,          // workload balancer picked a GID; binding to the backend
  kMarshal,       // interposer marshalled a call into an RPC packet
  kTransit,       // packet handed to the channel (wire + latency ahead)
  kBackendQueue,  // packet delivered; waiting for the backend worker
  kBackendStart,  // backend worker picked the call up (queue wait over)
  kDispatchWait,  // backend worker blocked on the dispatcher's WakeGate
  kExecute,       // device op issued to the GPU
  kBackendDone,   // backend worker finished handling the call
  kComplete,      // cudaThreadExit finished; feedback delivered
};

const char* req_phase_name(ReqPhase p);
/// Inverse of req_phase_name; returns false when `name` is unknown.
bool req_phase_from_name(std::string_view name, ReqPhase* out);

/// Per-request lifecycle record: every phase transition, timestamped in
/// virtual time. Kept by the Tracer, keyed by AppDescriptor::app_id.
struct RequestTrace {
  std::uint64_t app_id = 0;
  std::string app_type;
  std::string tenant;
  double tenant_weight = 1.0;
  int origin_node = 0;
  int bound_gid = -1;   // device the balancer bound this request to
  int bound_node = -1;  // node hosting that device
  int track = -1;       // the request's thread track
  struct Step {
    ReqPhase phase;
    sim::SimTime at;
  };
  std::vector<Step> steps;
  sim::SimTime issued_at = -1;
  sim::SimTime completed_at = -1;

  /// Number of recorded transitions into `p`.
  int count(ReqPhase p) const;

  /// Appends the compact "phase@ns;phase@ns;..." encoding of `steps`, in
  /// append order, to `*out`. The export writes it on the umbrella span so
  /// offline tools (strings_prof) re-derive exactly the record the online
  /// profiler saw.
  void append_steps(std::string* out) const;
  /// Inverse of append_steps; unknown phases are skipped, and a step time
  /// that is not a decimal integer throws std::invalid_argument.
  static std::vector<Step> decode_steps(std::string_view encoded);
};

/// One entry of the interference flight recorder: tenant `tenant` held
/// resource `resource` (named exactly as the profiler blames it —
/// "gpu{G}.engines", "node{N}.daemon", "link.n{A}-n{B}"/"link.local") over
/// [begin, end) of virtual time. Stamped by GpuScheduler, BackendDaemon and
/// rpc::Channel when forensics is enabled; the profiler resolves every wait
/// interval against these timelines to attribute blocked time to a culprit.
struct OccupantStamp {
  std::string resource;
  std::string tenant;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
};

class Tracer {
 public:
  enum class EventType : std::uint8_t { kComplete, kInstant, kCounter };

  /// One recorded annotation: an interned key and a value. The strings
  /// behind it are rendered only at export (obs/export.hpp).
  struct Arg {
    /// TraceArg's three kinds, plus kSteps: the umbrella span's encoded
    /// lifecycle, rendered at export from the kept RequestTrace.
    enum class Kind : std::uint8_t { kInt, kName, kText, kSteps };
    NameId key = 0;
    Kind kind = Kind::kInt;
    /// kInt: the value; kName: its NameId; kText: an index into the text
    /// table; kSteps: the request's app_id.
    std::int64_t value = 0;
  };

  /// A fixed-size record: no strings, no owned vectors. Its args are the
  /// slice [first_arg, first_arg + arg_count) of one shared array (args()).
  struct Event {
    sim::SimTime ts = 0;
    sim::SimTime dur = 0;   // kComplete only
    double value = 0.0;     // kCounter only
    int track = -1;
    NameId name = 0;
    std::uint32_t first_arg = 0;
    std::uint8_t arg_count = 0;
    EventType type = EventType::kComplete;
  };

  struct Track {
    int pid = 0;  // process index
    int tid = 0;  // thread id within the process (assigned in order)
    std::string name;
  };

  struct ProcessInfo {
    std::string name;
    int sort_index = 0;
  };

  struct GpuTracks {
    int compute = -1;
    int copy = -1;
    int dispatch = -1;
  };

  /// The names instrumented components record, interned by the constructor
  /// in this order so a call site passes a constant instead of a string.
  enum KnownName : NameId {
    // event names
    kKL, kH2D, kD2H, kQueue, kGateWait, kBind, kDispatchWake,
    kDispatchSleep, kQueueDepth, kFeDeparture, kUtil,
    // arg keys
    kApp, kTenant, kSignal, kAdmit, kTenantAttainedS, kSeq, kBytes, kGid,
    kNode, kAppId, kOrigin, kWeight, kIssued, kCompleted, kSteps, kSeries,
    kValue, kThreshold,
    kKnownNames
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // ---- interning ----
  /// The id of `s`, added to the name table on first use. Call sites
  /// intern a name once and keep the id; only the export reads the text.
  NameId intern(std::string_view s);
  /// intern() of `a` + `b` + `c`, without building a string per call.
  NameId intern(std::string_view a, std::string_view b,
                std::string_view c = {});
  std::string_view name(NameId id) const { return names_[id]; }
  std::size_t name_count() const { return names_.size(); }

  // ---- track registry ----
  /// Creates (or returns) the process named `name`.
  int add_process(const std::string& name, int sort_index = 0);
  /// Creates a thread track under process `pid`; returns the track handle.
  int add_track(int pid, const std::string& name);
  /// The process "node{n}", created on first use.
  int node_process(int node);

  // ---- generic events ----
  void complete(int track, NameId name, sim::SimTime start, sim::SimTime end,
                std::initializer_list<TraceArg> args = {});
  void instant(int track, NameId name, sim::SimTime ts,
               std::initializer_list<TraceArg> args = {});
  void counter(int track, NameId name, sim::SimTime ts, double value);

  // ---- device tracks (registered by the testbed) ----
  /// Creates the compute/copy/dispatch tracks of GPU `gid` on `node`.
  void register_gpu(int gid, int node, const std::string& label);
  /// A kKL/kH2D/kD2H execution span on the device's compute (kKL) or copy
  /// track.
  void gpu_op(int gid, NameId kind, sim::SimTime start, sim::SimTime end,
              std::initializer_list<TraceArg> args = {});
  /// A dispatcher wake/sleep instant on the device's dispatch track.
  void dispatcher_event(int gid, bool wake, sim::SimTime ts,
                        std::initializer_list<TraceArg> args = {});
  /// A counter sample (queue depth) on the dispatch track.
  void gpu_counter(int gid, NameId name, sim::SimTime ts, double value);
  /// A named instant on the device's dispatch track (scheduler milestones
  /// that are neither wake nor sleep, e.g. feedback-engine departures).
  void gpu_instant(int gid, NameId name, sim::SimTime ts,
                   std::initializer_list<TraceArg> args = {});
  bool has_gpu(int gid) const { return gpu_tracks_.count(gid) != 0; }
  const std::map<int, GpuTracks>& gpu_tracks() const { return gpu_tracks_; }

  // ---- network tracks ----
  /// The transmission track of the directed link `from` -> `to`.
  int link_track(int from, int to);

  // ---- request lifecycle ----
  /// Starts the lifecycle record (and thread track) of one request.
  RequestTrace& begin_request(std::uint64_t app_id,
                              const std::string& app_type,
                              const std::string& tenant, int origin_node,
                              sim::SimTime now, double tenant_weight = 1.0);
  /// Records a phase transition. Unknown app_ids get a lazily created
  /// record, so backend-only tests can trace without a frontend.
  void request_phase(std::uint64_t app_id, ReqPhase phase, sim::SimTime now);
  /// Records the placement decision (which device/node the request bound to)
  /// so attribution can blame the right engine, dispatcher and link.
  void request_bound(std::uint64_t app_id, int gid, int node);
  /// The request's thread track (lazily created like request_phase).
  int request_track(std::uint64_t app_id);
  /// Closes the record and emits the umbrella "request" span. The span args
  /// carry the full lifecycle (ids, binding, weight, encoded steps) so the
  /// exported JSON alone reproduces the profiler's input. The steps are
  /// encoded at export, from the record as it stands then.
  void end_request(std::uint64_t app_id, sim::SimTime now);
  /// Counts the completions of issued requests (issued_at >= 0) per
  /// `width`-wide bucket of completion time (completed_at / width) as
  /// end_request records them, so a per-window consumer reads a count
  /// instead of rescanning requests(). Off until called; `width` > 0.
  void count_completions_per(sim::SimTime width);
  /// Completions counted in `bucket` so far (0 when not counting).
  std::int64_t completions_in(std::int64_t bucket) const;

  // ---- interference flight recorder ----
  /// Turns the occupant flight recorder on. Off (the default), occupant()
  /// is a no-op and a run is byte-for-byte identical to one that never
  /// heard of forensics. The ring is bounded: past `capacity` stamps the
  /// oldest are evicted (and counted in occupants_dropped()).
  void enable_forensics(std::size_t capacity = kDefaultForensicsCapacity);
  bool forensics_enabled() const { return forensics_enabled_; }
  /// Records that `tenant` held `resource` over [begin, end). No-op unless
  /// enable_forensics() ran; empty or inverted stamps are ignored.
  void occupant(const std::string& resource, const std::string& tenant,
                sim::SimTime begin, sim::SimTime end);
  const std::deque<OccupantStamp>& occupants() const { return occupants_; }
  std::int64_t occupants_dropped() const { return occupants_dropped_; }

  static constexpr std::size_t kDefaultForensicsCapacity = 1 << 16;

  // ---- run-level metadata ----
  /// Key/value labels describing the run (mode, policies, topology); the
  /// export writes them as one metadata event and reports echo them.
  void set_meta(const std::string& key, const std::string& value);
  const std::map<std::string, std::string>& meta() const { return meta_; }

  // ---- introspection / export ----
  const std::vector<Event>& events() const { return events_; }
  std::span<const Arg> args(const Event& e) const {
    return {args_.data() + e.first_arg, e.arg_count};
  }
  /// A kName or kText arg's string; empty for the other kinds.
  std::string_view text(const Arg& a) const;
  const std::vector<Track>& tracks() const { return tracks_; }
  const std::vector<ProcessInfo>& processes() const { return processes_; }
  const std::map<std::uint64_t, RequestTrace>& requests() const {
    return requests_;
  }
  /// The record of `app_id`, or nullptr.
  const RequestTrace* find_request(std::uint64_t app_id) const;

 private:
  RequestTrace& request_or_create(std::uint64_t app_id);
  static constexpr std::size_t kMaxArgs = 255;  // Event::arg_count's range
  void record(EventType type, int track, NameId name, sim::SimTime ts,
              sim::SimTime dur, double value,
              std::initializer_list<TraceArg> args);

  // Names live in a deque, so the string_views keying the index stay valid
  // as it grows. Only intern() reads the index; recording never does.
  std::deque<std::string> names_;
  std::map<std::string_view, NameId> name_ids_;
  std::string concat_;  // the three-part intern()'s reused buffer
  std::vector<std::string> texts_;  // kText values
  std::vector<ProcessInfo> processes_;
  std::vector<int> next_tid_;  // by pid
  std::vector<Track> tracks_;
  std::vector<Event> events_;
  std::vector<Arg> args_;
  std::map<std::string, int> process_by_name_;
  std::map<int, GpuTracks> gpu_tracks_;
  std::map<std::pair<int, int>, int> link_tracks_;
  // Map nodes never move, so an index can hold their addresses. App ids
  // are handed out in sequence, so a vector indexed by id finds a record
  // in O(1); an id far past the others is left to the map's O(log n).
  std::map<std::uint64_t, RequestTrace> requests_;
  std::vector<RequestTrace*> request_by_id_;
  std::map<std::string, std::string> meta_;
  sim::SimTime completion_width_ = 0;  // 0: not counting
  std::vector<std::int64_t> completions_;  // by completion bucket
  bool forensics_enabled_ = false;
  std::size_t forensics_capacity_ = kDefaultForensicsCapacity;
  std::deque<OccupantStamp> occupants_;
  std::int64_t occupants_dropped_ = 0;
};

}  // namespace strings::obs
