// obs::TimeSeries — windowed aggregation over the metrics registry (the
// streaming half of the observability layer).
//
// The Registry is cumulative: counters only grow, histograms only fill.
// TimeSeries turns that into fixed-width tumbling windows of *virtual* time:
// at each window close it reads every instrument through a handle resolved
// from Registry::for_each (re-resolved only when the registry has grown),
// diffs against the previous close, and derives per-window statistics —
//
//   scalar series (counters + gauges): value at close, delta over the window
//     (rate = delta / window seconds is derived on demand);
//   histograms: per-window cumulative bucket counts (the delta of cumulative
//     buckets is itself cumulative over buckets), from which interpolated
//     window-local quantiles (p50/p95/p99) fall out.
//
// One live Window is updated in place at each close and handed to a sink,
// so a consumer can stream it out (JSONL, one line per window) without
// waiting for run end; no closed window is kept. The sampling cadence rides
// on Simulation::schedule_weak — the owner (workloads::Testbed) re-arms a
// weak tick, so enabling the stream never extends a run.
//
// Everything here is a pure function of registry content and virtual time:
// no wall clock, no randomness — a streamed .jsonl is byte-identical across
// repeated runs (pinned by tests/stream_zero_overhead_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "simcore/sim_time.hpp"

namespace strings::obs {

/// One scalar series' state at a window close.
struct SeriesPoint {
  double value = 0.0;  // cumulative value at window close
  double delta = 0.0;  // change over this window
};

/// One histogram's activity within a single window.
struct WindowHistogram {
  /// Finite upper bounds, ascending (the Histogram's own bounds()).
  std::vector<double> bounds;
  /// Cumulative observation counts within this window: cum[i] observations
  /// <= bounds[i]; the final entry is the +inf bucket (== count).
  std::vector<std::int64_t> cum;
  std::int64_t count = 0;  // observations recorded in this window
  double sum = 0.0;        // sum of observations in this window

  double mean() const { return count > 0 ? sum / double(count) : 0.0; }
  /// Window-local interpolated quantile; see histogram_quantile.
  double quantile(double q) const;
};

/// Prometheus-style histogram quantile: finds the first bucket whose
/// cumulative count reaches q * total and interpolates linearly within its
/// [lower, upper] bounds. Observations beyond the last finite bound clamp
/// to it (the +inf bucket has no width to interpolate in). Returns 0 when
/// the histogram is empty.
double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::int64_t>& cum, double q);

/// One closed tumbling window: [start, end) in virtual time.
struct Window {
  std::uint64_t index = 0;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  /// Closed by TimeSeries::close_window with partial=true (run drained
  /// before the next full-width tick).
  bool partial = false;
  /// Every scalar instrument (counters and gauges), keyed by metric name.
  /// The in-memory map stays complete so rule evaluation can read values
  /// that happen to be flat.
  std::map<std::string, SeriesPoint> series;
  /// One `series` entry that moved, with its name rendered as a JSON
  /// string (quotes included) once, when the TimeSeries resolved it.
  struct Moved {
    const std::map<std::string, SeriesPoint>::value_type* entry;
    std::string_view json_key;
  };
  /// The `series` entries whose delta is non-zero this window, in name
  /// order: the ones the JSONL writer emits, so a line costs what moved,
  /// not what exists. Filled by TimeSeries::close_window and pointing into
  /// the `series` of the window it returns and the TimeSeries' rendered
  /// keys; a hand-built Window has none.
  std::vector<Moved> moved;
  /// Histograms that recorded at least one observation this window.
  std::map<std::string, WindowHistogram> hists;

  double seconds() const { return sim::to_seconds(end - start); }
};

/// Evaluates one reducer over one series of a closed window. Reducers:
///   value | delta | rate  — scalar series (rate is delta per second; for a
///                           histogram name these read the window count)
///   mean | p50 | p95 | p99 — histogram series (window-local)
/// Returns nullopt when the series is absent from the window (no data) or
/// the reducer does not apply — SLO rules skip silently in that case.
std::optional<double> reduce_window(const Window& w, const std::string& series,
                                    const std::string& reducer);

/// True when `reducer` is one of the names reduce_window understands.
bool is_valid_reducer(const std::string& reducer);

class TimeSeries {
 public:
  struct Config {
    /// Tumbling window width (virtual time).
    sim::SimTime window = sim::msec(10);
  };

  /// Windows over `registry`, which must outlive this TimeSeries.
  TimeSeries(const Registry& registry, Config config);
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  const Config& config() const { return config_; }

  /// Closes the window ending at `end` over the registry's current state
  /// and returns it. `end` must be strictly greater than the previous
  /// close. The returned reference is valid until the next close_window
  /// call, which updates the same Window in place.
  const Window& close_window(sim::SimTime end, bool partial = false);

  /// End of the last closed window (0 before the first close).
  sim::SimTime last_end() const { return last_end_; }
  /// Total windows closed (monotonic).
  std::uint64_t windows_closed() const { return next_index_; }

 private:
  using HistNode = std::map<std::string, WindowHistogram>::node_type;
  struct HistState {
    std::vector<std::int64_t> cum;  // empty until a close it moved in
    double sum = 0.0;
    std::int64_t count = 0;
    /// Its Window::hists entry while it is out of the window: a histogram
    /// that moves again reinserts the node, vectors and all, instead of
    /// allocating a new one.
    HistNode node;
    bool in_window = false;
  };
  /// A counter or a gauge (exactly one is set), its series entry and where
  /// its JSON key sits in keys_json_.
  struct ScalarHandle {
    const Counter* counter;
    const Gauge* gauge;
    std::map<std::string, SeriesPoint>::value_type* entry;
    std::size_t key_at;
    std::size_t key_len;
  };
  struct HistHandle {
    const std::string* name;  // the registry's key
    const Histogram* hist;
    HistState* prev;
  };
  /// Rebuilds the handles in the registry's name order. Series entries and
  /// histogram state persist across rebuilds, keyed by name.
  void resolve();

  const Registry& registry_;
  Config config_;
  std::uint64_t next_index_ = 0;
  sim::SimTime last_end_ = 0;
  /// Registry::size() at the last resolve(). Instruments are never
  /// removed, so an unchanged size means an unchanged instrument set.
  std::size_t resolved_size_ = 0;
  std::vector<ScalarHandle> scalars_;
  /// Every scalar's name as a JSON string, rendered at resolve().
  std::string keys_json_;
  std::vector<HistHandle> hists_;
  /// Each histogram's cumulative state at the last close it moved in.
  std::map<std::string, HistState> prev_hist_;
  /// The live window: `series` holds each scalar's last close, so the next
  /// close diffs against it in place.
  Window window_;
};

/// Renders one window as a single line-delimited JSON object
/// ("strings.stream.v1"): the moved scalar series (value + delta), window
/// histogram quantiles, and — when `alerts_json` is a non-empty JSON array
/// (see render_alerts_json) — the window's SLO alerts. When `exemplar_ids`
/// is non-empty the window's tail-exemplar ids ("w{window}.{rank}", see
/// obs::prof) ride along as an "exemplars" array — the full exemplar lines
/// (strings.exemplar.v1) are appended at run end once the forensics ring is
/// complete. Rendered into one reused buffer, terminated with '\n' and
/// written with one os.write; deterministic field order (name order + the
/// %.17g format_g17 renders).
void write_stream_line(std::ostream& os, const Window& w,
                       const std::string& alerts_json = std::string(),
                       const std::vector<std::string>& exemplar_ids = {});

}  // namespace strings::obs
