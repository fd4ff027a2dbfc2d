// obs::Registry — the uniform metrics surface of the Strings stack.
//
// Components register named instruments once and the registry renders one
// deterministic snapshot on demand (CSV or rows). Three instrument kinds:
//
//   Counter   — a monotonically increasing int64 cell the owner increments
//               on the hot path (e.g. dispatcher wakes, packets sent).
//   Gauge     — a point-in-time value; either set directly or backed by a
//               callback that the registry polls at collection time
//               (Prometheus-style collectors: queue depth, DST version).
//   Histogram — fixed cumulative buckets + count/sum/min/max (placement
//               latency, span durations). Bucket bounds are supplied at
//               registration so exports are stable across runs.
//
// Naming scheme (docs/observability.md): '/'-separated path, most-general
// first — "node0/gpu1/sched/wakes", "control_plane/agent0/select_rpcs",
// "node1/daemon/wire_bytes". Collection order is lexicographic, so CSV
// output is diff-stable.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace strings::obs {

class Counter {
 public:
  void inc(std::int64_t n = 1) { value_ += n; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  /// Current value: the callback when one is installed, else the set value.
  double value() const { return fn_ ? fn_() : value_; }

 private:
  friend class Registry;
  double value_ = 0.0;
  std::function<double()> fn_;
};

class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  /// Upper bounds, ascending; the implicit +inf bucket is not included.
  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i]; the final entry is
  /// the +inf bucket (== count()).
  std::vector<std::int64_t> cumulative() const;
  /// cumulative() into `*out`, reusing its storage.
  void cumulative(std::vector<std::int64_t>* out) const;

 private:
  std::vector<double> bounds_;       // ascending upper bounds
  std::vector<std::int64_t> buckets_;  // per-bucket (non-cumulative) counts
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class Registry {
 public:
  /// One flattened metric field, e.g. ("node0/gpu0/sched/wakes", "value", 3).
  struct Sample {
    std::string metric;
    std::string field;
    double value = 0.0;
  };

  /// Returns the counter registered under `name`, creating it on first use.
  Counter& counter(const std::string& name);
  /// Returns the settable gauge registered under `name`.
  Gauge& gauge(const std::string& name);
  /// Registers (or rebinds) a callback-backed gauge.
  void gauge_fn(const std::string& name, std::function<double()> fn);
  /// Returns the histogram under `name`; `bounds` applies on first creation.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  bool contains(const std::string& name) const;
  std::size_t size() const;

  /// Visits every instrument in one lexicographic walk by name, handing
  /// each to the callback of its kind. Instruments are never removed and
  /// live behind stable pointers, so a caller may keep the references as
  /// handles for the registry's lifetime. The one read path behind
  /// collect() and obs::TimeSeries.
  void for_each(
      const std::function<void(const std::string&, const Counter&)>& counter,
      const std::function<void(const std::string&, const Gauge&)>& gauge,
      const std::function<void(const std::string&, const Histogram&)>& hist)
      const;

  /// Flattens every instrument, lexicographically by name. Counters and
  /// gauges yield one "value" sample; histograms yield count/sum/min/max
  /// plus one cumulative "le_<bound>" sample per bucket and "le_inf".
  std::vector<Sample> collect() const;

  /// RFC-4180-ish CSV: header "metric,field,value", one row per sample.
  std::string to_csv() const;

 private:
  // std::map keeps collection order deterministic; unique_ptr keeps
  // references handed to components stable across registrations.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Default bucket bounds for latency-style histograms, in milliseconds.
std::vector<double> default_latency_buckets_ms();

/// Bucket bounds for slowdown-style histograms (response time / service
/// time, dimensionless, >= 1 for any queued request).
std::vector<double> slowdown_buckets();

/// Bucket bounds for request-level latencies, in milliseconds: like
/// default_latency_buckets_ms but extending to minutes, so end-to-end
/// response and queueing times of heavily queued runs don't clamp at the
/// top bucket.
std::vector<double> wide_latency_buckets_ms();

}  // namespace strings::obs
