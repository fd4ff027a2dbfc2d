// Test oracle: the sample-series utilization tracer as it was before
// gpu::UtilizationAccumulator replaced it. It stored one sample per device
// state change and re-walked the whole series in each reducer (once per
// 100 ms cell for the CoV). The accumulator must reproduce all six of its
// statistics bit for bit, so this copy is kept verbatim as the reference.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "simcore/sim_time.hpp"

namespace strings::testing_oracle {

struct UtilizationSample {
  sim::SimTime time = 0;
  double compute_util = 0.0;  // sum of resident occupancy, clipped to [0,1]
  double bw_util = 0.0;       // demanded bandwidth / device bandwidth, clipped
  bool h2d_busy = false;
  bool d2h_busy = false;
  bool switching = false;     // device is paying a context switch
  int resident_kernels = 0;
};

class UtilizationTracer {
 public:
  explicit UtilizationTracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void record(const UtilizationSample& s) {
    if (!enabled_) return;
    // Collapse consecutive samples at the same timestamp: the last wins.
    if (!samples_.empty() && samples_.back().time == s.time) {
      samples_.back() = s;
      return;
    }
    samples_.push_back(s);
  }

  const std::vector<UtilizationSample>& samples() const { return samples_; }

  /// Time-weighted mean of compute utilization over [t0, t1).
  double mean_compute_util(sim::SimTime t0, sim::SimTime t1) const {
    return mean_of(t0, t1, [](const UtilizationSample& s) { return s.compute_util; });
  }

  /// Time-weighted mean of bandwidth utilization over [t0, t1).
  double mean_bw_util(sim::SimTime t0, sim::SimTime t1) const {
    return mean_of(t0, t1, [](const UtilizationSample& s) { return s.bw_util; });
  }

  /// Fraction of [t0, t1) during which no kernel was resident.
  double compute_idle_fraction(sim::SimTime t0, sim::SimTime t1) const {
    return mean_of(t0, t1, [](const UtilizationSample& s) {
      return s.resident_kernels == 0 ? 1.0 : 0.0;
    });
  }

  /// Fraction of [t0, t1) spent context switching (the Fig. 2 "glitches").
  double switching_fraction(sim::SimTime t0, sim::SimTime t1) const {
    return mean_of(t0, t1,
                   [](const UtilizationSample& s) { return s.switching ? 1.0 : 0.0; });
  }

  /// Number of maximal intervals in [t0, t1) where compute is idle for at
  /// least `min_len` — the visible utilization gaps of Fig. 2.
  int idle_gap_count(sim::SimTime t0, sim::SimTime t1, sim::SimTime min_len) const;

  /// Coefficient of variation of compute utilization sampled on a fixed grid;
  /// lower means "more uniform" usage (the Fig. 2 claim).
  double compute_util_cov(sim::SimTime t0, sim::SimTime t1,
                          sim::SimTime grid) const;

 private:
  template <typename F>
  double mean_of(sim::SimTime t0, sim::SimTime t1, F&& value) const {
    if (samples_.empty() || t1 <= t0) return 0.0;
    double acc = 0.0;
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      const sim::SimTime seg_start = std::max(samples_[i].time, t0);
      const sim::SimTime seg_end =
          std::min(i + 1 < samples_.size() ? samples_[i + 1].time : t1, t1);
      if (seg_end > seg_start) {
        acc += value(samples_[i]) * static_cast<double>(seg_end - seg_start);
      }
    }
    return acc / static_cast<double>(t1 - t0);
  }

  bool enabled_;
  std::vector<UtilizationSample> samples_;
};

inline int UtilizationTracer::idle_gap_count(sim::SimTime t0, sim::SimTime t1,
                                      sim::SimTime min_len) const {
  if (samples_.empty() || t1 <= t0) return 0;
  int gaps = 0;
  sim::SimTime gap_start = -1;
  auto close_gap = [&](sim::SimTime end) {
    if (gap_start >= 0 && end - gap_start >= min_len) ++gaps;
    gap_start = -1;
  };
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const sim::SimTime seg_start = std::max(samples_[i].time, t0);
    const sim::SimTime seg_end =
        std::min(i + 1 < samples_.size() ? samples_[i + 1].time : t1, t1);
    if (seg_end <= seg_start) continue;
    const bool idle = samples_[i].resident_kernels == 0;
    if (idle) {
      if (gap_start < 0) gap_start = seg_start;
    } else {
      close_gap(seg_start);
    }
  }
  close_gap(t1);
  return gaps;
}

inline double UtilizationTracer::compute_util_cov(sim::SimTime t0, sim::SimTime t1,
                                           sim::SimTime grid) const {
  if (samples_.empty() || t1 <= t0 || grid <= 0) return 0.0;
  std::vector<double> cells;
  for (sim::SimTime t = t0; t < t1; t += grid) {
    cells.push_back(mean_compute_util(t, std::min(t + grid, t1)));
  }
  if (cells.empty()) return 0.0;
  double mean = 0.0;
  for (double c : cells) mean += c;
  mean /= static_cast<double>(cells.size());
  if (mean == 0.0) return 0.0;
  double var = 0.0;
  for (double c : cells) var += (c - mean) * (c - mean);
  var /= static_cast<double>(cells.size());
  return std::sqrt(var) / mean;
}

}  // namespace strings::testing_oracle
