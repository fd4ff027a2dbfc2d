#include "gpu/utilization.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace strings::gpu {

// Every sum adds one value × duration product per recorded segment, in time
// order, and skips empty segments: equal neighbouring states are not merged,
// because merging would change the floating-point sums.

void UtilizationAccumulator::record(sim::SimTime time,
                                    const UtilizationState& state) {
  if (!enabled_) return;
  if (started_) {
    assert(time >= open_time_);
    if (time == open_time_) {
      open_state_ = state;
      return;
    }
    fold(totals_, open_time_, time, open_state_);
    // Add the segment's clipped overlap to each grid cell it crosses.
    for (auto k = static_cast<std::size_t>(open_time_ / kCovGrid);
         static_cast<sim::SimTime>(k) * kCovGrid < time; ++k) {
      const sim::SimTime c0 = static_cast<sim::SimTime>(k) * kCovGrid;
      if (cells_.size() <= k) cells_.resize(k + 1, 0.0);
      cells_[k] += open_state_.compute_util *
                   static_cast<double>(std::min(time, c0 + kCovGrid) -
                                       std::max(open_time_, c0));
    }
  }
  started_ = true;
  open_time_ = time;
  open_state_ = state;
}

void UtilizationAccumulator::fold(Totals& t, sim::SimTime from,
                                  sim::SimTime to, const UtilizationState& s) {
  const auto len = static_cast<double>(to - from);
  t.compute += s.compute_util * len;
  t.bw += s.bw_util * len;
  t.idle += (s.idle ? 1.0 : 0.0) * len;
  t.switching += (s.switching ? 1.0 : 0.0) * len;
  if (s.idle) {
    if (t.gap_start < 0) t.gap_start = from;
  } else {
    close_gap(t, from);
  }
}

void UtilizationAccumulator::close_gap(Totals& t, sim::SimTime at) {
  if (t.gap_start >= 0 && at - t.gap_start >= kMinIdleGap) ++t.gaps;
  t.gap_start = -1;
}

DeviceUtilSummary UtilizationAccumulator::summary(sim::SimTime end) const {
  if (started_ && end < open_time_) {
    throw std::logic_error(
        "UtilizationAccumulator::summary: end precedes the last state change");
  }
  DeviceUtilSummary u;
  if (!started_ || end <= 0) return u;
  Totals t = totals_;
  if (end > open_time_) fold(t, open_time_, end, open_state_);
  close_gap(t, end);
  const auto len = static_cast<double>(end);
  u.mean_compute_util = t.compute / len;
  u.mean_bw_util = t.bw / len;
  u.idle_frac = t.idle / len;
  u.switching_frac = t.switching / len;
  u.util_cov = util_cov(end);
  u.idle_gaps = t.gaps;
  return u;
}

double UtilizationAccumulator::util_cov(sim::SimTime end) const {
  // Mean compute utilization per cell [c0, min(c0 + grid, end)): the closed
  // segments' sum, then the open segment's overlap.
  std::vector<double> cells;
  for (sim::SimTime c0 = 0; c0 < end; c0 += kCovGrid) {
    const sim::SimTime c1 = std::min(c0 + kCovGrid, end);
    const auto k = static_cast<std::size_t>(c0 / kCovGrid);
    double acc = k < cells_.size() ? cells_[k] : 0.0;
    const sim::SimTime from = std::max(open_time_, c0);
    if (c1 > from) {
      acc += open_state_.compute_util * static_cast<double>(c1 - from);
    }
    cells.push_back(acc / static_cast<double>(c1 - c0));
  }
  double mean = 0.0;
  for (double c : cells) mean += c;
  mean /= static_cast<double>(cells.size());
  if (mean == 0.0) return 0.0;
  double var = 0.0;
  for (double c : cells) var += (c - mean) * (c - mean);
  var /= static_cast<double>(cells.size());
  return std::sqrt(var) / mean;
}

}  // namespace strings::gpu
