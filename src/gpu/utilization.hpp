// Utilization statistics for simulated GPU devices (the paper's Fig. 1 and
// Fig. 2): mean compute/bandwidth utilization, idle and context-switching
// fractions, the "glitch" count (idle gaps caused by context switching) and
// how uniform compute utilization is over time.
//
// The device reports its state at every change. The accumulator folds each
// constant segment into running sums when the next change closes it, so a
// run keeps no sample series and summary() costs one pass over the grid
// cells.
#pragma once

#include <vector>

#include "simcore/sim_time.hpp"

namespace strings::gpu {

/// What the statistics read of the device between two state changes.
struct UtilizationState {
  double compute_util = 0.0;  // sum of resident occupancy, clipped to [0,1]
  double bw_util = 0.0;       // demanded bandwidth / device bandwidth, clipped
  bool idle = true;           // no kernel resident
  bool switching = false;     // device is paying a context switch
};

/// Per-device utilization over [0, end).
struct DeviceUtilSummary {
  double mean_compute_util = 0.0;
  double mean_bw_util = 0.0;
  double idle_frac = 0.0;
  double switching_frac = 0.0;
  double util_cov = 0.0;  // coefficient of variation on a 100ms grid
  int idle_gaps = 0;      // idle intervals >= 5ms (Fig. 2 "glitches")
};

class UtilizationAccumulator {
 public:
  /// Cell width of the grid the compute-utilization CoV is taken over.
  static constexpr sim::SimTime kCovGrid = sim::msec(100);
  /// Shortest maximal idle interval that counts as a gap.
  static constexpr sim::SimTime kMinIdleGap = sim::msec(5);

  explicit UtilizationAccumulator(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// The device is in `state` from `time` on. Times never decrease; a
  /// change at the same time as the previous one replaces it.
  void record(sim::SimTime time, const UtilizationState& state);

  /// Time-weighted statistics over [0, end); all zero when nothing was
  /// recorded. Throws std::logic_error if `end` is before the last recorded
  /// change: folded segments cannot be clipped back.
  DeviceUtilSummary summary(sim::SimTime end) const;

 private:
  /// Sums of value × duration over the closed segments, and the gap scan.
  struct Totals {
    double compute = 0.0;
    double bw = 0.0;
    double idle = 0.0;
    double switching = 0.0;
    sim::SimTime gap_start = -1;  // start of the idle run in progress
    int gaps = 0;
  };
  static void fold(Totals& t, sim::SimTime from, sim::SimTime to,
                   const UtilizationState& s);
  static void close_gap(Totals& t, sim::SimTime at);
  double util_cov(sim::SimTime end) const;

  bool enabled_;
  bool started_ = false;
  // The open segment: the last recorded state, from its time on.
  sim::SimTime open_time_ = 0;
  UtilizationState open_state_;
  Totals totals_;
  /// Compute utilization × duration of the closed segments, per grid cell.
  std::vector<double> cells_;
};

}  // namespace strings::gpu
