// Evaluation metrics (paper §V-A) and result-table formatting.
//
//   Weighted speedup (eq. 2): mean over applications of
//       T_baseline(app) / T_policy(app)
//   computed from mean request completion (response) times.
//
//   Jain's fairness index (eq. 3): J = (sum x)^2 / (n * sum x^2) with
//   x_i = attained service / assigned share; J = 1 is perfectly fair.
#pragma once

#include <string>
#include <vector>

#include "simcore/sim_time.hpp"

namespace strings::metrics {

/// Weighted speedup of `policy` times against `baseline` times (pairwise;
/// both vectors ordered by application). Empty input returns 0.
double weighted_speedup(const std::vector<double>& baseline_times,
                        const std::vector<double>& policy_times);

/// Jain's fairness index over normalized allocations x_i = attained_i /
/// share_i. Returns 1.0 for n <= 1.
double jain_fairness(const std::vector<double>& attained,
                     const std::vector<double>& shares);

/// Convenience for equal shares.
double jain_fairness(const std::vector<double>& attained);

double mean(const std::vector<double>& v);
double geomean(const std::vector<double>& v);
/// p-th percentile (0..100) by linear interpolation between closest ranks
/// on a sorted copy; 0 for empty input. p is clamped to [0, 100], so p0 is
/// the minimum and p100 the maximum.
double percentile(std::vector<double> v, double p);
/// Population coefficient of variation (stddev / mean); 0 for empty input.
double coeff_of_variation(const std::vector<double>& v);

/// Fixed-width results table (printed by every bench binary).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  /// Formats a double with 2 decimal places (the papers' "x.xx x" style).
  static std::string fmt(double v, int precision = 2);
  /// Renders with aligned columns.
  std::string to_string() const;
  /// RFC-4180-ish CSV rendering (quotes cells containing commas/quotes).
  std::string to_csv() const;
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace strings::metrics
