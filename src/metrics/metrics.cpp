#include "metrics/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace strings::metrics {

double weighted_speedup(const std::vector<double>& baseline_times,
                        const std::vector<double>& policy_times) {
  assert(baseline_times.size() == policy_times.size());
  if (baseline_times.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < baseline_times.size(); ++i) {
    if (policy_times[i] <= 0) continue;
    acc += baseline_times[i] / policy_times[i];
  }
  return acc / static_cast<double>(baseline_times.size());
}

double jain_fairness(const std::vector<double>& attained,
                     const std::vector<double>& shares) {
  assert(attained.size() == shares.size());
  if (attained.size() <= 1) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < attained.size(); ++i) {
    const double x = shares[i] > 0 ? attained[i] / shares[i] : 0.0;
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(attained.size()) * sum_sq);
}

double jain_fairness(const std::vector<double>& attained) {
  return jain_fairness(attained, std::vector<double>(attained.size(), 1.0));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += std::log(std::max(x, 1e-300));
  return std::exp(acc / static_cast<double>(v.size()));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double coeff_of_variation(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const double m = mean(v);
  if (m == 0.0) return 0.0;
  double var = 0.0;
  for (double x : v) var += (x - m) * (x - m);
  var /= static_cast<double>(v.size());
  return std::sqrt(var) / m;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << row[c];
      os << std::string(width[c] - row[c].size(), ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string out = "\"";
    for (const char c : cell) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
    return out;
  };
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : ",") << escape(row[c]);
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::print() const { std::fputs(to_string().c_str(), stdout); }

}  // namespace strings::metrics
