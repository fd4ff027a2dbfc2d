#include "obs/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/number.hpp"

namespace strings::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);  // +1: the implicit +inf bucket
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

std::vector<std::int64_t> Histogram::cumulative() const {
  std::vector<std::int64_t> out(buckets_.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    acc += buckets_[i];
    out[i] = acc;
  }
  return out;
}

Counter& Registry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

void Registry::gauge_fn(const std::string& name, std::function<double()> fn) {
  gauge(name).fn_ = std::move(fn);
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

bool Registry::contains(const std::string& name) const {
  return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
         histograms_.count(name) != 0;
}

std::size_t Registry::size() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

void Registry::for_each(
    const std::function<void(const std::string&, const Counter&)>& counter,
    const std::function<void(const std::string&, const Gauge&)>& gauge,
    const std::function<void(const std::string&, const Histogram&)>& hist)
    const {
  // Merge the three name-sorted maps into one lexicographic stream.
  auto c = counters_.begin();
  auto g = gauges_.begin();
  auto h = histograms_.begin();
  auto next_name = [&]() -> const std::string* {
    const std::string* best = nullptr;
    if (c != counters_.end()) best = &c->first;
    if (g != gauges_.end() && (best == nullptr || g->first < *best)) {
      best = &g->first;
    }
    if (h != histograms_.end() && (best == nullptr || h->first < *best)) {
      best = &h->first;
    }
    return best;
  };
  while (const std::string* name = next_name()) {
    if (c != counters_.end() && &c->first == name) {
      counter(*name, *c->second);
      ++c;
    } else if (g != gauges_.end() && &g->first == name) {
      gauge(*name, *g->second);
      ++g;
    } else {
      hist(*name, *h->second);
      ++h;
    }
  }
}

std::vector<Registry::Sample> Registry::collect() const {
  std::vector<Sample> out;
  for_each(
      [&](const std::string& name, const Counter& c) {
        out.push_back({name, "value", static_cast<double>(c.value())});
      },
      [&](const std::string& name, const Gauge& g) {
        out.push_back({name, "value", g.value()});
      },
      [&](const std::string& name, const Histogram& hist) {
        out.push_back({name, "count", static_cast<double>(hist.count())});
        out.push_back({name, "sum", hist.sum()});
        out.push_back({name, "min", hist.min()});
        out.push_back({name, "max", hist.max()});
        const auto cum = hist.cumulative();
        char field[40];
        for (std::size_t i = 0; i < hist.bounds().size(); ++i) {
          std::snprintf(field, sizeof field, "le_%g", hist.bounds()[i]);
          out.push_back({name, field, static_cast<double>(cum[i])});
        }
        out.push_back({name, "le_inf", static_cast<double>(cum.back())});
      });
  return out;
}

std::string Registry::to_csv() const {
  std::ostringstream os;
  os << "metric,field,value\n";
  for (const auto& s : collect()) {
    char buf[kG17Chars];
    os << s.metric << ',' << s.field << ',' << format_g17(s.value, buf)
       << '\n';
  }
  return os.str();
}

std::vector<double> default_latency_buckets_ms() {
  return {0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0};
}

std::vector<double> slowdown_buckets() {
  return {1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 64.0};
}

std::vector<double> wide_latency_buckets_ms() {
  return {1.0,    5.0,    10.0,   50.0,    100.0,   500.0,  1000.0,
          2000.0, 5000.0, 10000.0, 20000.0, 60000.0, 120000.0};
}

}  // namespace strings::obs
