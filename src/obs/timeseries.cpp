#include "obs/timeseries.hpp"

#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace strings::obs {

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::int64_t>& cum, double q) {
  if (cum.empty() || cum.back() <= 0) return 0.0;
  const double total = static_cast<double>(cum.back());
  const double rank = q * total;
  std::size_t i = 0;
  while (i + 1 < cum.size() && static_cast<double>(cum[i]) < rank) ++i;
  if (i >= bounds.size()) {
    // The +inf bucket has no upper edge to interpolate toward; clamp to the
    // largest finite bound (or 0 for a bounds-less histogram).
    return bounds.empty() ? 0.0 : bounds.back();
  }
  const double upper = bounds[i];
  const double lower = i == 0 ? 0.0 : bounds[i - 1];
  const double below = i == 0 ? 0.0 : static_cast<double>(cum[i - 1]);
  const double in_bucket = static_cast<double>(cum[i]) - below;
  if (in_bucket <= 0.0) return upper;
  return lower + (upper - lower) * ((rank - below) / in_bucket);
}

double WindowHistogram::quantile(double q) const {
  return histogram_quantile(bounds, cum, q);
}

TimeSeries::TimeSeries(const Registry& registry, Config config)
    : registry_(registry), config_(config) {
  if (config_.window <= 0) {
    throw std::invalid_argument("TimeSeries window must be positive");
  }
}

void TimeSeries::resolve() {
  scalars_.clear();
  hists_.clear();
  // A name seen for the first time starts at 0, so its first window's delta
  // is its whole cumulative value.
  const auto entry = [this](const std::string& name) {
    return &*window_.series.try_emplace(name).first;
  };
  registry_.for_each(
      [&](const std::string& name, const Counter& c) {
        scalars_.push_back({&c, nullptr, entry(name)});
      },
      [&](const std::string& name, const Gauge& g) {
        scalars_.push_back({nullptr, &g, entry(name)});
      },
      [&](const std::string& name, const Histogram& h) {
        hists_.push_back({&name, &h, &prev_hist_[name]});
      });
  resolved_size_ = registry_.size();
}

const Window& TimeSeries::close_window(sim::SimTime end, bool partial) {
  if (registry_.size() != resolved_size_) resolve();
  Window& w = window_;
  w.index = next_index_++;
  w.start = last_end_;
  w.end = end;
  w.partial = partial;

  // The handles are in name order, so the moved list is too.
  w.moved.clear();
  for (const ScalarHandle& s : scalars_) {
    SeriesPoint& p = s.entry->second;
    const double value = s.counter != nullptr
                             ? static_cast<double>(s.counter->value())
                             : s.gauge->value();
    p.delta = value - p.value;
    p.value = value;
    if (p.delta != 0.0) w.moved.push_back(s.entry);
  }

  w.hists.clear();
  for (const HistHandle& h : hists_) {
    HistState& prev = *h.prev;
    if (h.hist->count() == prev.count) continue;  // idle: no entry
    std::vector<std::int64_t> cum = h.hist->cumulative();
    WindowHistogram wh;
    wh.bounds = h.hist->bounds();
    wh.cum = cum;
    // Cumulative-over-buckets of per-window bucket deltas equals the delta
    // of the cumulative buckets, so the window histogram stays monotone.
    for (std::size_t b = 0; b < prev.cum.size(); ++b) wh.cum[b] -= prev.cum[b];
    wh.count = wh.cum.back();
    wh.sum = h.hist->sum() - prev.sum;
    prev = {std::move(cum), h.hist->sum(), h.hist->count()};
    w.hists.emplace_hint(w.hists.end(), *h.name, std::move(wh));
  }

  last_end_ = end;
  return w;
}

bool is_valid_reducer(const std::string& reducer) {
  return reducer == "value" || reducer == "delta" || reducer == "rate" ||
         reducer == "mean" || reducer == "p50" || reducer == "p95" ||
         reducer == "p99";
}

std::optional<double> reduce_window(const Window& w, const std::string& series,
                                    const std::string& reducer) {
  const auto sit = w.series.find(series);
  if (sit != w.series.end()) {
    if (reducer == "value") return sit->second.value;
    if (reducer == "delta") return sit->second.delta;
    if (reducer == "rate") {
      const double s = w.seconds();
      return s > 0.0 ? sit->second.delta / s : 0.0;
    }
    return std::nullopt;  // percentile reducers need a histogram
  }
  const auto hit = w.hists.find(series);
  if (hit == w.hists.end()) return std::nullopt;
  const WindowHistogram& h = hit->second;
  if (reducer == "delta") return static_cast<double>(h.count);
  if (reducer == "rate") {
    const double s = w.seconds();
    return s > 0.0 ? static_cast<double>(h.count) / s : 0.0;
  }
  if (reducer == "mean") return h.mean();
  if (reducer == "p50") return h.quantile(0.50);
  if (reducer == "p95") return h.quantile(0.95);
  if (reducer == "p99") return h.quantile(0.99);
  return std::nullopt;  // "value" has no meaning for a window histogram
}

void write_stream_line(std::ostream& os, const Window& w,
                       const std::string& alerts_json,
                       const std::vector<std::string>& exemplar_ids) {
  std::string line;
  line.reserve(512);
  line.append("{\"schema\":\"strings.stream.v1\",\"window\":");
  line.append(std::to_string(w.index));
  line.append(",\"start_ms\":");
  json::append_number(&line, sim::to_millis(w.start));
  line.append(",\"end_ms\":");
  json::append_number(&line, sim::to_millis(w.end));
  if (w.partial) line.append(",\"partial\":true");
  line.append(",\"series\":{");
  bool first = true;
  for (const auto* moved : w.moved) {  // quiet series stay implicit
    if (!first) line.push_back(',');
    first = false;
    json::append_string(&line, moved->first);
    line.append(":{\"value\":");
    json::append_number(&line, moved->second.value);
    line.append(",\"delta\":");
    json::append_number(&line, moved->second.delta);
    line.push_back('}');
  }
  line.append("},\"quantiles\":{");
  first = true;
  for (const auto& [name, h] : w.hists) {
    if (!first) line.push_back(',');
    first = false;
    json::append_string(&line, name);
    line.append(":{\"count\":");
    line.append(std::to_string(h.count));
    line.append(",\"sum\":");
    json::append_number(&line, h.sum);
    line.append(",\"p50\":");
    json::append_number(&line, h.quantile(0.50));
    line.append(",\"p95\":");
    json::append_number(&line, h.quantile(0.95));
    line.append(",\"p99\":");
    json::append_number(&line, h.quantile(0.99));
    line.push_back('}');
  }
  line.push_back('}');
  if (!alerts_json.empty()) {
    line.append(",\"alerts\":");
    line.append(alerts_json);
  }
  if (!exemplar_ids.empty()) {
    line.append(",\"exemplars\":[");
    for (std::size_t i = 0; i < exemplar_ids.size(); ++i) {
      if (i != 0) line.push_back(',');
      json::append_string(&line, exemplar_ids[i]);
    }
    line.push_back(']');
  }
  line.append("}\n");
  os.write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace strings::obs
