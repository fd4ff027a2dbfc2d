#include "obs/slo.hpp"

#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace strings::obs {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw SloParseError("line " + std::to_string(line) + ": " + what);
}

double to_double(int line, const std::string& v) {
  try {
    std::size_t used = 0;
    const double d = std::stod(v, &used);
    if (used != v.size()) fail(line, "bad number '" + v + "'");
    return d;
  } catch (const SloParseError&) {
    throw;
  } catch (const std::exception&) {
    fail(line, "bad number '" + v + "'");
  }
}

int to_int(int line, const std::string& v) {
  try {
    std::size_t used = 0;
    const int n = std::stoi(v, &used);
    if (used != v.size()) fail(line, "bad integer '" + v + "'");
    return n;
  } catch (const SloParseError&) {
    throw;
  } catch (const std::exception&) {
    fail(line, "bad integer '" + v + "'");
  }
}

void finish_rule(int line, SloRule* rule) {
  if (rule->metric.empty()) {
    fail(line, "rule '" + rule->name + "' has no metric");
  }
  if (!rule->has_warn && !rule->has_fail) {
    fail(line, "rule '" + rule->name + "' needs warn and/or fail");
  }
  if (rule->burn_windows < 1) {
    fail(line, "rule '" + rule->name + "' burn_windows must be >= 1");
  }
}

}  // namespace

std::vector<SloRule> parse_slo_rules(const std::string& text) {
  std::vector<SloRule> rules;
  bool in_rule = false;
  SloRule current;
  int rule_start_line = 0;
  int line_no = 0;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') fail(line_no, "unterminated section header");
      if (in_rule) {
        finish_rule(rule_start_line, &current);
        rules.push_back(std::move(current));
      }
      current = SloRule{};
      current.name = trim(line.substr(1, line.size() - 2));
      if (current.name.empty()) fail(line_no, "empty rule name");
      rule_start_line = line_no;
      in_rule = true;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected key = value");
    if (!in_rule) fail(line_no, "key outside a [rule] section");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) fail(line_no, "empty value for '" + key + "'");
    if (key == "metric") {
      current.metric = value;
    } else if (key == "reducer") {
      if (!is_valid_reducer(value)) {
        fail(line_no, "unknown reducer '" + value + "'");
      }
      current.reducer = value;
    } else if (key == "op") {
      if (value != "gt" && value != "lt") {
        fail(line_no, "op must be gt or lt, got '" + value + "'");
      }
      current.op = value;
    } else if (key == "warn") {
      current.warn = to_double(line_no, value);
      current.has_warn = true;
    } else if (key == "fail") {
      current.fail = to_double(line_no, value);
      current.has_fail = true;
    } else if (key == "burn_windows") {
      current.burn_windows = to_int(line_no, value);
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (in_rule) {
    finish_rule(rule_start_line, &current);
    rules.push_back(std::move(current));
  }
  if (rules.empty()) throw SloParseError("no [rule] sections found");
  return rules;
}

std::vector<SloRule> load_slo_rules(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open SLO rules: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_slo_rules(buf.str());
  } catch (const SloParseError& e) {
    throw SloParseError(path + ": " + e.what());
  }
}

bool slo_metric_match(const std::string& pattern, const std::string& name) {
  // Split both on '/'; '*' matches exactly one segment.
  std::size_t p = 0;
  std::size_t n = 0;
  while (true) {
    const std::size_t pe = pattern.find('/', p);
    const std::size_t ne = name.find('/', n);
    const std::string pseg = pattern.substr(
        p, pe == std::string::npos ? std::string::npos : pe - p);
    const std::string nseg =
        name.substr(n, ne == std::string::npos ? std::string::npos : ne - n);
    if (pseg != "*" && pseg != nseg) return false;
    if (pe == std::string::npos || ne == std::string::npos) {
      return pe == std::string::npos && ne == std::string::npos;
    }
    p = pe + 1;
    n = ne + 1;
  }
}

SloWatchdog::SloWatchdog(std::vector<SloRule> rules)
    : rules_(std::move(rules)) {}

std::vector<SloAlert> SloWatchdog::evaluate(const Window& w) {
  std::vector<SloAlert> out;
  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    const SloRule& rule = rules_[ri];
    // Expand the pattern against this window's series. Window maps are
    // name-sorted, so expansion (and thus alert order) is deterministic.
    std::vector<std::string> matched;
    if (rule.metric.find('*') == std::string::npos) {
      matched.push_back(rule.metric);
    } else {
      for (const auto& [name, p] : w.series) {
        if (slo_metric_match(rule.metric, name)) matched.push_back(name);
      }
      for (const auto& [name, h] : w.hists) {
        if (w.series.count(name) == 0 && slo_metric_match(rule.metric, name)) {
          matched.push_back(name);
        }
      }
    }
    for (const auto& series : matched) {
      const auto reduced = reduce_window(w, series, rule.reducer);
      Burn& burn = burn_[{ri, series}];
      if (!reduced.has_value()) {
        // No data: idle window, not a violation. The burn streak restarts.
        burn = Burn{};
        continue;
      }
      const double v = *reduced;
      const auto trips = [&](double threshold) {
        return rule.op == "lt" ? v < threshold : v > threshold;
      };
      const bool failed = rule.has_fail && trips(rule.fail);
      const bool warned = rule.has_warn && trips(rule.warn);
      auto raise = [&](const char* severity, double threshold) {
        SloAlert a;
        a.window = w.index;
        a.at = w.end;
        a.rule = rule.name;
        a.series = series;
        a.severity = severity;
        a.value = v;
        a.threshold = threshold;
        out.push_back(a);
      };
      if (failed) {
        ++fail_count_;
        raise("fail", rule.fail);
        ++burn.streak;
        if (burn.streak >= rule.burn_windows && !burn.latched) {
          burn.latched = true;
          ++hard_violations_;
          raise("hard", rule.fail);
        }
      } else {
        burn = Burn{};
        if (warned) {
          ++warn_count_;
          raise("warn", rule.warn);
        }
      }
    }
  }
  alerts_.insert(alerts_.end(), out.begin(), out.end());
  return out;
}

namespace {

void append_alert(std::string* out, const SloAlert& a) {
  out->append("{\"rule\":");
  json::append_string(out, a.rule);
  out->append(",\"series\":");
  json::append_string(out, a.series);
  out->append(",\"severity\":");
  json::append_string(out, a.severity);
  out->append(",\"window\":");
  out->append(std::to_string(a.window));
  out->append(",\"at_ms\":");
  json::append_number(out, sim::to_millis(a.at));
  out->append(",\"value\":");
  json::append_number(out, a.value);
  out->append(",\"threshold\":");
  json::append_number(out, a.threshold);
  if (!a.exemplars.empty()) {
    out->append(",\"exemplars\":[");
    for (std::size_t i = 0; i < a.exemplars.size(); ++i) {
      if (i != 0) out->push_back(',');
      json::append_string(out, a.exemplars[i]);
    }
    out->push_back(']');
  }
  out->push_back('}');
}

}  // namespace

std::string render_alerts_json(const std::vector<SloAlert>& alerts) {
  std::string out = "[";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_alert(&out, alerts[i]);
  }
  out.push_back(']');
  return out;
}

void write_alerts_jsonl(std::ostream& os,
                        const std::vector<SloAlert>& alerts) {
  for (const auto& a : alerts) {
    std::string line = "{\"schema\":\"strings.alert.v1\",";
    std::string body;
    append_alert(&body, a);
    line.append(body.substr(1));  // splice the schema field into the object
    line.push_back('\n');
    os << line;
  }
}

}  // namespace strings::obs
