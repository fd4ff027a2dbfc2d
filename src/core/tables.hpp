// The GPU Affinity Mapper's bookkeeping tables.
//
// Device Status Table (DST): static weight + dynamic load per GPU, updated by
// the Target GPU Selector as applications bind and exit.
//
// Scheduler Feedback Table (SFT): history of fine-grain per-application
// characteristics reported by device-level schedulers through the Feedback
// Engine. Keyed by application type; exponentially averaged so decisions
// track behaviour changes over time.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/gpool.hpp"
#include "simcore/flat_map.hpp"
#include "simcore/sim_time.hpp"

namespace strings::core {

struct DeviceStatus {
  Gid gid = -1;
  double weight = 1.0;
  /// Number of applications currently bound (GMin's "device load").
  int load = 0;
  /// Cumulative applications ever bound (GRR bookkeeping / stats).
  std::int64_t total_bound = 0;
};

class DeviceStatusTable {
 public:
  /// Empty table; rows arrive via load_row() (control-plane DST sync).
  DeviceStatusTable() = default;

  explicit DeviceStatusTable(const GMap& gmap) {
    for (const auto& e : gmap.entries()) {
      rows_.push_back(DeviceStatus{e.gid, e.weight, 0, 0});
    }
  }

  /// Overwrites (or appends) one row verbatim — used when decoding a DST
  /// snapshot received from the PlacementService.
  void load_row(const DeviceStatus& row) {
    const auto idx = static_cast<std::size_t>(row.gid);
    if (idx >= rows_.size()) rows_.resize(idx + 1);
    rows_[idx] = row;
  }

  DeviceStatus& row(Gid gid) { return rows_.at(static_cast<std::size_t>(gid)); }
  const DeviceStatus& row(Gid gid) const {
    return rows_.at(static_cast<std::size_t>(gid));
  }
  const std::vector<DeviceStatus>& rows() const { return rows_; }

  void on_bind(Gid gid) {
    auto& r = row(gid);
    ++r.load;
    ++r.total_bound;
  }
  void on_unbind(Gid gid) {
    auto& r = row(gid);
    if (r.load > 0) --r.load;
  }

 private:
  std::vector<DeviceStatus> rows_;
};

/// One application's characteristics as measured by a device-level Request
/// Monitor over a full run (the record the Feedback Engine piggybacks on
/// cudaThreadExit).
struct FeedbackRecord {
  std::string app_type;
  double exec_time_s = 0.0;      // wall time on the backend
  double gpu_time_s = 0.0;       // kernel residency
  double transfer_time_s = 0.0;  // copy-engine time
  double mem_bw_gbps = 0.0;      // bytes accessed / gpu time
  double gpu_util = 0.0;         // gpu_time / exec_time
  Gid gid = -1;                  // where it ran

  bool operator==(const FeedbackRecord&) const = default;
};

class SchedulerFeedbackTable {
 public:
  /// EWMA smoothing factor for successive records of the same app type.
  explicit SchedulerFeedbackTable(double alpha = 0.5) : alpha_(alpha) {}

  void update(const FeedbackRecord& rec) {
    auto it = rows_.find(rec.app_type);
    if (it == rows_.end()) {
      rows_.emplace(rec.app_type, Row{rec, 1});
      return;
    }
    Row& row = it->second;
    auto mix = [this](double& old_v, double new_v) {
      old_v = alpha_ * new_v + (1.0 - alpha_) * old_v;
    };
    mix(row.rec.exec_time_s, rec.exec_time_s);
    mix(row.rec.gpu_time_s, rec.gpu_time_s);
    mix(row.rec.transfer_time_s, rec.transfer_time_s);
    mix(row.rec.mem_bw_gbps, rec.mem_bw_gbps);
    mix(row.rec.gpu_util, rec.gpu_util);
    row.rec.gid = rec.gid;
    ++row.samples;
  }

  /// Smoothed record for an app type, if any feedback has arrived.
  std::optional<FeedbackRecord> lookup(const std::string& app_type) const {
    auto it = rows_.find(app_type);
    if (it == rows_.end()) return std::nullopt;
    return it->second.rec;
  }

  int samples(const std::string& app_type) const {
    auto it = rows_.find(app_type);
    return it == rows_.end() ? 0 : it->second.samples;
  }

  std::size_t size() const { return rows_.size(); }

  /// One smoothed row with its sample count, for snapshot serialization.
  struct Entry {
    FeedbackRecord rec;
    int samples = 0;

    bool operator==(const Entry&) const = default;
  };

  /// All rows in key order (deterministic wire encoding).
  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    out.reserve(rows_.size());
    for (const auto& [type, row] : rows_) {
      out.push_back(Entry{row.rec, row.samples});
    }
    return out;
  }

  /// Installs a row verbatim (decoding a snapshot), replacing any existing
  /// row for the same app type.
  void load(const Entry& e) { rows_[e.rec.app_type] = Row{e.rec, e.samples}; }

 private:
  struct Row {
    FeedbackRecord rec;
    int samples = 0;
  };
  double alpha_;
  sim::FlatMap<std::string, Row> rows_;
};

}  // namespace strings::core
