// Benchmark application models (paper Table I).
//
// Each of the ten CUDA SDK / Rodinia applications is modelled as an
// iterative CPU+GPU phase structure whose aggregate characteristics —
// GPU-time fraction, data-transfer fraction, and approximate memory
// bandwidth (total kernel data accesses / GPU time) — track Table I.
//
// Calibration notes:
//  - Nominal kernel durations are for the reference device (Tesla C2050).
//  - The paper reports BO and MC with transfer fractions near 99% *and*
//    large GPU fractions (the originals overlap internal streams). Our app
//    bodies issue work on a single logical stream, so for those two apps
//    the shares are scaled to keep their *contrast* (transfer-dominant
//    vs compute-dominant) while summing below 100%.
//  - Transfers are chunked so resident device memory stays bounded
//    (streaming), honouring the paper's memory-pressure assumption.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "gpu/gpu_device.hpp"
#include "simcore/sim_time.hpp"

namespace strings::workloads {

struct AppProfile {
  std::string name;        // Table I abbreviation, e.g. "MC"
  std::string full_name;   // e.g. "MonteCarlo"
  bool long_running = false;  // Group A (10-55s) vs Group B (<10s)
  int iterations = 0;
  sim::SimTime cpu_per_iter = 0;  // host-only phase per iteration
  /// Fraction of the CPU phase spent *after* the upload (input prep before,
  /// host-side compute after); the post-upload half is what MOT's async
  /// conversion overlaps with the transfer.
  double cpu_after_upload = 0.5;
  std::size_t h2d_bytes_per_iter = 0;  // total H2D payload per iteration
  std::size_t d2h_bytes_per_iter = 0;  // total D2H payload per iteration
  int kernels_per_iter = 0;
  gpu::KernelDesc kernel;              // per-launch demand (reference device)
  std::size_t alloc_bytes = 0;         // resident device buffer (chunk size)
};

/// All ten Table I applications, Group A first (DC, SC, BO, MM, HI, EV)
/// then Group B (BS, MC, GA, SN).
const std::vector<AppProfile>& all_profiles();

/// Profile by Table I abbreviation; throws std::invalid_argument if unknown.
const AppProfile& profile(const std::string& name);

/// Group A (long-running) and Group B (short-running) app names, in
/// Table I order.
const std::vector<std::string>& group_a();
const std::vector<std::string>& group_b();

/// The paper's 24 workload pairs labelled 'A'..'X': A = DC-BS, B = DC-MC,
/// ..., X = EV-SN (Group A outer, Group B inner, Table I order).
struct WorkloadPair {
  char label;
  std::string long_app;   // from Group A
  std::string short_app;  // from Group B
};
const std::vector<WorkloadPair>& workload_pairs();

/// Expected standalone runtime of a profile on the reference device with
/// synchronous execution (CPU + transfers + kernels, no overlap). Used to
/// set arrival rates (lambda proportional to runtime).
sim::SimTime standalone_runtime(const AppProfile& p, double pcie_gbps = 6.0);

}  // namespace strings::workloads
