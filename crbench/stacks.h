// The benchmark's workloads: paper-scale checkpoint/restart jobs driven
// through workloads::AppDriver over a freshly built storage stack.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "probe.h"
#include "simcore/profile.h"
#include "workloads/app_driver.h"

namespace crbench {

struct WorkloadDef {
  const char* name;
  /// IO profile and schedule of every rank (AppRunParams::io).
  nvmecr::workloads::ComdParams io;
  uint32_t storage_nodes = 8;
  uint32_t storage_racks = 1;
  /// Production stack (retry -> NVMe-CR -> partner redundancy ->
  /// failover) with one primary target crashing for good in epoch 0, and
  /// a kill after every checkpoint. Otherwise plain NVMe-CR, killed once
  /// after the last checkpoint.
  bool failover = false;
};

const WorkloadDef* find_workload(std::string_view name);
std::vector<std::string> workload_names();

/// Profilers armed through obs::Observer on traced iterations.
struct Instruments {
  nvmecr::obs::MetricsRegistry metrics;
  nvmecr::sim::DispatchProfiler dispatch;
  nvmecr::obs::EpochProfiler epoch;
};

struct IterationResult {
  /// First error an application call or restart verification returned.
  nvmecr::Status status;
  std::unique_ptr<Probe> probe;
  double setup_s = 0;    // stack construction -> every session connected
  /// Mean speed probe before set-up and after the last connect.
  uint64_t setup_probe_ns = 0;
  double connect_s = 0;  // first -> last connect
  double run_s = 0;      // run() phases after connect, host seconds
  double restart_s = 0;  // restart() phases, host seconds
  uint64_t events = 0;
  uint64_t ring_hits = 0;
  uint64_t calendar_hits = 0;
  uint64_t frames = 0;  // coroutine frames allocated during the iteration
  uint64_t fabric_bytes = 0;
  uint64_t metadata_bytes = 0;
  uint64_t replica_bytes = 0;
  uint64_t failovers = 0;
  uint32_t cycles = 0;  // kill/restart cycles
  nvmecr::SimDuration sim_job_ns = 0;
  /// Counts and simulated values that must repeat bit-for-bit at a seed.
  std::vector<uint64_t> fingerprint;

  uint64_t app_bytes() const {
    return probe->bytes_written() + probe->bytes_read();
  }
};

/// Uninterrupted reference run on a tiny-IO stack: the verified state
/// depends only on (app, seed, ranks, epochs), not on the IO profile.
nvmecr::StatusOr<nvmecr::workloads::AppRunResult> golden_run(
    const WorkloadDef& def, uint64_t seed);

/// Builds the workload's stack, runs the job with its kills and
/// restarts, and verifies every restore against `golden`. `inst`
/// (traced iterations) arms the profilers and the device probe.
IterationResult run_iteration(const WorkloadDef& def, uint64_t seed,
                              const nvmecr::workloads::AppRunResult& golden,
                              Instruments* inst);

}  // namespace crbench
