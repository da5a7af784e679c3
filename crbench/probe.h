// Out-of-band layer probes for the checkpoint/restart benchmark.
//
// Everything here wraps public interfaces of the simulator from the
// outside; no simulator code is instrumented for the benchmark:
//
//   ProbeSystem / ProbeClient  decorate baselines::StorageSystem and
//       StorageClient — the storage API the application drives. Every
//       call is counted (attempts, failures, bytes moved); when tracing,
//       it also becomes a span with its simulated start/end.
//   ProbeDevice  decorates the per-rank qpair hw::BlockDevice through
//       RuntimeConfig::device_wrapper (tracing only): one span per
//       device IO, parented to the rank's storage call in flight.
//
// All simulated work happens on one host thread (the engine's), so the
// probe needs no synchronization.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/storage_api.h"
#include "fabric/topology.h"
#include "hw/block_device.h"
#include "obs/profile.h"
#include "simcore/engine.h"

namespace crbench {

using nvmecr::SimDuration;
using nvmecr::SimTime;

/// Storage API operations, in the order metrics are reported.
enum class Op : uint8_t {
  kCreate,
  kOpenRead,
  kWrite,
  kRead,
  kFsync,
  kClose,
  kUnlink,
};
inline constexpr size_t kNumOps = 7;
const char* op_name(Op op);

/// What a span covers. API kinds mirror Op; the rest are device IOs seen
/// through device_wrapper and AppDriver's run/restart phases.
enum class SpanKind : uint8_t {
  kPhase = kNumOps,
  kDevWrite,
  kDevRead,
  kDevFlush,
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint32_t rank = 0;    // UINT32_MAX for phase spans
  uint8_t kind = 0;     // Op or SpanKind
  bool ok = true;
  SimTime start = 0;
  SimTime end = 0;
  uint64_t bytes = 0;
};

/// A rank's checkpoint stream closed successfully: the barrier after it
/// waits for the slowest rank of the same (phase, epoch).
struct CheckpointClose {
  uint32_t phase = 0;
  uint32_t epoch = 0;
  uint32_t rank = 0;
  SimTime at = 0;
};

/// Per-iteration recorder shared by all wrappers of one stack.
class Probe {
 public:
  Probe(uint32_t nranks, bool tracing);

  /// The engine of the stack under measurement; detach (nullptr) before
  /// the stack is destroyed. The recorded data outlives the stack.
  void attach(nvmecr::sim::Engine* engine) { engine_ = engine; }
  bool tracing() const { return tracing_; }
  nvmecr::sim::Engine& engine() { return *engine_; }
  uint32_t nranks() const { return nranks_; }

  /// Traced runs feed the epoch critical-path profiler from the storage
  /// API boundary (AppDriver itself stamps neither rank nor epoch).
  void set_epoch_profiler(nvmecr::obs::EpochProfiler* ep) { epoch_ = ep; }
  nvmecr::obs::EpochProfiler* epoch_profiler() const { return epoch_; }

  struct OpStats {
    uint64_t count = 0;
    uint64_t failed = 0;
    std::vector<SimDuration> sim_ns;  // traced runs only
  };
  const OpStats& op(Op o) const { return ops_[static_cast<size_t>(o)]; }
  uint64_t attempted() const;
  uint64_t failed() const;
  uint64_t connects() const { return connects_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }
  /// Restore-chain probes answered "not here" by a failover view: the
  /// chain moves on to the next source, so they are not failures.
  uint64_t probe_misses() const { return probe_misses_; }

  /// host_now_ns() when the first / last rank's session connected.
  uint64_t connected_host_ns() const { return connected_host_ns_; }
  uint64_t first_connect_host_ns() const { return first_connect_host_ns_; }

  /// Device IO totals (traced runs only; flushes excluded).
  uint64_t dev_ios() const { return dev_ios_; }
  uint64_t dev_bytes() const { return dev_bytes_; }
  const std::vector<SimDuration>& dev_sim_ns() const { return dev_sim_ns_; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<CheckpointClose>& closes() const { return closes_; }

  /// Phase spans group the calls of one AppDriver run()/restart().
  void begin_phase();
  void end_phase();

  /// Host-time laps of the timed stretches: run() after the last
  /// connect, then each restart(). A lap ends every kLapCalls storage
  /// calls and at the end of a stretch, so lap i covers the same simulated
  /// work in every iteration at a seed. Each lap carries the mean of the
  /// speed probes taken at its two ends; probe time is not in the lap.
  static constexpr uint64_t kLapCalls = 1024;
  struct Lap {
    uint64_t host_ns = 0;
    uint64_t probe_ns = 0;
  };
  /// The last connect starts the first stretch.
  void start_laps();
  void stop_laps(uint64_t host_ns);
  const std::vector<Lap>& laps() const { return laps_; }
  /// speed_probe_ns() right after the last connect.
  uint64_t connected_probe_ns() const { return connected_probe_ns_; }

  // --- wrapper hooks ----------------------------------------------------
  void note_connect(bool ok, uint64_t host_ns);
  /// Opens an API call; returns the span slot (traced) or SIZE_MAX.
  size_t begin_call(uint32_t rank, Op op, uint32_t epoch);
  void end_call(uint32_t rank, Op op, size_t slot, bool ok, uint64_t bytes,
                bool probe_miss);
  void note_checkpoint_close(uint32_t rank, uint32_t epoch);
  size_t begin_io(uint32_t rank, SpanKind kind, uint64_t bytes);
  void end_io(size_t slot, bool ok);

 private:
  nvmecr::sim::Engine* engine_ = nullptr;
  uint32_t nranks_;
  bool tracing_;
  nvmecr::obs::EpochProfiler* epoch_ = nullptr;

  std::array<OpStats, kNumOps> ops_{};
  uint64_t connects_ = 0;
  uint64_t connect_failures_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t probe_misses_ = 0;
  uint64_t connected_host_ns_ = 0;
  uint64_t first_connect_host_ns_ = 0;

  void end_lap(uint64_t host_ns);
  bool lap_open_ = false;
  uint64_t lap_start_ = 0;
  uint64_t lap_calls_ = 0;
  uint64_t lap_probe_ns_ = 0;
  uint64_t connected_probe_ns_ = 0;
  std::vector<Lap> laps_;

  uint64_t dev_ios_ = 0;
  uint64_t dev_bytes_ = 0;
  std::vector<SimDuration> dev_sim_ns_;

  std::vector<Span> spans_;
  std::vector<uint64_t> open_call_;  // per rank: span id of call in flight
  uint64_t phase_id_ = 0;
  size_t phase_slot_ = SIZE_MAX;
  uint32_t phase_index_ = 0;
  std::vector<CheckpointClose> closes_;
};

/// Host cost clock, ns: CPU time of this process (user + system). The
/// simulator runs on one thread, so this is the host time the run costs,
/// without the time the OS spent running other work on a shared host.
uint64_t host_now_ns();

/// Host ns of a fixed cache-resident workload (replacing the top of a
/// 32 KiB binary heap 700 times; about 17 us on an idle 2.1 GHz Xeon
/// core). Other work sharing the core on a shared host slows it about as
/// much as it slows the simulator, so a host time divided by the probe
/// taken around it hardly depends on how busy the host is.
uint64_t speed_probe_ns();

/// Decorates a deployed storage system; every session it hands out is
/// wrapped by make_probe_client.
class ProbeSystem final : public nvmecr::baselines::StorageSystem {
 public:
  ProbeSystem(Probe& probe, nvmecr::baselines::StorageSystem& inner)
      : probe_(probe), inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  nvmecr::sim::Task<
      nvmecr::StatusOr<std::unique_ptr<nvmecr::baselines::StorageClient>>>
  connect(int rank) override;
  uint64_t hardware_peak_write_bw() const override {
    return inner_.hardware_peak_write_bw();
  }
  uint64_t hardware_peak_read_bw() const override {
    return inner_.hardware_peak_read_bw();
  }
  std::vector<uint64_t> bytes_per_server() const override {
    return inner_.bytes_per_server();
  }
  uint64_t metadata_bytes() const override { return inner_.metadata_bytes(); }
  SimDuration kernel_time() const override { return inner_.kernel_time(); }

 private:
  Probe& probe_;
  nvmecr::baselines::StorageSystem& inner_;
};

/// Wraps one session. `view` marks a read-only restore source (failover
/// view) whose open_read misses are chain probes, not failures.
std::unique_ptr<nvmecr::baselines::StorageClient> make_probe_client(
    Probe& probe, uint32_t rank,
    std::unique_ptr<nvmecr::baselines::StorageClient> inner, bool view);

/// RuntimeConfig::device_wrapper signature.
using DeviceWrapper = std::function<std::unique_ptr<nvmecr::hw::BlockDevice>(
    std::unique_ptr<nvmecr::hw::BlockDevice>, nvmecr::fabric::NodeId,
    uint32_t)>;

/// Returns a device_wrapper that puts a span-recording ProbeDevice on top
/// of whatever `under` (may be empty) builds.
DeviceWrapper probe_device_wrapper(Probe& probe, DeviceWrapper under);

}  // namespace crbench
