// Determinism regression tests for the scheduler and everything above it
// (DESIGN.md §11): host-side work — the calendar queue, the frame pool,
// profiling, a pass-through offload wrapper — must never change *what*
// the simulation computes. These tests pin that down at full-system
// scale — fig07-style CoMD runs over the real NVMe-CR stack at one and
// two nodes — by fingerprinting the complete dispatch schedule. Smaller
// pinned runs over the comparator stacks guard the schedule of the
// baseline and global-namespace fabric paths.
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "offload/pipeline.h"
#include "simcore/profile.h"
#include "workloads/apps.h"
#include "workloads/comd.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using bench::default_runtime_config;
using bench::partition_for;
using bench::weak_scaling_params;
using nvmecr_rt::Cluster;
using nvmecr_rt::NvmecrSystem;
using nvmecr_rt::Scheduler;
using workloads::ComdDriver;
using workloads::ComdParams;

/// Order-sensitive digest of the full (time, seq) dispatch stream plus
/// the run's observable outcome. Any reordering — even a swap of two
/// same-time events — changes `hash`.
struct RunFingerprint {
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  uint64_t events = 0;
  SimTime final_time = 0;
  SimDuration total_time = 0;
  double efficiency = 0.0;

  bool operator==(const RunFingerprint&) const = default;
};

// Golden values for run_fingerprinted(28, 2); see
// GoldenScheduleFingerprint for the update procedure.
constexpr uint64_t kGoldenHash = 16411536983975935818ull;
constexpr uint64_t kGoldenEvents = 71870;
constexpr SimTime kGoldenFinalTime = 7434117816;

/// Folds every dispatched (time, seq) pair of `engine` into `fp`.
void fingerprint_dispatches(sim::Engine& engine, RunFingerprint& fp) {
  engine.set_dispatch_probe([&fp, first = true, last_time = SimTime{0},
                             last_seq = uint64_t{0}](SimTime t,
                                                     uint64_t seq) mutable {
    // The dispatch order must be monotone in (time, seq) regardless of
    // which tier an event came from.
    EXPECT_TRUE(first || t > last_time || (t == last_time && seq > last_seq))
        << "dispatch out of order at t=" << t << " seq=" << seq;
    first = false;
    last_time = t;
    last_seq = seq;
    fp.hash = mix64(fp.hash ^ mix64(static_cast<uint64_t>(t)));
    fp.hash = mix64(fp.hash ^ seq);
    ++fp.events;
  });
}

enum class OffloadMode { kNone, kPassthrough, kAllStages };

RunFingerprint run_fingerprinted(uint32_t nranks, uint32_t checkpoints,
                                 bool profiled = false,
                                 OffloadMode offload = OffloadMode::kNone) {
  ComdParams params = weak_scaling_params(nranks);
  params.checkpoints = checkpoints;

  Cluster cluster;
  // Wall-clock profiling must be invisible to the schedule: install the
  // full profiler pair when asked, before any subsystem spins up.
  sim::DispatchProfiler prof;
  obs::EpochProfiler epoch;
  if (profiled) {
    obs::Observer o;
    o.dispatch = &prof;
    o.epoch = &epoch;
    cluster.install_observer(o);
  }
  RunFingerprint fp;
  fingerprint_dispatches(cluster.engine(), fp);

  Scheduler sched(cluster);
  auto job = sched.allocate(params.nranks, params.procs_per_node,
                            partition_for(params), /*num_ssds=*/4);
  NVMECR_CHECK(job.ok());
  NvmecrSystem system(cluster, *job, default_runtime_config());
  std::optional<offload::OffloadSystem> off;
  if (offload != OffloadMode::kNone) {
    offload::OffloadOptions opts;
    if (offload == OffloadMode::kPassthrough) {
      opts.stages = 0;
      opts.digest_checks = false;
    } else {
      opts.stages = nvmf::kOffloadAll;
      opts.codec = *offload::find_codec("lz4-class");
    }
    off.emplace(cluster, system, *job, opts);
  }
  baselines::StorageSystem& run_sys =
      off ? static_cast<baselines::StorageSystem&>(*off)
          : static_cast<baselines::StorageSystem&>(system);
  auto m = ComdDriver::run(cluster, run_sys, params);
  NVMECR_CHECK(m.ok());

  fp.final_time = cluster.engine().now();
  fp.total_time = m->total_time;
  fp.efficiency = m->checkpoint_efficiency();
  return fp;
}

TEST(PerfDeterminismTest, RepeatedRunsAreBitIdentical) {
  const RunFingerprint a = run_fingerprinted(28, 2);
  const RunFingerprint b = run_fingerprinted(28, 2);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.events, 0u);
}

TEST(PerfDeterminismTest, RegistryPresetsReproduceLegacyIoProfiles) {
  // The ProxyAppPreset table moved into the application registry
  // (workloads/apps.h) when the AppDriver restart harness landed. Pin
  // the CoMD profile the registry hands out to the exact numbers the
  // legacy params_from_preset produced — the AppDriver refactor left
  // ComdDriver and the golden schedule fingerprint below bit-identical,
  // and this keeps the registry from drifting under it.
  const workloads::AppSpec* comd = workloads::find_app("CoMD");
  ASSERT_NE(comd, nullptr);
  const ComdParams p = workloads::io_params_for(*comd, 224);
  EXPECT_EQ(p.nranks, 224u);
  EXPECT_EQ(p.procs_per_node, 28u);
  EXPECT_EQ(p.bytes_per_atom, 512u);
  EXPECT_EQ(p.atoms_per_rank, (156ull << 20) / 512u);
  EXPECT_EQ(p.io_chunk, 4ull << 20);
  EXPECT_EQ(p.compute_per_period, 2900 * kMillisecond);
  EXPECT_DOUBLE_EQ(p.compute_jitter, 0.03);
  EXPECT_EQ(p.checkpoints, 5u);
}

TEST(PerfDeterminismTest, GoldenScheduleFingerprint) {
  // Golden (time, seq) trace over a fig07-style run, pinned so an
  // unintended scheduling change anywhere in the stack (engine, sync
  // primitives, devices, fabric) fails loudly. If a change to the
  // simulation is *intentional*, re-run this test and update the
  // constants from the failure output.
  const RunFingerprint fp = run_fingerprinted(28, 2);
  EXPECT_EQ(fp.hash, kGoldenHash) << "events=" << fp.events
                                  << " final_time=" << fp.final_time;
  EXPECT_EQ(fp.events, kGoldenEvents);
  EXPECT_EQ(fp.final_time, kGoldenFinalTime);
}

// Golden values for run_fingerprinted(56, 2), the same run on two compute
// nodes. Recorded while same-time events still went through a separate
// now ring; the calendar alone reproduces that schedule. Update like
// kGoldenHash when a schedule change is intentional.
constexpr uint64_t kTwoNodeGoldenHash = 6978589764092090839ull;
constexpr uint64_t kTwoNodeGoldenEvents = 143746;
constexpr SimTime kTwoNodeGoldenFinalTime = 8879634133;

TEST(PerfDeterminismTest, TwoNodeScheduleIsPinned) {
  const RunFingerprint fp = run_fingerprinted(56, 2);
  EXPECT_EQ(fp.hash, kTwoNodeGoldenHash) << "events=" << fp.events
                                         << " final_time=" << fp.final_time;
  EXPECT_EQ(fp.events, kTwoNodeGoldenEvents);
  EXPECT_EQ(fp.final_time, kTwoNodeGoldenFinalTime);
}

TEST(PerfDeterminismTest, ProfilingDoesNotPerturbSchedule) {
  // Arming the dispatch profiler + epoch analyzer reads host clocks into
  // profiler-private buckets only. The golden fingerprint must not move
  // by a single (time, seq) pair.
  const RunFingerprint fp =
      run_fingerprinted(28, 2, /*profiled=*/true);
  EXPECT_EQ(fp.hash, kGoldenHash);
  EXPECT_EQ(fp.events, kGoldenEvents);
  EXPECT_EQ(fp.final_time, kGoldenFinalTime);
}

TEST(PerfDeterminismTest, DisabledOffloadWrapperKeepsGoldenFingerprint) {
  // Routing I/O through OffloadSystem with no stages granted and no
  // codec must be a pure pass-through: not one (time, seq) pair of the
  // golden schedule may move.
  const RunFingerprint fp = run_fingerprinted(
      28, 2, /*profiled=*/false, OffloadMode::kPassthrough);
  EXPECT_EQ(fp.hash, kGoldenHash) << "events=" << fp.events
                                  << " final_time=" << fp.final_time;
  EXPECT_EQ(fp.events, kGoldenEvents);
  EXPECT_EQ(fp.final_time, kGoldenFinalTime);
}

// Golden values for the fixed offload-enabled config (all four stages
// granted, lz4-class codec) over the same fig07-style run. Update like
// kGoldenHash when a schedule change is intentional.
constexpr uint64_t kOffloadGoldenHash = 10412633153962282906ull;
constexpr uint64_t kOffloadGoldenEvents = 58626;
constexpr SimTime kOffloadGoldenFinalTime = 6891699442;

TEST(PerfDeterminismTest, OffloadEnabledScheduleIsPinned) {
  // The offload pipeline (negotiation round trips, target compute
  // reservations, compressed wire transfers) is itself deterministic:
  // two runs agree bit-for-bit and match the pinned constants.
  const RunFingerprint a = run_fingerprinted(
      28, 2, /*profiled=*/false, OffloadMode::kAllStages);
  const RunFingerprint b = run_fingerprinted(
      28, 2, /*profiled=*/false, OffloadMode::kAllStages);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.hash, kGoldenHash);  // the grant genuinely changes the run
  EXPECT_EQ(a.hash, kOffloadGoldenHash) << "events=" << a.events
                                        << " final_time=" << a.final_time;
  EXPECT_EQ(a.events, kOffloadGoldenEvents);
  EXPECT_EQ(a.final_time, kOffloadGoldenFinalTime);
}

enum class Baseline { kGlusterFs, kDeltaFs, kCrail, kLustre, kGlobalNamespace };

/// Small CoMD job (16 ranks on two compute nodes, three 2 MiB
/// checkpoints, restart) over one of the stacks the NVMe-CR goldens above
/// do not reach: the DFS chassis (shared-directory and serverless
/// metadata), Crail's namenode, Lustre's MDS/OSS path and NVMe-CR's
/// global-namespace lock.
RunFingerprint run_baseline_fingerprinted(Baseline which) {
  ComdParams params;
  params.nranks = 16;
  params.procs_per_node = 8;
  params.atoms_per_rank = 4096;
  params.bytes_per_atom = 512;
  params.checkpoints = 3;
  params.compute_per_period = 20 * kMillisecond;
  params.io_chunk = 1_MiB;

  Cluster cluster;
  RunFingerprint fp;
  fingerprint_dispatches(cluster.engine(), fp);
  std::unique_ptr<baselines::StorageSystem> system;
  switch (which) {
    case Baseline::kGlusterFs:
      system = std::make_unique<baselines::GlusterFsModel>(
          cluster, params.nranks, params.procs_per_node);
      break;
    case Baseline::kDeltaFs:
      system = std::make_unique<baselines::DeltaFsModel>(
          cluster, params.nranks, params.procs_per_node);
      break;
    case Baseline::kCrail:
      system = std::make_unique<baselines::CrailModel>(
          cluster, params.nranks, params.procs_per_node, 64_MiB);
      break;
    case Baseline::kLustre:
      system = std::make_unique<baselines::LustreModel>(
          cluster, params.procs_per_node);
      break;
    case Baseline::kGlobalNamespace: {
      Scheduler sched(cluster);
      auto job = sched.allocate(params.nranks, params.procs_per_node,
                                partition_for(params), /*num_ssds=*/2);
      NVMECR_CHECK(job.ok());
      nvmecr_rt::RuntimeConfig config = default_runtime_config();
      config.private_namespace = false;
      system = std::make_unique<NvmecrSystem>(cluster, *job, config);
      break;
    }
  }
  auto m = ComdDriver::run(cluster, *system, params);
  NVMECR_CHECK(m.ok());
  fp.final_time = cluster.engine().now();
  fp.total_time = m->total_time;
  fp.efficiency = m->checkpoint_efficiency();
  return fp;
}

TEST(PerfDeterminismTest, BaselineSchedulesArePinned) {
  // Golden (time, seq) fingerprints of the comparator and global-
  // namespace stacks, whose fabric traffic the NVMe-CR goldens above
  // never exercise. Update like kGoldenHash when a change is intentional.
  struct Golden {
    const char* name;
    Baseline which;
    uint64_t hash;
    uint64_t events;
    SimTime final_time;
  };
  const Golden goldens[] = {
      {"GlusterFS", Baseline::kGlusterFs, 7302348836349646819ull, 4026,
       83037780},
      {"DeltaFS", Baseline::kDeltaFs, 6805583478868425892ull, 4139,
       85548969},
      {"Crail", Baseline::kCrail, 5036704753837747167ull, 3867, 133419755},
      {"Lustre", Baseline::kLustre, 12857957339094482347ull, 2484,
       111640961},
      {"NVMe-CR global namespace", Baseline::kGlobalNamespace,
       6078015409063805348ull, 3937, 94686707},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.name);
    const RunFingerprint fp = run_baseline_fingerprinted(g.which);
    EXPECT_EQ(fp.hash, g.hash) << "events=" << fp.events
                               << " final_time=" << fp.final_time;
    EXPECT_EQ(fp.events, g.events);
    EXPECT_EQ(fp.final_time, g.final_time);
  }
}

}  // namespace
}  // namespace nvmecr
