// Host wall-clock performance suite + regression gate (DESIGN.md §11).
//
// Measures the hot paths this repo's scale story depends on and writes
// BENCH_PERF.json:
//
//   des      — same-time-heavy DES microbenchmark: events/sec, ns/event
//              and the process's peak RSS after it (the calendar's drain
//              buffer must stay bounded under long same-bucket chains).
//   crc64    — slice-by-16 vs byte-at-a-time MB/s on a 1 MiB buffer.
//   payload  — PayloadStore sequential pattern-write rate and cached
//              whole-extent tag reads.
//   e2e      — a fig07-style CoMD run (weak scaling) under wall-clock
//              timing: host events/sec, calendar hit fraction, coroutine
//              frames per event and the share the frame pool recycled,
//              oplog group commits.
//   obs      — the same kind of run with the profiling hooks armed but
//              unconsumed, and fully profiled, each paired with a plain
//              run: median and interquartile range of the overhead.
//   degraded — the same CoMD job run healthy vs with 1 of 8 storage
//              targets dead from the start (every IO of the affected
//              ranks fails over to a partner-domain spare). Reports the
//              simulated-time overhead ratio of degraded operation;
//              informational, not gated (it is a model property, not a
//              host-performance one).
//
// The gate compares machine-independent quantities against a checked-in
// baseline: the CRC speedup ratio (new path vs in-process old path),
// deterministic fractions and counts of the e2e run, and overhead
// fractions. Absolute events/sec vary with the host and are not gated.
//
//   perf_suite [--quick] [--out PATH] [--check BASELINE]
//
// --quick shrinks iteration counts for CI smoke; --check exits nonzero
// if any gated value crosses its bound (see the gate loop in main()).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chaos/campaign.h"
#include "common/crc.h"
#include "common/rng.h"
#include "hw/payload_store.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "offload/pipeline.h"
#include "redundancy/engine.h"
#include "resilience/failover.h"
#include "resilience/health.h"
#include "resilience/retry.h"
#include "simcore/engine.h"
#include "simcore/profile.h"

namespace nvmecr::bench {
namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host CPU seconds of this process: the simulator is single-threaded,
/// so this is its wall time minus the time the OS gave to other work.
double cpu_sec() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------
// DES microbenchmark: same-time-heavy coroutine churn.
// ---------------------------------------------------------------------

sim::Task<void> churn_task(sim::Engine& eng, uint32_t iters) {
  for (uint32_t i = 0; i < iters; ++i) {
    if ((i & 63u) == 63u) {
      co_await eng.delay(1);  // keep the heap exercised too (~1.5%)
    } else {
      co_await eng.yield();
    }
  }
}

struct DesResult {
  double events_per_sec = 0;
  double ns_per_event = 0;
  uint64_t events = 0;
  double wall_sec = 0;
};

DesResult run_des(uint32_t tasks, uint32_t iters) {
  sim::Engine eng;
  for (uint32_t t = 0; t < tasks; ++t) eng.spawn(churn_task(eng, iters));
  const double t0 = now_sec();
  eng.run();
  const double t1 = now_sec();
  DesResult r;
  r.events = eng.events_dispatched();
  r.wall_sec = t1 - t0;
  r.events_per_sec = static_cast<double>(r.events) / r.wall_sec;
  r.ns_per_event = 1e9 * r.wall_sec / static_cast<double>(r.events);
  return r;
}

// ---------------------------------------------------------------------
// CRC64 microbenchmark.
// ---------------------------------------------------------------------

struct CrcResult {
  double mb_per_sec = 0;
  double baseline_mb_per_sec = 0;
  double speedup = 0;
};

CrcResult run_crc(size_t buf_bytes, uint32_t reps) {
  std::vector<unsigned char> buf(buf_bytes);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(mix64(i) & 0xff);
  }
  uint64_t sink = 0;
  // Warm caches/branch predictors so the timed region measures steady
  // state on both paths.
  sink ^= crc64(buf.data(), buf.size(), 1);
  sink ^= detail::crc64_reference(buf.data(), buf.size(), 1);
  const double t0 = now_sec();
  for (uint32_t r = 0; r < reps; ++r) {
    sink ^= crc64(buf.data(), buf.size(), r);
  }
  const double t1 = now_sec();
  for (uint32_t r = 0; r < reps; ++r) {
    sink ^= detail::crc64_reference(buf.data(), buf.size(), r);
  }
  const double t2 = now_sec();
  // Identical seeds: the two passes XOR-cancel to 0 iff the
  // implementations agree — a free equivalence check that also defeats
  // dead-code elimination.
  NVMECR_CHECK(sink == 0);
  const double mb = static_cast<double>(buf_bytes) * reps / 1e6;
  CrcResult r;
  r.mb_per_sec = mb / (t1 - t0);
  r.baseline_mb_per_sec = mb / (t2 - t1);
  r.speedup = r.mb_per_sec / r.baseline_mb_per_sec;
  return r;
}

// ---------------------------------------------------------------------
// PayloadStore microbenchmark.
// ---------------------------------------------------------------------

struct PayloadResult {
  double write_gb_per_sec = 0;   // conceptual (pattern) bytes per wall sec
  double tag_reads_per_sec = 0;  // cached whole-range tag reads
  uint64_t tag_cache_hits = 0;
  size_t extents = 0;
};

PayloadResult run_payload(uint64_t total_bytes, uint32_t tag_reps) {
  constexpr uint32_t kBlock = 32768;  // paper hugeblock
  constexpr uint64_t kChunk = 4_MiB;
  hw::PayloadStore store(kBlock);
  const double t0 = now_sec();
  for (uint64_t off = 0; off < total_bytes; off += kChunk) {
    NVMECR_CHECK(store.write_pattern(off, kChunk, /*seed=*/7).ok());
  }
  const double t1 = now_sec();
  uint64_t sink = 0;
  for (uint32_t r = 0; r < tag_reps; ++r) {
    auto tag = store.read_combined_tag(0, total_bytes);
    NVMECR_CHECK(tag.ok());
    sink ^= *tag;
  }
  const double t2 = now_sec();
  NVMECR_CHECK(sink == 0 || tag_reps % 2 == 1);
  PayloadResult r;
  r.write_gb_per_sec = static_cast<double>(total_bytes) / 1e9 / (t1 - t0);
  r.tag_reads_per_sec = tag_reps / (t2 - t1);
  r.tag_cache_hits = store.tag_cache_hits();
  r.extents = store.extent_count();
  return r;
}

// ---------------------------------------------------------------------
// End-to-end fig07-style run under wall-clock timing.
// ---------------------------------------------------------------------

struct E2eResult {
  double wall_sec = 0;
  double events_per_sec = 0;
  uint64_t events = 0;
  double calendar_hit_frac = 0;  // dispatches served by the calendar
  uint64_t frames = 0;           // coroutine frames allocated during the run
  double frames_per_event = 0;   // host frame churn per dispatched event
  double frames_recycled_frac = 0;
  uint64_t group_commits = 0;
  uint64_t tag_cache_hits = 0;
  uint64_t tag_cache_fills = 0;
  uint64_t tag_reads = 0;
  uint64_t fabric_bytes = 0;  // real fabric crossings during the run
  double sim_efficiency = 0;
};

/// One fig07-style run with a metrics registry installed.
E2eResult run_e2e(uint32_t nranks, uint32_t checkpoints) {
  ComdParams params = weak_scaling_params(nranks);
  params.checkpoints = checkpoints;
  obs::MetricsRegistry metrics;
  obs::Observer o;
  o.metrics = &metrics;
  Cluster cluster;
  cluster.install_observer(o);
  Scheduler sched(cluster);
  auto job = sched.allocate(params.nranks, params.procs_per_node,
                            partition_for(params), /*num_ssds=*/8);
  NVMECR_CHECK(job.ok());
  nvmecr_rt::NvmecrSystem system(cluster, *job, default_runtime_config());
  const double t0 = now_sec();
  auto run = ComdDriver::run(cluster, system, params);
  const double t1 = now_sec();
  NVMECR_CHECK(run.ok());
  const JobMetrics& m = *run;
  E2eResult r;
  r.wall_sec = t1 - t0;
  r.events = metrics.counter("engine.events_dispatched")->value();
  r.events_per_sec = static_cast<double>(r.events) / r.wall_sec;
  r.calendar_hit_frac =
      static_cast<double>(metrics.counter("engine.calendar_hits")->value()) /
      static_cast<double>(r.events);
  r.frames = metrics.counter("engine.frames_allocated")->value();
  r.frames_per_event =
      static_cast<double>(r.frames) / static_cast<double>(r.events);
  r.frames_recycled_frac =
      static_cast<double>(metrics.counter("engine.frames_recycled")->value()) /
      static_cast<double>(r.frames);
  r.group_commits = metrics.counter("microfs.oplog.group_commits")->value();
  r.tag_cache_hits = metrics.counter("payload.tag_cache_hits")->value();
  r.tag_cache_fills = metrics.counter("payload.tag_cache_fills")->value();
  r.tag_reads = metrics.counter("payload.tag_reads")->value();
  r.fabric_bytes = metrics.counter("fabric.bytes_sent")->value();
  r.sim_efficiency = m.checkpoint_efficiency();
  // Regression guard for the e2e tag-cache shape: adjacent same-seed
  // pattern writes merge into one giant extent per rank file, and the
  // restart phase reads it back in io_chunk-sized pieces, so the
  // whole-extent tag cache never engages end to end — zero hits with
  // nonzero tag reads is the *correct* steady state, not a wiring bug
  // (the microbench above shows the cache working when reads do cover
  // whole extents). If either side of this ever flips, the caching
  // story changed and this suite needs to re-derive the expectation.
  NVMECR_CHECK(r.tag_reads > 0);
  NVMECR_CHECK(r.tag_cache_hits == 0);
  return r;
}

// ---------------------------------------------------------------------
// Observability overhead: the same CoMD job timed with (a) no
// observability at all, (b) profile hooks armed but nothing consuming
// them — the always-compiled cost the <1% gate bounds — and (c) the
// full profiling stack. Each rep runs the three arms as a palindrome
// (a b c c b a, the order rotating between reps) and yields one paired
// overhead per armed arm: its CPU time over the plain arm's, minus 1.
// The palindrome cancels a linear drift of host speed within the rep;
// the median over reps is the estimate and the interquartile range its
// spread.
// ---------------------------------------------------------------------

struct Spread {
  double median = 0;
  double iqr = 0;  // 75th minus 25th percentile
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    return v[static_cast<size_t>(std::lround(q * (v.size() - 1)))];
  };
  return {at(0.5), at(0.75) - at(0.25)};
}

struct OverheadResult {
  double plain_sec = 0;   // median CPU seconds of the plain arm
  Spread disabled;        // (hooks - plain) / plain, paired per rep
  Spread profiled;        // (profiled - plain) / plain, paired per rep
};

double time_e2e_arm(const ComdParams& params, int arm) {
  sim::DispatchProfiler prof;
  obs::EpochProfiler ep;
  obs::Observer o;
  if (arm == 2) {
    o.dispatch = &prof;
    o.epoch = &ep;
  }
  const double t0 = cpu_sec();
  run_nvmecr(params, default_runtime_config(), nullptr, /*num_ssds=*/8, o,
             /*force_profile_hooks=*/arm == 1);
  return cpu_sec() - t0;
}

OverheadResult run_overhead(uint32_t nranks, uint32_t checkpoints,
                            uint32_t reps) {
  ComdParams params = weak_scaling_params(nranks);
  params.checkpoints = checkpoints;
  (void)time_e2e_arm(params, 0);  // warmup (allocator, page cache)
  std::vector<double> plain, disabled, profiled;
  for (uint32_t i = 0; i < reps; ++i) {
    double t[3] = {0, 0, 0};
    for (uint32_t k = 0; k < 6; ++k) {
      const uint32_t pos = k < 3 ? k : 5 - k;  // a b c c b a
      const int arm = static_cast<int>((i + pos) % 3);
      t[arm] += time_e2e_arm(params, arm);
    }
    plain.push_back(t[0] / 2);
    disabled.push_back(t[1] / t[0] - 1);
    profiled.push_back(t[2] / t[0] - 1);
  }
  return {spread_of(plain).median, spread_of(disabled), spread_of(profiled)};
}

// ---------------------------------------------------------------------
// --profile: one fully profiled e2e run; prints the ranked dispatch
// cost-center table (where the host wall clock goes — the 55x
// microbench-vs-e2e gap) and the checkpoint-epoch drilldown (where the
// *simulated* time goes, per phase per rank, with straggler
// attribution).
// ---------------------------------------------------------------------

void run_profiled_e2e(uint32_t nranks, uint32_t checkpoints) {
  ComdParams params = weak_scaling_params(nranks);
  params.checkpoints = checkpoints;
  sim::DispatchProfiler prof;
  obs::EpochProfiler ep;
  obs::MetricsRegistry metrics;
  obs::Observer o;
  o.metrics = &metrics;
  o.dispatch = &prof;
  o.epoch = &ep;
  const double t0 = now_sec();
  run_nvmecr(params, default_runtime_config(), nullptr, /*num_ssds=*/8, o);
  const double t1 = now_sec();
  prof.finish();
  std::printf("\n[profile] e2e CoMD %u ranks x %u checkpoints, wall %.2f s\n",
              nranks, checkpoints, t1 - t0);
  std::printf("\ndispatch cost centers (host wall clock):\n%s\n",
              prof.table(10).c_str());
  std::printf("checkpoint-epoch drilldown (simulated time; epoch %u = "
              "restart):\n%s\n",
              checkpoints, ep.drilldown_table().c_str());
}

// ---------------------------------------------------------------------
// Degraded-mode scenario: 1 of 8 targets dead, resilience layer active.
// ---------------------------------------------------------------------

struct DegradedResult {
  SimDuration healthy_sim = 0;    // simulated job time, all targets up
  SimDuration degraded_sim = 0;   // same job, 1 target dead from t=0
  double overhead_ratio = 0;      // degraded / healthy
  uint64_t failovers = 0;
};

// One CoMD run through the full resilience stack (retrying device
// wrapper + health monitor + ResilientSystem). `kill_first` crashes the
// first allocated target before the job starts, so every IO of its
// ranks pivots to a partner-domain spare. Simulated time is
// deterministic — the ratio needs no repetitions.
SimDuration run_resilient(const ComdParams& params, bool kill_first,
                          uint64_t* failovers) {
  nvmecr_rt::ClusterSpec spec;
  spec.compute_nodes = 8;
  spec.storage_nodes = 8;
  spec.storage_racks = 4;
  Cluster cluster(spec);
  Scheduler sched(cluster);
  auto job = sched.allocate(params.nranks, params.procs_per_node,
                            partition_for(params), /*num_ssds=*/8);
  NVMECR_CHECK(job.ok());

  resilience::HealthMonitor monitor(cluster.engine(), cluster.topology());
  RuntimeConfig config = default_runtime_config();
  config.device_wrapper = resilience::make_retry_wrapper(
      cluster.engine(), monitor, resilience::RetryPolicy{}, /*seed=*/42);
  nvmecr_rt::NvmecrSystem primary(cluster, *job, config);
  resilience::ResilientSystem sys(cluster, sched, primary, monitor, *job,
                                  config);
  if (kill_first) {
    const fabric::NodeId victim = job->assignment.ssd_nodes[0];
    const uint32_t idx = cluster.storage_ssd_index(victim);
    cluster.storage_ssd(idx).schedule_crash(0);
    cluster.target(idx).schedule_crash(0);
    monitor.note_exhausted(victim);  // detection already converged
  }
  auto m = ComdDriver::run(cluster, sys, params);
  NVMECR_CHECK(m.ok());
  if (failovers != nullptr) *failovers = sys.failovers();
  return m->total_time;
}

DegradedResult run_degraded(uint32_t nranks, uint32_t checkpoints) {
  ComdParams params;
  params.nranks = nranks;
  params.procs_per_node = 1;
  params.atoms_per_rank = 8192;
  params.bytes_per_atom = 512;  // 4 MiB per rank: IO-dominated job
  params.io_chunk = 1_MiB;
  params.checkpoints = checkpoints;
  params.compute_per_period = 2 * kMillisecond;
  params.keep_last = checkpoints;

  DegradedResult r;
  r.healthy_sim = run_resilient(params, /*kill_first=*/false, nullptr);
  r.degraded_sim = run_resilient(params, /*kill_first=*/true, &r.failovers);
  r.overhead_ratio = static_cast<double>(r.degraded_sim) /
                     static_cast<double>(r.healthy_sim);
  return r;
}

// ---------------------------------------------------------------------
// Offload: (a) disabled-wrapper overhead — routing the e2e job through
// OffloadSystem with no stages granted and no codec must cost ~nothing
// on the host wall clock; (b) host-XOR vs target-XOR checkpoint fabric
// bytes on a fig07-style CoMD job (the offload pipeline's headline).
// Simulated byte counts are deterministic; only (a) needs min-of-N.
// ---------------------------------------------------------------------

struct OffloadPerfResult {
  double plain_sec = 0;
  double wrapped_sec = 0;
  double disabled_frac = 0;        // (wrapped - plain) / plain, >= 0
  uint64_t host_xor_fabric = 0;    // checkpoint-phase fabric bytes
  uint64_t target_xor_fabric = 0;
  double fabric_savings_frac = 0;  // 1 - target/host
};

double time_offload_arm(const ComdParams& params, bool wrapped) {
  Cluster cluster;
  Scheduler sched(cluster);
  auto job = sched.allocate(params.nranks, params.procs_per_node,
                            partition_for(params), /*num_ssds=*/8);
  NVMECR_CHECK(job.ok());
  nvmecr_rt::NvmecrSystem inner(cluster, *job, default_runtime_config());
  offload::OffloadOptions opts;
  opts.stages = 0;
  opts.digest_checks = false;  // pure pass-through wrapper
  offload::OffloadSystem off(cluster, inner, *job, opts);
  baselines::StorageSystem& sys =
      wrapped ? static_cast<baselines::StorageSystem&>(off)
              : static_cast<baselines::StorageSystem&>(inner);
  const double t0 = now_sec();
  NVMECR_CHECK(ComdDriver::run(cluster, sys, params).ok());
  return now_sec() - t0;
}

uint64_t run_xor_fabric(const ComdParams& params, redundancy::Scheme scheme) {
  nvmecr_rt::ClusterSpec spec;
  spec.compute_nodes = 8;
  spec.storage_nodes = 8;
  spec.storage_racks = 8;
  Cluster cluster(spec);
  Scheduler sched(cluster);
  auto job = sched.allocate(params.nranks, params.procs_per_node,
                            partition_for(params) * 2, /*num_ssds=*/4);
  NVMECR_CHECK(job.ok());
  nvmecr_rt::NvmecrSystem primary(cluster, *job, default_runtime_config());
  redundancy::RedundancyOptions ropts;
  ropts.scheme = scheme;
  ropts.xor_set_size = 4;
  auto dep = redundancy::deploy_redundancy(cluster, sched, primary, *job,
                                           ropts);
  NVMECR_CHECK(dep.ok());
  const uint64_t fabric0 = cluster.network().total_bytes_sent();
  NVMECR_CHECK(ComdDriver::run(cluster, *dep->system, params).ok());
  return cluster.network().total_bytes_sent() - fabric0;
}

OffloadPerfResult run_offload_perf(uint32_t reps, bool quick) {
  ComdParams params = weak_scaling_params(28);
  params.checkpoints = 2;
  (void)time_offload_arm(params, false);  // warmup
  double best[2] = {1e300, 1e300};
  for (uint32_t i = 0; i < reps; ++i) {
    for (int arm = 0; arm < 2; ++arm) {
      const double t = time_offload_arm(params, arm == 1);
      if (t < best[arm]) best[arm] = t;
    }
  }
  OffloadPerfResult r;
  r.plain_sec = best[0];
  r.wrapped_sec = best[1];
  r.disabled_frac = std::max(0.0, (best[1] - best[0]) / best[0]);

  ComdParams xp = weak_scaling_params(8);
  xp.procs_per_node = 1;
  xp.checkpoints = quick ? 2 : 3;
  xp.do_recovery = false;
  r.host_xor_fabric = run_xor_fabric(xp, redundancy::Scheme::kXor);
  r.target_xor_fabric = run_xor_fabric(xp, redundancy::Scheme::kXorTarget);
  r.fabric_savings_frac =
      1.0 - static_cast<double>(r.target_xor_fabric) /
                static_cast<double>(r.host_xor_fabric);
  return r;
}

// ---------------------------------------------------------------------
// Baseline gate: flat {"key": number} JSON, 25% regression tolerance.
// ---------------------------------------------------------------------

/// JSON number formatting: exact integers print without an exponent so
/// counters stay greppable; everything else gets 6 significant digits.
std::string json_num(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

bool read_baseline(const std::string& path,
                   std::vector<std::pair<std::string, double>>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, end - pos - 1);
    size_t colon = text.find(':', end);
    if (colon == std::string::npos) break;
    size_t vpos = text.find_first_not_of(" \t\n", colon + 1);
    if (vpos == std::string::npos) break;
    if (text[vpos] == '"') {
      // String value (e.g. the "comment" field): skip past its closing
      // quote so internal commas and periods cannot desync the scan.
      pos = text.find('"', vpos + 1);
      if (pos == std::string::npos) break;
      ++pos;
      continue;
    }
    out.emplace_back(key, std::strtod(text.c_str() + vpos, nullptr));
    pos = text.find(',', vpos);
    if (pos == std::string::npos) break;
  }
  return true;
}

}  // namespace
}  // namespace nvmecr::bench

int main(int argc, char** argv) {
  using namespace nvmecr;
  using namespace nvmecr::bench;

  bool quick = false;
  bool profile = false;
  std::string out_path = "BENCH_PERF.json";
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_suite [--quick] [--profile] [--out PATH] "
                   "[--check BASELINE]\n");
      return 2;
    }
  }

  // DES: 256 tasks ping-ponging at the same sim time, after a short
  // warmup run. It runs first, so the process's peak RSS right after it
  // is the DES's own.
  const uint32_t des_iters = quick ? 4096 : 16384;
  std::printf("[des] %u tasks x %u iters...\n", 256u, des_iters);
  (void)run_des(256, 1024);
  const DesResult des = run_des(256, des_iters);
  const double des_rss_mib = peak_rss_mib();
  std::printf("[des] %.1f Mev/s (%.1f ns/ev)  peak rss %.1f MiB\n",
              des.events_per_sec / 1e6, des.ns_per_event, des_rss_mib);

  // CRC64: 1 MiB buffer.
  const uint32_t crc_reps = quick ? 64 : 512;
  std::printf("[crc64] 1 MiB x %u reps...\n", crc_reps);
  const CrcResult crc = run_crc(1_MiB, crc_reps);
  std::printf("[crc64] slice16: %.0f MB/s  bytewise: %.0f MB/s  "
              "speedup %.2fx\n",
              crc.mb_per_sec, crc.baseline_mb_per_sec, crc.speedup);

  // PayloadStore: sequential pattern stream + cached tag reads.
  const uint64_t pay_bytes = quick ? 1_GiB : 8_GiB;
  const uint32_t tag_reps = quick ? 1000 : 10000;
  std::printf("[payload] %.0f GiB stream, %u tag reads...\n",
              static_cast<double>(pay_bytes) / (1_GiB), tag_reps);
  const PayloadResult pay = run_payload(pay_bytes, tag_reps);
  std::printf("[payload] write %.1f GB/s (conceptual)  tag reads "
              "%.2g/s  cache hits %llu  extents %zu\n",
              pay.write_gb_per_sec, pay.tag_reads_per_sec,
              static_cast<unsigned long long>(pay.tag_cache_hits),
              pay.extents);

  // End-to-end fig07-style run.
  const uint32_t e2e_ranks = quick ? 56 : 112;
  const uint32_t e2e_ckpts = quick ? 2 : 5;
  std::printf("[e2e] CoMD weak scaling, %u ranks, %u checkpoints...\n",
              e2e_ranks, e2e_ckpts);
  // Warmup run (discarded): the first run in a process pays the kernel
  // page faults for the allocator arenas and device models, and fills
  // the frame pool's freelists. Then best of two.
  run_e2e(e2e_ranks, e2e_ckpts);
  E2eResult e2e = run_e2e(e2e_ranks, e2e_ckpts);
  {
    const E2eResult again = run_e2e(e2e_ranks, e2e_ckpts);
    if (again.events_per_sec > e2e.events_per_sec) e2e = again;
  }
  std::printf("[e2e] wall %.2f s  %.1f Mev/s  calendar %.1f%%  frames/ev "
              "%.2f (recycled %.1f%%)  group_commits %llu  tag hits %llu  "
              "efficiency %.3f\n",
              e2e.wall_sec, e2e.events_per_sec / 1e6,
              100 * e2e.calendar_hit_frac, e2e.frames_per_event,
              100 * e2e.frames_recycled_frac,
              static_cast<unsigned long long>(e2e.group_commits),
              static_cast<unsigned long long>(e2e.tag_cache_hits),
              e2e.sim_efficiency);

  // Observability overhead: paired arms, median and IQR over reps. The
  // arms are 112-rank runs (0.07-0.1 s of CPU each on a 4-vCPU host);
  // the printed IQR says how finely the median resolves the bound.
  const uint32_t obs_ranks = 112;
  const uint32_t obs_ckpts = quick ? 2 : 4;
  const uint32_t obs_reps = quick ? 7 : 15;
  std::printf("[obs] overhead, CoMD %u ranks x %u checkpoints, %u reps of "
              "6 arms...\n", obs_ranks, obs_ckpts, obs_reps);
  const OverheadResult ovh = run_overhead(obs_ranks, obs_ckpts, obs_reps);
  std::printf("[obs] plain %.3f s  hooks-only %+.2f%% (IQR %.2f%%)  "
              "profiled %+.2f%% (IQR %.2f%%)\n",
              ovh.plain_sec, 100 * ovh.disabled.median,
              100 * ovh.disabled.iqr, 100 * ovh.profiled.median,
              100 * ovh.profiled.iqr);

  // Optional deep profile of the e2e run (tables only; not in the JSON).
  if (profile) run_profiled_e2e(e2e_ranks, e2e_ckpts);

  // Offload: disabled-wrapper overhead + host/target XOR fabric bytes.
  const uint32_t off_reps = quick ? 3 : 5;
  std::printf("[offload] pass-through wrapper x %u reps + XOR fabric "
              "sweep...\n", off_reps);
  const OffloadPerfResult off = run_offload_perf(off_reps, quick);
  std::printf("[offload] plain %.3f s  wrapped %.3f s (+%.2f%%)  "
              "xor fabric host %.2f GiB -> target %.2f GiB (-%.1f%%)\n",
              off.plain_sec, off.wrapped_sec, 100 * off.disabled_frac,
              static_cast<double>(off.host_xor_fabric) / (1ull << 30),
              static_cast<double>(off.target_xor_fabric) / (1ull << 30),
              100 * off.fabric_savings_frac);

  // Degraded-mode overhead: 1 of 8 targets dead, resilience active.
  const uint32_t deg_ranks = 8;
  const uint32_t deg_ckpts = quick ? 2 : 3;
  std::printf("[degraded] CoMD %u ranks, %u checkpoints, 1/8 targets "
              "dead...\n", deg_ranks, deg_ckpts);
  const DegradedResult deg = run_degraded(deg_ranks, deg_ckpts);
  std::printf("[degraded] healthy %.2f ms  degraded %.2f ms  overhead "
              "%.3fx  failovers %llu\n",
              static_cast<double>(deg.healthy_sim) / 1e6,
              static_cast<double>(deg.degraded_sim) / 1e6,
              deg.overhead_ratio,
              static_cast<unsigned long long>(deg.failovers));

  // Chaos campaign absorption: fraction of seeded failure schedules the
  // resilient stack carries to digest-identical completion. A model
  // property like `degraded`, so informational, not gated (DESIGN.md
  // §17; bench/ext_chaos runs the full interval sweep).
  const uint32_t campaign_n = quick ? 6 : 16;
  std::printf("[campaign] chaos survival, %u pinned-seed schedules...\n",
              campaign_n);
  chaos::CampaignRunner campaign{chaos::CampaignConfig{}};
  const chaos::CampaignResult camp =
      campaign.run_campaign(campaign_n, /*shrink=*/false);
  const double campaign_eff =
      camp.runs > 0 ? static_cast<double>(camp.completed) / camp.runs : 0;
  std::printf("[campaign] %u/%u completed digest-identical, %u typed "
              "failures, %u violations\n",
              camp.completed, camp.runs, camp.typed_failures,
              camp.hangs + camp.corruptions + camp.divergences + camp.infra);

  // BENCH_PERF.json: one flat key/value list drives both the JSON file
  // and the --check delta table, so adding a metric is a one-liner.
  const std::vector<std::pair<std::string, double>> results = {
      {"des.events_per_sec", des.events_per_sec},
      {"des.ns_per_event", des.ns_per_event},
      {"des.peak_rss_mib", des_rss_mib},
      {"crc64.mb_per_sec", crc.mb_per_sec},
      {"crc64.baseline_mb_per_sec", crc.baseline_mb_per_sec},
      {"crc64.speedup", crc.speedup},
      {"payload.write_gb_per_sec", pay.write_gb_per_sec},
      {"payload.tag_reads_per_sec", pay.tag_reads_per_sec},
      {"payload.tag_cache_hits", static_cast<double>(pay.tag_cache_hits)},
      {"e2e.wall_sec", e2e.wall_sec},
      {"e2e.events_per_sec", e2e.events_per_sec},
      {"e2e.calendar_hit_frac", e2e.calendar_hit_frac},
      {"e2e.frames_per_event", e2e.frames_per_event},
      {"e2e.frames_recycled_frac", e2e.frames_recycled_frac},
      {"e2e.oplog_group_commits", static_cast<double>(e2e.group_commits)},
      {"e2e.payload_tag_cache_hits", static_cast<double>(e2e.tag_cache_hits)},
      {"e2e.payload_tag_cache_fills",
       static_cast<double>(e2e.tag_cache_fills)},
      {"e2e.payload_tag_reads", static_cast<double>(e2e.tag_reads)},
      {"e2e.fabric_bytes", static_cast<double>(e2e.fabric_bytes)},
      {"e2e.sim_efficiency", e2e.sim_efficiency},
      {"campaign.efficiency", campaign_eff},
      {"obs.plain_sec", ovh.plain_sec},
      {"obs.disabled_overhead_frac", ovh.disabled.median},
      {"obs.disabled_overhead_iqr", ovh.disabled.iqr},
      {"obs.profile_overhead_frac", ovh.profiled.median},
      {"obs.profile_overhead_iqr", ovh.profiled.iqr},
      {"offload.disabled_overhead_frac", off.disabled_frac},
      {"offload.host_xor_fabric_bytes",
       static_cast<double>(off.host_xor_fabric)},
      {"offload.target_xor_fabric_bytes",
       static_cast<double>(off.target_xor_fabric)},
      {"offload.fabric_savings_frac", off.fabric_savings_frac},
      {"degraded.healthy_sim_ms",
       static_cast<double>(deg.healthy_sim) / 1e6},
      {"degraded.sim_ms", static_cast<double>(deg.degraded_sim) / 1e6},
      {"degraded.overhead_ratio", deg.overhead_ratio},
      {"degraded.failovers", static_cast<double>(deg.failovers)},
  };
  {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "perf_suite: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\n  \"schema\": \"nvmecr-perf-suite-v1\",\n  \"quick\": "
        << (quick ? "true" : "false");
    for (const auto& [key, value] : results) {
      out << ",\n  \"" << key << "\": " << json_num(value);
    }
    out << "\n}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  // Regression gate: ratios only (machine-independent).
  if (!check_path.empty()) {
    std::vector<std::pair<std::string, double>> baseline;
    if (!read_baseline(check_path, baseline)) {
      std::fprintf(stderr, "perf_suite: cannot read baseline %s\n",
                   check_path.c_str());
      return 1;
    }
    // Delta table: every baselined metric next to this run's value, so a
    // PR's perf impact is visible in the CI log without downloading the
    // artifact. Gates below only act on the machine-independent subset.
    std::printf("%-34s %14s %14s %9s\n", "metric", "baseline", "current",
                "delta");
    for (const auto& [key, want] : baseline) {
      const auto it =
          std::find_if(results.begin(), results.end(),
                       [&key = key](const auto& kv) { return kv.first == key; });
      if (it == results.end()) continue;
      const double got = it->second;
      if (want != 0) {
        std::printf("%-34s %14s %14s %+8.1f%%\n", key.c_str(),
                    json_num(want).c_str(), json_num(got).c_str(),
                    100 * (got - want) / want);
      } else {
        std::printf("%-34s %14s %14s %9s\n", key.c_str(),
                    json_num(want).c_str(), json_num(got).c_str(), "-");
      }
    }
    bool ok = true;
    // Upper bounds pass at or below `limit`, floors at or above it.
    const auto gate = [&ok](const std::string& key, double got,
                            double limit, bool upper) {
      if (upper ? got <= limit : got >= limit) {
        std::printf("gate ok: %s = %.4f (%s %.4f)\n", key.c_str(), got,
                    upper ? "limit" : "floor", limit);
        return;
      }
      std::fprintf(stderr, "PERF REGRESSION: %s = %.4f %s %.4f\n",
                   key.c_str(), got, upper ? "exceeds limit" : "below floor",
                   limit);
      ok = false;
    };
    for (const auto& [key, want] : baseline) {
      // The profiling layer must stay below the baselined overhead
      // fraction when disabled: the median of the paired reps. Short
      // arms are noisier under --quick CI load, so the quick bound is
      // looser.
      if (key == "obs.disabled_overhead_frac") {
        gate(key, ovh.disabled.median, quick ? 0.10 : want, true);
      } else if (key == "offload.disabled_overhead_frac") {
        // The disabled offload wrapper must stay under the baselined
        // overhead fraction (looser quick bound, one re-measure before
        // failing).
        const double limit = quick ? 0.15 : want;
        double got = off.disabled_frac;
        if (got > limit) {
          got = std::min(got, run_offload_perf(off_reps, quick).disabled_frac);
        }
        gate(key, got, limit, true);
      } else if (key == "offload.fabric_savings_frac") {
        // Deterministic simulated quantity: target-side XOR must keep
        // saving at least the baselined fraction of checkpoint fabric
        // bytes (the offload pipeline acceptance headline).
        gate(key, off.fabric_savings_frac, want, false);
      } else if (key == "e2e.frames_per_event") {
        // Structural: how many coroutine frames the nvmf data path
        // allocates per unit of simulation progress. A creeping increase
        // means someone re-split the flattened fast paths; 10% headroom.
        gate(key, e2e.frames_per_event, want * 1.10, true);
      } else if (key == "e2e.calendar_hit_frac") {
        // Deterministic: the share of dispatches the calendar serves.
        // Falls toward 0 if events bypass it into the heap.
        gate(key, e2e.calendar_hit_frac, want, false);
      } else if (key == "e2e.frames_recycled_frac") {
        // The share of the run's frames served from the pool's
        // freelists (the warmup run fills them). Falls to 0 if frames
        // bypass the pool.
        gate(key, e2e.frames_recycled_frac, want, false);
      } else if (key == "crc64.speedup") {
        gate(key, crc.speedup, want * 0.75, false);  // >25% regression
      }
      // Any other baselined key is informational.
    }
    if (!ok) return 1;
  }
  return 0;
}
