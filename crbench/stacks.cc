#include "stacks.h"

#include <optional>
#include <utility>

#include "bench_util.h"
#include "common/rng.h"
#include "nvmecr/runtime.h"
#include "redundancy/engine.h"
#include "resilience/failover.h"
#include "resilience/health.h"
#include "resilience/retry.h"

namespace crbench {

using namespace nvmecr::literals;
using nvmecr::Status;
using nvmecr::StatusOr;
using nvmecr::kMillisecond;
using nvmecr::nvmecr_rt::Cluster;
using nvmecr::nvmecr_rt::ClusterSpec;
using nvmecr::nvmecr_rt::JobAllocation;
using nvmecr::nvmecr_rt::NvmecrSystem;
using nvmecr::nvmecr_rt::RuntimeConfig;
using nvmecr::nvmecr_rt::Scheduler;
using nvmecr::workloads::AppDriver;
using nvmecr::workloads::AppRunParams;
using nvmecr::workloads::AppRunResult;
using nvmecr::workloads::ComdParams;
using nvmecr::workloads::KillPoint;
using nvmecr::workloads::KillSpec;
using nvmecr::workloads::RestorePlan;
namespace resilience = nvmecr::resilience;
namespace redundancy = nvmecr::redundancy;

namespace {

constexpr uint32_t kRanks = 448;

/// 64 KiB checkpoints in 4 KiB writes every 1 ms of compute: metadata,
/// per-IO fixed costs and the application layer dominate.
ComdParams small_params() {
  ComdParams p;
  p.nranks = kRanks;
  p.procs_per_node = 28;
  p.atoms_per_rank = 64;
  p.bytes_per_atom = 1024;
  p.io_chunk = 4_KiB;
  p.checkpoints = 50;
  p.compute_per_period = 1 * kMillisecond;
  p.keep_last = 2;
  return p;
}

/// 16 MiB checkpoints in 1 MiB writes, one kill after every checkpoint.
ComdParams failover_params() {
  ComdParams p;
  p.nranks = kRanks;
  p.procs_per_node = 28;
  p.atoms_per_rank = 4096;
  p.bytes_per_atom = 4096;
  p.io_chunk = 1_MiB;
  p.checkpoints = 16;
  p.compute_per_period = 2 * kMillisecond;
  p.keep_last = 2;
  return p;
}

const std::vector<WorkloadDef>& registry() {
  static const std::vector<WorkloadDef> defs = {
      {"ckpt_weak448", nvmecr::bench::weak_scaling_params(kRanks), 8, 1,
       false},
      {"ckpt_small448", small_params(), 8, 1, false},
      {"restart_failover448", failover_params(), 8, 4, true},
  };
  return defs;
}

const nvmecr::workloads::AppSpec& app() {
  const auto* spec = nvmecr::workloads::find_app("CoMD");
  NVMECR_CHECK(spec != nullptr);
  return *spec;
}

AppRunParams run_params(const ComdParams& io, uint64_t seed) {
  AppRunParams p;
  p.io = io;
  p.seed = seed;
  return p;
}

ClusterSpec cluster_spec(const WorkloadDef& def) {
  ClusterSpec s;
  s.compute_nodes = def.io.nranks / def.io.procs_per_node;
  s.storage_nodes = def.storage_nodes;
  s.storage_racks = def.storage_racks;
  return s;
}

/// The failover stack's primary target crash lands uniformly (seeded) in
/// [kCrashFrom, kCrashFrom + kCrashSpan) of sim time: epoch 0's
/// checkpoint streams run from ~35 ms (after connect + compute) to
/// beyond 1 s.
constexpr nvmecr::SimDuration kCrashFrom = 100 * kMillisecond;
constexpr nvmecr::SimDuration kCrashSpan = 200 * kMillisecond;

/// One storage stack under measurement. Member order is teardown order
/// in reverse: the failover layer goes first, the cluster last.
struct Stack {
  Cluster cluster;
  Scheduler sched;
  std::optional<JobAllocation> job;
  std::optional<resilience::HealthMonitor> monitor;
  std::optional<NvmecrSystem> primary;
  std::optional<redundancy::RedundantDeployment> dep;
  std::optional<resilience::ResilientSystem> resilient;
  nvmecr::baselines::StorageSystem* top = nullptr;
  Status error;

  Stack(const WorkloadDef& def, uint64_t seed, Probe& probe,
        const nvmecr::obs::Observer& o)
      : cluster(cluster_spec(def)), sched(cluster) {
    probe.attach(&cluster.engine());
    if (o.any()) cluster.install_observer(o);
    auto j = sched.allocate(def.io.nranks, def.io.procs_per_node,
                            nvmecr::bench::partition_for(def.io),
                            def.storage_nodes);
    if (!j.ok()) {
      error = j.status();
      return;
    }
    job = std::move(*j);
    RuntimeConfig config = nvmecr::bench::default_runtime_config();
    if (def.failover) {
      monitor.emplace(cluster.engine(), cluster.topology());
      monitor->set_observer(o);
      config.device_wrapper = resilience::make_retry_wrapper(
          cluster.engine(), *monitor, resilience::RetryPolicy{}, seed, o);
    }
    if (probe.tracing()) {
      config.device_wrapper =
          probe_device_wrapper(probe, std::move(config.device_wrapper));
    }
    primary.emplace(cluster, *job, config);
    top = &*primary;
    if (!def.failover) return;

    redundancy::RedundancyOptions ropts;
    ropts.scheme = redundancy::Scheme::kPartner;
    auto d = redundancy::deploy_redundancy(cluster, sched, *primary, *job,
                                           ropts, config);
    if (!d.ok()) {
      error = d.status();
      return;
    }
    dep.emplace(std::move(*d));
    resilience::ResilienceOptions opts;
    opts.seed = seed;
    resilient.emplace(cluster, sched, *dep->system, *monitor, *job, config,
                      opts);
    resilient->set_observer(o);
    top = &*resilient;

    // One primary target dies for good during epoch 0's checkpoint.
    nvmecr::Rng rng(nvmecr::mix64(seed ^ 0xC7A5'4F11ull));
    const auto at = kCrashFrom + static_cast<nvmecr::SimTime>(
                                     static_cast<double>(kCrashSpan) *
                                     rng.uniform01());
    cluster.target(0).schedule_crash(at);
  }
};

}  // namespace

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& d : registry()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadDef& d : registry()) out.emplace_back(d.name);
  return out;
}

StatusOr<AppRunResult> golden_run(const WorkloadDef& def, uint64_t seed) {
  ComdParams io = def.io;
  io.atoms_per_rank = 1;
  io.bytes_per_atom = 4096;
  io.io_chunk = 4_KiB;
  Cluster cluster(cluster_spec(def));
  Scheduler sched(cluster);
  auto job = sched.allocate(io.nranks, io.procs_per_node, 64_MiB,
                            def.storage_nodes);
  if (!job.ok()) return job.status();
  NvmecrSystem fast(cluster, *job, RuntimeConfig{});
  AppDriver driver(cluster, fast, app(), run_params(io, seed));
  return driver.run();
}

IterationResult run_iteration(const WorkloadDef& def, uint64_t seed,
                              const AppRunResult& golden, Instruments* inst) {
  IterationResult out;
  out.probe = std::make_unique<Probe>(def.io.nranks, inst != nullptr);
  Probe& probe = *out.probe;
  nvmecr::obs::Observer o;
  if (inst != nullptr) {
    o.metrics = &inst->metrics;
    o.dispatch = &inst->dispatch;
    o.epoch = &inst->epoch;
    probe.set_epoch_profiler(&inst->epoch);
  }
  const uint64_t frames0 = nvmecr::sim::frame_allocations();
  const uint64_t setup_probe_ns = speed_probe_ns();
  const uint64_t t0 = host_now_ns();
  Stack stack(def, seed, probe, o);
  if (!stack.error.ok()) {
    out.status = stack.error;
    probe.attach(nullptr);
    return out;
  }
  nvmecr::sim::Engine& eng = stack.cluster.engine();
  ProbeSystem sys(probe, *stack.top);
  std::optional<AppDriver> driver;
  driver.emplace(stack.cluster, sys, app(), run_params(def.io, seed));

  const uint32_t last = def.io.checkpoints - 1;
  std::vector<uint64_t>& fp = out.fingerprint;
  // Runs one AppDriver phase; returns its host end time and whether the
  // job ran to completion.
  auto phase = [&](auto&& body) {
    probe.begin_phase();
    StatusOr<AppRunResult> r = body();
    const uint64_t end = host_now_ns();
    probe.stop_laps(end);
    probe.end_phase();
    if (inst != nullptr) inst->dispatch.finish();
    if (r.ok()) {
      out.sim_job_ns += r->total_time;
      fp.push_back(static_cast<uint64_t>(r->total_time));
      fp.push_back(r->restored_epoch);
      fp.push_back(r->job_digest);
      if (out.status.ok() && r->restored) {
        out.status = r->killed ? nvmecr::workloads::verify_residuals(golden, *r)
                               : nvmecr::workloads::verify_restart(golden, *r);
      }
    } else if (out.status.ok()) {
      out.status = r.status();
    }
    return std::pair<uint64_t, bool>(end, r.ok() && !r->killed);
  };

  // Fresh run, killed after the first (failover) or last checkpoint. It
  // connects every session first: that is the end of set-up.
  const KillSpec first_kill{def.failover ? 0 : last,
                            KillPoint::kAfterCheckpoint};
  auto [run_end, done] = phase([&] { return driver->run(first_kill); });
  if (probe.connects() == def.io.nranks) {
    const uint64_t connected = probe.connected_host_ns();
    out.setup_s = (connected - t0) * 1e-9;
    out.setup_probe_ns = (setup_probe_ns + probe.connected_probe_ns()) / 2;
    out.connect_s = (connected - probe.first_connect_host_ns()) * 1e-9;
    out.run_s = (run_end - connected) * 1e-9;
  }

  // Restore sources: the failover view of each rank, then its session.
  std::vector<std::unique_ptr<nvmecr::baselines::StorageClient>> views;
  RestorePlan plan;
  if (def.failover && out.status.ok()) {
    for (uint32_t r = 0; r < def.io.nranks; ++r) {
      views.push_back(make_probe_client(
          probe, r, stack.resilient->failover_view(r), /*view=*/true));
    }
    plan.chain = [&views, &driver](uint32_t rank) {
      return std::vector<nvmecr::nvmecr_rt::RestoreSource>{
          {views[rank].get(), false, "failover"},
          {driver->session(rank), false, "fast"}};
    };
  }
  for (uint32_t e = def.failover ? 1 : last + 1;
       out.status.ok() && !done && e <= last + 1; ++e) {
    const KillSpec kill = e <= last
                              ? KillSpec{e, KillPoint::kAfterCheckpoint}
                              : KillSpec{};
    const uint64_t start = host_now_ns();
    probe.start_laps();
    auto [end, finished] = phase([&] { return driver->restart(plan, kill); });
    out.restart_s += (end - start) * 1e-9;
    done = finished;
    ++out.cycles;
  }
  if (out.status.ok() && !done) {
    out.status = nvmecr::InternalError("job never ran to completion");
  }

  out.events = eng.events_dispatched();
  out.ring_hits = eng.now_ring_hits();
  out.calendar_hits = eng.calendar_hits();
  out.fabric_bytes = stack.cluster.network().total_bytes_sent();
  if (stack.resilient) out.failovers = stack.resilient->failovers();
  if (stack.dep) out.replica_bytes = stack.dep->system->redundant_bytes();
  fp.push_back(eng.now());
  views.clear();
  driver.reset();  // sessions flush their microfs statistics on teardown
  out.metadata_bytes = stack.top->metadata_bytes();
  out.frames = nvmecr::sim::frame_allocations() - frames0;

  for (size_t i = 0; i < kNumOps; ++i) {
    fp.push_back(probe.op(static_cast<Op>(i)).count);
    fp.push_back(probe.op(static_cast<Op>(i)).failed);
  }
  for (uint64_t v :
       {out.events, out.ring_hits, out.calendar_hits, out.fabric_bytes,
        out.failovers, out.replica_bytes, out.metadata_bytes,
        probe.bytes_written(), probe.bytes_read(), probe.probe_misses(),
        probe.connects(), static_cast<uint64_t>(out.cycles),
        static_cast<uint64_t>(probe.laps().size())}) {
    fp.push_back(v);
  }
  probe.attach(nullptr);
  return out;
}

}  // namespace crbench
