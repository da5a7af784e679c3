// crbench: paper-scale checkpoint/restart benchmark program.
//
//   crbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//           [--out DIR]
//
// Runs the named workload repeatedly for about S host seconds, each
// iteration on a freshly built stack, verifies every restore against a
// golden run, checks that counts and simulated values repeat exactly, and
// prints every metric with its unit; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics from untraced iterations.
// --trace 1 alternates untraced and traced iterations and reports the
// per-layer metrics; the spans of the first traced iteration are written
// to DIR/<workload>.seed<N>.spans.csv.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "stacks.h"

namespace crbench {
namespace {

using nvmecr::obs::EpochProfiler;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 40;
  bool trace = false;
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "crbench: %s\nusage: crbench --workload {", why);
  const auto names = workload_names();
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(stderr, "%s%s", i ? "|" : "", names[i].c_str());
  }
  std::fprintf(stderr,
               "} [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 0);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) usage("--trace takes 0|1");
    } else if (flag == "--out") {
      a.out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// p50 and the highest of p99.9/p99/p90 with at least ten samples above
/// it (p50 again when there are fewer than 20 samples), in microseconds.
struct Tail {
  double p50_us = 0;
  double tail_us = 0;
  double tail_pct = 50;
};

Tail tail_of(std::vector<nvmecr::SimDuration> ns) {
  Tail t;
  if (ns.empty()) return t;
  std::sort(ns.begin(), ns.end());
  const double n = static_cast<double>(ns.size());
  auto at = [&](double pct) {
    const size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
    return static_cast<double>(ns[std::max<size_t>(rank, 1) - 1]) * 1e-3;
  };
  t.p50_us = at(50);
  t.tail_us = t.p50_us;
  for (double pct : {99.9, 99.0, 90.0}) {
    if (n * (100.0 - pct) / 100.0 >= 10.0) {
      t.tail_pct = pct;
      t.tail_us = at(pct);
      break;
    }
  }
  return t;
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t counter(const Instruments& inst, const char* name) {
  const auto* c = inst.metrics.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

double epoch_phase_ms(const EpochProfiler& ep, EpochProfiler::Phase p) {
  uint64_t ns = 0;
  for (uint32_t e = 0; e < ep.epoch_count(); ++e) ns += ep.phase_total_ns(e, p);
  return static_cast<double>(ns) * 1e-6;
}

/// Idle time at the barrier after each checkpoint: every rank waits for
/// the slowest close of the same (phase, epoch). Summed over ranks.
double barrier_ms(const Probe& probe) {
  std::map<std::pair<uint32_t, uint32_t>, std::vector<SimTime>> waves;
  for (const CheckpointClose& c : probe.closes()) {
    waves[{c.phase, c.epoch}].push_back(c.at);
  }
  double ns = 0;
  for (const auto& [key, at] : waves) {
    const SimTime last = *std::max_element(at.begin(), at.end());
    for (SimTime t : at) ns += static_cast<double>(last - t);
  }
  return ns * 1e-6;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

double host_s(const IterationResult& r) { return r.run_s + r.restart_s; }

/// Time of speed_probe_ns() on the reference host (a 4-vCPU KVM guest of
/// a 2.1 GHz Xeon) while no other work shared its core. Host times are
/// reported at that speed: t * kReferenceProbeNs / probe.
constexpr double kReferenceProbeNs = 17000;

double at_reference_speed(double host_time, uint64_t probe_ns) {
  return host_time * kReferenceProbeNs /
         static_cast<double>(std::max<uint64_t>(probe_ns, 1));
}

/// Lower quartile, interpolated between closest ranks.
double lower_quartile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double pos = 0.25 * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

/// Host seconds of one pass over the timed stretches at the reference
/// speed. Lap i is the same simulated work in every iteration at a seed
/// (the lap count is part of the fingerprint); its host time, scaled by
/// the speed probes around it, still varies with what else the shared
/// host runs, so the pass takes each lap's lower quartile over the
/// iterations.
double reference_pass_s(const std::vector<IterationResult>& its) {
  size_t laps = SIZE_MAX;  // differs only in a failed run
  for (const IterationResult& r : its) {
    laps = std::min(laps, r.probe->laps().size());
  }
  double ns = 0;
  std::vector<double> samples;
  for (size_t i = 0; i < laps; ++i) {
    samples.clear();
    for (const IterationResult& r : its) {
      const Probe::Lap& lap = r.probe->laps()[i];
      samples.push_back(
          at_reference_speed(static_cast<double>(lap.host_ns), lap.probe_ns));
    }
    ns += lower_quartile(samples);
  }
  return ns * 1e-9;
}

/// Per-layer metrics read from the untraced iterations (host times).
Metrics untraced_layer_metrics(const std::vector<IterationResult>& untraced) {
  std::vector<double> run, restart, connect;
  for (const IterationResult& u : untraced) {
    run.push_back(u.run_s);
    restart.push_back(u.restart_s);
    connect.push_back(u.connect_s);
  }
  const double events = static_cast<double>(untraced.front().events);
  Metrics m;
  m["simcore.host_ns_per_event"] = {
      ratio(reference_pass_s(untraced) * 1e9, events), "ns"};
  m["simcore.frames_per_event"] = {
      ratio(static_cast<double>(untraced.front().frames), events), "count"};
  m["nvmecr.connect_host_ms"] = {median(connect) * 1e3, "ms"};
  m["workloads.run_host_s"] = {median(run), "s"};
  m["workloads.restart_host_s"] = {median(restart), "s"};
  return m;
}

/// Per-layer metrics of one traced iteration.
Metrics traced_layer_metrics(const IterationResult& r,
                             const Instruments& inst) {
  const Probe& p = *r.probe;
  Metrics m;
  const double events = static_cast<double>(r.events);
  const double app_bytes = static_cast<double>(r.app_bytes());
  const double ops = static_cast<double>(p.attempted() - p.connects());
  const double ios = static_cast<double>(p.dev_ios());

  m["simcore.events"] = {events, "count"};
  m["simcore.events_per_mib"] = {ratio(events, app_bytes / (1 << 20)), "1/MiB"};
  m["simcore.calendar_hit_frac"] = {ratio(r.calendar_hits, events), "frac"};
  m["simcore.ring_hit_frac"] = {ratio(r.ring_hits, events), "frac"};

  m["fabric.bytes_per_app_byte"] = {ratio(r.fabric_bytes, app_bytes), "B/B"};
  m["fabric.sim_ms"] = {epoch_phase_ms(inst.epoch, EpochProfiler::Phase::kFabric),
                        "ms"};

  std::map<std::string, nvmecr::sim::DispatchProfiler::CostCenter> cc;
  for (auto& c : inst.dispatch.ranked()) cc[c.name] = c;
  const double wall = static_cast<double>(inst.dispatch.total_wall_ns());
  auto share = [&](const char* name) { return ratio(cc[name].wall_ns, wall); };
  const double nvmf_disp = static_cast<double>(cc["nvmf"].dispatches);
  m["nvmf.dispatches"] = {nvmf_disp, "count"};
  m["nvmf.dispatches_per_io"] = {ratio(nvmf_disp, ios), "count"};
  m["nvmf.host_share"] = {share("nvmf"), "frac"};
  m["nvmf.host_ns_per_dispatch"] = {ratio(cc["nvmf"].wall_ns, nvmf_disp), "ns"};
  m["nvmf.target_queue_sim_ms"] = {
      epoch_phase_ms(inst.epoch, EpochProfiler::Phase::kTargetQueue), "ms"};

  m["hw.ssd.dispatches_per_io"] = {ratio(cc["hw/ssd"].dispatches, ios), "count"};
  m["hw.ssd.host_share"] = {share("hw/ssd"), "frac"};
  m["hw.ios"] = {ios, "count"};
  m["hw.io_kib_mean"] = {ratio(p.dev_bytes(), ios) / 1024.0, "KiB"};
  const Tail io = tail_of(p.dev_sim_ns());
  m["hw.io_sim_us_p50"] = {io.p50_us, "us"};
  m["hw.io_sim_us_tail"] = {io.tail_us, "us"};
  m["hw.io_tail_pct"] = {io.tail_pct, "%"};
  m["hw.flash_sim_ms"] = {epoch_phase_ms(inst.epoch, EpochProfiler::Phase::kFlash),
                          "ms"};

  const double appended = counter(inst, "microfs.oplog.appended");
  m["microfs.data.host_share"] = {share("microfs/data"), "frac"};
  m["microfs.oplog.host_share"] = {share("microfs/oplog"), "frac"};
  m["microfs.oplog.appended_per_op"] = {ratio(appended, ops), "count"};
  // Share of log updates folded into an existing record instead of
  // taking a slot of their own.
  const double coalesced = counter(inst, "microfs.oplog.coalesced");
  m["microfs.oplog.coalesced_frac"] = {
      ratio(coalesced, appended + coalesced), "frac"};
  m["microfs.oplog.group_commits"] = {
      static_cast<double>(counter(inst, "microfs.oplog.group_commits")),
      "count"};
  m["microfs.oplog.bytes_per_op"] = {
      ratio(counter(inst, "microfs.oplog.bytes_written"), ops), "B"};
  m["microfs.bptree.ops_per_op"] = {
      ratio(counter(inst, "microfs.bptree.ops"), ops), "count"};
  m["microfs.metadata_bytes_per_app_byte"] = {
      ratio(r.metadata_bytes, app_bytes), "B/B"};

  for (size_t i = 0; i < kNumOps; ++i) {
    const Probe::OpStats& s = p.op(static_cast<Op>(i));
    const std::string base = std::string("nvmecr.") + op_name(static_cast<Op>(i));
    const Tail t = tail_of(s.sim_ns);
    m[base + ".count"] = {static_cast<double>(s.count), "count"};
    m[base + ".failed"] = {static_cast<double>(s.failed), "count"};
    m[base + ".sim_us_p50"] = {t.p50_us, "us"};
    m[base + ".sim_us_tail"] = {t.tail_us, "us"};
    m[base + ".tail_pct"] = {t.tail_pct, "%"};
  }
  m["nvmecr.op_fail_frac"] = {
      ratio(p.failed(), static_cast<double>(p.attempted())), "frac"};
  m["nvmecr.probe_misses"] = {static_cast<double>(p.probe_misses()), "count"};

  m["workloads.untagged.host_share"] = {share("(untagged)"), "frac"};
  m["workloads.barrier_sim_ms"] = {barrier_ms(p), "ms"};
  m["workloads.sim_job_s"] = {static_cast<double>(r.sim_job_ns) * 1e-9, "s"};

  m["redundancy.replica_bytes_per_app_byte"] = {
      ratio(r.replica_bytes, app_bytes), "B/B"};
  m["redundancy.degraded"] = {
      static_cast<double>(counter(inst, "redundancy.degraded")), "count"};
  m["resilience.failovers"] = {
      static_cast<double>(counter(inst, "resilience.failovers")), "count"};
  m["resilience.retries"] = {
      static_cast<double>(counter(inst, "resilience.retries")), "count"};
  m["resilience.deaths"] = {
      static_cast<double>(counter(inst, "resilience.deaths")), "count"};
  m["resilience.degraded_ckpts"] = {
      static_cast<double>(counter(inst, "resilience.degraded_ckpts")),
      "count"};
  m["obs.spans"] = {static_cast<double>(p.spans().size()), "count"};
  return m;
}

/// Counts and simulated values only a traced iteration records; they
/// must repeat exactly across traced iterations.
std::vector<uint64_t> traced_fingerprint(const IterationResult& r,
                                         const Instruments& inst) {
  const Probe& p = *r.probe;
  std::vector<uint64_t> fp = {p.dev_ios(), p.dev_bytes(), p.spans().size()};
  uint64_t sum = 0;
  for (auto ns : p.dev_sim_ns()) sum += static_cast<uint64_t>(ns);
  fp.push_back(sum);
  for (size_t i = 0; i < kNumOps; ++i) {
    sum = 0;
    for (auto ns : p.op(static_cast<Op>(i)).sim_ns) sum += static_cast<uint64_t>(ns);
    fp.push_back(sum);
  }
  for (size_t ph = 0; ph < EpochProfiler::kNumPhases; ++ph) {
    for (uint32_t e = 0; e < inst.epoch.epoch_count(); ++e) {
      fp.push_back(inst.epoch.phase_total_ns(
          e, static_cast<EpochProfiler::Phase>(ph)));
    }
  }
  for (const char* name :
       {"microfs.oplog.appended", "microfs.oplog.coalesced",
        "microfs.oplog.bytes_written", "microfs.oplog.group_commits",
        "microfs.bptree.ops", "redundancy.degraded", "resilience.failovers",
        "resilience.retries", "resilience.deaths",
        "resilience.degraded_ckpts"}) {
    fp.push_back(counter(inst, name));
  }
  fp.push_back(static_cast<uint64_t>(barrier_ms(p) * 1e6));
  return fp;
}

void write_spans(const Probe& probe, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "crbench: cannot write %s\n", path.c_str());
    return;
  }
  static const char* kKinds[] = {"create",  "open_read", "write",   "read",
                                 "fsync",   "close",     "unlink",  "phase",
                                 "dev_write", "dev_read", "dev_flush"};
  std::fprintf(f, "id,parent,rank,kind,ok,sim_start_ns,sim_end_ns,bytes\n");
  for (const Span& s : probe.spans()) {
    std::fprintf(f, "%" PRIu64 ",%" PRIu64 ",%d,%s,%d,%" PRId64 ",%" PRId64
                    ",%" PRIu64 "\n",
                 s.id, s.parent, s.rank == UINT32_MAX ? -1 : static_cast<int>(s.rank),
                 kKinds[s.kind], s.ok ? 1 : 0, static_cast<int64_t>(s.start),
                 static_cast<int64_t>(s.end), s.bytes);
  }
  std::fclose(f);
}

int run(const Args& args) {
  const WorkloadDef* def = find_workload(args.workload);
  if (def == nullptr) usage(("unknown workload " + args.workload).c_str());

  auto golden = golden_run(*def, args.seed);
  if (!golden.ok()) {
    std::fprintf(stderr, "crbench: golden run failed: %s\n",
                 golden.status().to_string().c_str());
    return 1;
  }

  std::vector<IterationResult> untraced;
  std::vector<Metrics> traced;  // per-layer metrics of traced iterations
  std::vector<double> traced_host;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> reference;
  std::vector<uint64_t> traced_reference;

  auto account = [&](const IterationResult& r) {
    std::printf("# %s iteration: setup %.4f s, run %.4f s, restart %.4f s, "
                "%.3f GiB, %" PRIu64 " events\n",
                r.probe->tracing() ? "traced" : "untraced", r.setup_s, r.run_s,
                r.restart_s,
                static_cast<double>(r.app_bytes()) / static_cast<double>(1ull << 30),
                r.events);
    if (!r.status.ok()) {
      std::fprintf(stderr, "crbench: %s seed %" PRIu64 " failed: %s\n",
                   def->name, args.seed, r.status.to_string().c_str());
      correct = false;
      // Every call of a failed iteration counts as failed (at least one,
      // when the stack could not even be built).
      const uint64_t calls = std::max<uint64_t>(r.probe->attempted(), 1);
      attempted += calls;
      failed += calls;
    } else {
      attempted += r.probe->attempted();
      failed += r.probe->failed();
      if (r.probe->failed() != 0) correct = false;
    }
    if (reference.empty()) {
      reference = r.fingerprint;
    } else if (reference != r.fingerprint) {
      std::fprintf(stderr, "crbench: counts or simulated values differ "
                           "between two iterations at the same seed\n");
      correct = false;
    }
  };

  // Measure for about args.seconds: stop once another iteration would
  // overrun, but take at least three samples of each kind.
  const size_t kMinSamples = 3;
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  std::vector<double> durations;
  for (;;) {
    const size_t n = args.trace ? traced.size() : untraced.size();
    const double elapsed = since(t0);
    if (n >= kMinSamples && elapsed + median(durations) > args.seconds) break;
    const auto it0 = Clock::now();
    untraced.push_back(run_iteration(*def, args.seed, *golden, nullptr));
    account(untraced.back());
    if (args.trace) {
      auto inst = std::make_unique<Instruments>();
      IterationResult r = run_iteration(*def, args.seed, *golden, inst.get());
      account(r);
      auto fp = traced_fingerprint(r, *inst);
      if (traced.empty()) {
        traced_reference = fp;
        std::string path = args.out + "/" + def->name + ".seed" +
                           std::to_string(args.seed) + ".spans.csv";
        write_spans(*r.probe, path);
      } else if (fp != traced_reference) {
        std::fprintf(stderr, "crbench: traced counts or simulated values "
                             "differ between two iterations\n");
        correct = false;
      }
      traced.push_back(traced_layer_metrics(r, *inst));
      traced_host.push_back(host_s(r));
    }
    durations.push_back(since(it0));
    if (!correct) break;
  }

  Metrics out;
  if (!args.trace) {
    std::vector<double> setup, host;
    for (const IterationResult& r : untraced) {
      setup.push_back(at_reference_speed(r.setup_s, r.setup_probe_ns));
      host.push_back(host_s(r));
    }
    const double gib = static_cast<double>(untraced.front().app_bytes()) /
                       static_cast<double>(1ull << 30);
    const double per_gib = ratio(reference_pass_s(untraced), gib);
    std::printf("# host s per GiB: %.6g median iteration, %.6g at reference "
                "speed\n", ratio(median(host), gib), per_gib);
    out["setup_s"] = {median(setup), "s"};
    out["host_s_per_gib"] = {per_gib, "s/GiB"};
    out["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  } else {
    // Host-time shares vary run to run: report each metric's median over
    // the traced iterations (counts and simulated values are identical).
    std::map<std::string, std::vector<double>> samples;
    for (const Metrics& t : traced) {
      for (const auto& [name, metric] : t) {
        samples[name].push_back(metric.value);
        out.insert_or_assign(name, metric);
      }
    }
    for (auto& [name, values] : samples) out.at(name).value = median(values);
    for (const auto& [name, metric] : untraced_layer_metrics(untraced)) {
      out.insert_or_assign(name, metric);
    }
    std::vector<double> untraced_host;
    for (const IterationResult& r : untraced) untraced_host.push_back(host_s(r));
    out["obs.trace_overhead_frac"] = {
        ratio(median(traced_host), median(untraced_host)) - 1.0, "frac"};
  }

  std::printf("%-44s %18s  %s\n", "metric", "value", "unit");
  for (const auto& [name, m] : out) {
    std::printf("%-44s %18.6g  %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("# %s seed %" PRIu64 ": %zu untraced + %zu traced iterations, "
              "%s\n",
              def->name, args.seed, untraced.size(), traced.size(),
              correct ? "verified" : "FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, m] : out) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace crbench

int main(int argc, char** argv) {
  return crbench::run(crbench::parse(argc, argv));
}
