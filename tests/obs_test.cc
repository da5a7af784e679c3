// Tests of the observability layer: metric primitives, the registry's
// snapshot formats, RunReport flag parsing, and end-to-end instrumented
// CoMD runs (span coverage across subsystems, counter tracks, snapshot
// determinism across identical simulations).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "nvmecr/cluster.h"
#include "nvmecr/runtime.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "obs/run_report.h"
#include "simcore/engine.h"
#include "simcore/profile.h"
#include "simcore/trace.h"
#include "workloads/comd.h"

namespace nvmecr {
namespace {

using namespace nvmecr::literals;
using nvmecr_rt::Cluster;
using nvmecr_rt::RuntimeConfig;
using nvmecr_rt::Scheduler;
using workloads::ComdDriver;
using workloads::ComdParams;

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

TEST(CounterTest, AccumulatesMonotonically) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

TEST(GaugeTest, TracksValueAndHighWater) {
  obs::Gauge g;
  g.set(0, 3.0);
  g.add(100, 2.0);
  g.add(200, -4.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
}

TEST(GaugeTest, TimelineRecordsDistinctTimes) {
  obs::Gauge g;
  g.set(0, 1.0);
  g.set(1000, 2.0);
  g.set(2000, 3.0);
  ASSERT_EQ(g.timeline().size(), 3u);
  EXPECT_EQ(g.timeline()[1].at, 1000);
  EXPECT_DOUBLE_EQ(g.timeline()[2].value, 3.0);
}

TEST(GaugeTest, ThrottlesToBoundedTimelineKeepingExactMax) {
  obs::Gauge g;
  // Far more updates than the point cap; the peak lands mid-stream.
  for (int i = 0; i < 100000; ++i) {
    const double v = (i == 54321) ? 1e9 : static_cast<double>(i % 17);
    g.set(static_cast<SimTime>(i) * 10, v);
  }
  EXPECT_LE(g.timeline().size(), 4096u);
  EXPECT_GT(g.timeline().size(), 0u);
  EXPECT_DOUBLE_EQ(g.max(), 1e9);  // exact despite decimation
  // Live value is the last update regardless of sampling.
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(99999 % 17));
  // Timeline stays time-ordered after decimation.
  for (size_t i = 1; i < g.timeline().size(); ++i) {
    EXPECT_LT(g.timeline()[i - 1].at, g.timeline()[i].at);
  }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(HistogramTest, MomentsAreExact) {
  obs::Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(HistogramTest, PercentilesExactAtExtremesBucketedBetween) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
  // Log2 buckets: p50 is approximate but must land within a factor of 2.
  const double p50 = h.percentile(50);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  const double p99 = h.percentile(99);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 1000.0);
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, CreateOnFirstUseWithStablePointers) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter("a.b");
  EXPECT_EQ(reg.counter("a.b"), c);  // same object on re-lookup
  c->add(7);
  EXPECT_EQ(reg.find_counter("a.b")->value(), 7u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("a.b"), nullptr);  // kinds are separate spaces
  reg.gauge("g")->set(0, 1.0);
  reg.histogram("h")->add(5.0);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistryTest, CsvAndJsonSnapshotsContainAllKinds) {
  obs::MetricsRegistry reg;
  reg.counter("io.cmds")->add(3);
  reg.gauge("io.depth")->set(1000, 2.0);
  reg.histogram("io.lat_ns")->add(4096.0);
  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("kind,name,count,value,mean,min,max,p50,p95,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("counter,io.cmds,"), std::string::npos);
  EXPECT_NE(csv.find("gauge,io.depth,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,io.lat_ns,"), std::string::npos);
  EXPECT_NE(csv.find("sample,io.depth,1000,"), std::string::npos);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"io.cmds\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, ExportsGaugesAsCounterTracks) {
  obs::MetricsRegistry reg;
  obs::Gauge* g = reg.gauge("nvmf.node16.qpair_depth");
  g->set(0, 1.0);
  g->set(1000, 3.0);
  sim::TraceCollector trace;
  reg.export_gauges_to_trace(trace);
  EXPECT_EQ(trace.size(), 2u);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("qpair_depth"), std::string::npos);
}

// ---------------------------------------------------------------------
// RunReport flag parsing
// ---------------------------------------------------------------------

TEST(RunReportTest, ParsesProfileAndFlightFlags) {
  const char* argv1[] = {"prog", "--profile", "-", "--flight=64"};
  obs::RunReport r = obs::RunReport::from_args(4, const_cast<char**>(argv1));
  EXPECT_TRUE(r.profile_enabled());
  EXPECT_TRUE(r.flight_enabled());
  EXPECT_FALSE(r.trace_enabled());  // flight arms the ring, not the file
  obs::Observer o = r.observer();
  EXPECT_NE(o.dispatch, nullptr);
  EXPECT_NE(o.epoch, nullptr);
  ASSERT_NE(o.trace, nullptr);  // --flight wires the collector in
  EXPECT_TRUE(r.trace().is_ring());
  EXPECT_TRUE(o.any());

  // --profile alone: profilers wired, no trace collector.
  const char* argv2[] = {"prog", "--profile=report.txt"};
  obs::RunReport r2 = obs::RunReport::from_args(2, const_cast<char**>(argv2));
  EXPECT_TRUE(r2.profile_enabled());
  EXPECT_FALSE(r2.flight_enabled());
  EXPECT_EQ(r2.observer().trace, nullptr);
  EXPECT_NE(r2.observer().dispatch, nullptr);
}

TEST(RunReportTest, ParsesBothFlagForms) {
  const char* argv1[] = {"prog", "--trace", "t.json", "--metrics=m.csv"};
  obs::RunReport r1 = obs::RunReport::from_args(
      4, const_cast<char**>(argv1));
  EXPECT_TRUE(r1.trace_enabled());
  EXPECT_TRUE(r1.metrics_enabled());
  EXPECT_NE(r1.observer().trace, nullptr);
  EXPECT_NE(r1.observer().metrics, nullptr);

  const char* argv2[] = {"prog"};
  obs::RunReport r2 = obs::RunReport::from_args(
      1, const_cast<char**>(argv2));
  EXPECT_FALSE(r2.enabled());
  EXPECT_EQ(r2.observer().trace, nullptr);
  EXPECT_EQ(r2.observer().metrics, nullptr);
  EXPECT_FALSE(r2.observer().any());
}

// ---------------------------------------------------------------------
// End-to-end: instrumented CoMD runs
// ---------------------------------------------------------------------

ComdParams tiny_params() {
  ComdParams p;
  p.nranks = 28;
  p.procs_per_node = 28;
  p.atoms_per_rank = 4096;
  p.bytes_per_atom = 512;  // 2 MiB per rank per checkpoint
  p.checkpoints = 3;
  p.compute_per_period = 20 * kMillisecond;
  p.io_chunk = 1_MiB;
  return p;
}

// Runs one instrumented job into the provided collector/registry.
void run_instrumented(sim::TraceCollector* trace,
                      obs::MetricsRegistry* metrics) {
  Cluster cluster;
  obs::Observer o;
  o.trace = trace;
  o.metrics = metrics;
  cluster.install_observer(o);
  Scheduler sched(cluster);
  const ComdParams params = tiny_params();
  auto job = sched.allocate(params.nranks, 28, 64_MiB, 2);
  ASSERT_TRUE(job.ok());
  RuntimeConfig config;
  config.fs.io_batch_hugeblocks = 64;
  nvmecr_rt::NvmecrSystem system(cluster, *job, config);
  auto m = ComdDriver::run(cluster, system, params);
  ASSERT_TRUE(m.ok());
}

TEST(ObservedRunTest, SpansCoverAllSubsystemsAndMetricsAreLive) {
  sim::TraceCollector trace;
  obs::MetricsRegistry metrics;
  run_instrumented(&trace, &metrics);
  ASSERT_GT(trace.size(), 0u);

  const std::string json = trace.to_json();
  // Spans from every layer of the checkpoint path.
  for (const char* track :
       {"runtime/rank0", "oplog/rank0", "microfs/rank0", "nvmf/node",
        "ssd/storage-nvme"}) {
    EXPECT_NE(json.find(track), std::string::npos) << track;
  }
  // Representative operations along the path.
  for (const char* op : {"\"name\":\"write\"", "\"name\":\"fsync\"",
                         "\"name\":\"append\"",
                         "\"name\":\"hugeblock_write\""}) {
    EXPECT_NE(json.find(op), std::string::npos) << op;
  }

  // The registry saw traffic from each subsystem.
  ASSERT_NE(metrics.find_counter("microfs.oplog.appended"), nullptr);
  EXPECT_GT(metrics.find_counter("microfs.oplog.appended")->value(), 0u);
  ASSERT_NE(metrics.find_counter("microfs.pool.allocs"), nullptr);
  EXPECT_GT(metrics.find_counter("microfs.pool.allocs")->value(), 0u);
  ASSERT_NE(metrics.find_histogram("runtime.write_ns"), nullptr);
  EXPECT_GT(metrics.find_histogram("runtime.write_ns")->count(), 0u);

  // qpair depth: some NVMf target saw inflight commands.
  double qpair_max = 0;
  bool found_qpair = false;
  for (uint32_t node = 0; node < 64; ++node) {
    const obs::Gauge* g = metrics.find_gauge(
        "nvmf.node" + std::to_string(node) + ".qpair_depth");
    if (g != nullptr) {
      found_qpair = true;
      if (g->max() > qpair_max) qpair_max = g->max();
    }
  }
  EXPECT_TRUE(found_qpair);
  EXPECT_GT(qpair_max, 0.0);

  // Gauge export yields counter tracks in the final trace.
  const size_t before = trace.size();
  metrics.export_gauges_to_trace(trace);
  EXPECT_GT(trace.size(), before);
  EXPECT_NE(trace.to_json().find("\"ph\":\"C\""), std::string::npos);
}

TEST(ObservedRunTest, SnapshotsAreDeterministicAcrossIdenticalRuns) {
  sim::TraceCollector t1, t2;
  obs::MetricsRegistry m1, m2;
  run_instrumented(&t1, &m1);
  run_instrumented(&t2, &m2);
  EXPECT_EQ(t1.size(), t2.size());
  EXPECT_EQ(t1.to_json(), t2.to_json());
  EXPECT_EQ(m1.to_csv(), m2.to_csv());
  EXPECT_EQ(m1.to_json(), m2.to_json());
}

TEST(ObservedRunTest, UninstrumentedRunRecordsNothing) {
  // The null observer must keep the whole stack silent: same job, no
  // observer installed, then prove the trace/registry stayed empty by
  // running with an all-null Observer explicitly installed.
  Cluster cluster;
  cluster.install_observer(obs::Observer{});
  Scheduler sched(cluster);
  const ComdParams params = tiny_params();
  auto job = sched.allocate(params.nranks, 28, 64_MiB, 2);
  ASSERT_TRUE(job.ok());
  RuntimeConfig config;
  config.fs.io_batch_hugeblocks = 64;
  nvmecr_rt::NvmecrSystem system(cluster, *job, config);
  auto m = ComdDriver::run(cluster, system, params);
  ASSERT_TRUE(m.ok());
}

// ---------------------------------------------------------------------
// TraceCollector: JSON escaping + flight-recorder ring
// ---------------------------------------------------------------------

TEST(TraceCollectorTest, EscapesHostileNamesInJson) {
  sim::TraceCollector t;
  t.add_span("tr\"ack", "na\nme\"q\\", 0, 1000);
  t.add_instant("plain", "tab\there", 2000);
  const std::string json = t.to_json();
  // The hostile span name survives as valid JSON escapes.
  EXPECT_NE(json.find("na\\nme\\\"q\\\\"), std::string::npos);
  EXPECT_NE(json.find("tr\\\"ack"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  // No raw quote from the name leaks into the output unescaped: every
  // '"' is either a JSON delimiter or preceded by a backslash, so the
  // raw sequences from the input must be gone.
  EXPECT_EQ(json.find("na\nme"), std::string::npos);
  EXPECT_EQ(json.find("tr\"ack"), std::string::npos);
}

TEST(TraceCollectorTest, FlightRingKeepsNewestEventsInOrder) {
  sim::TraceCollector t;
  t.set_ring_capacity(4);
  EXPECT_TRUE(t.is_ring());
  for (int i = 0; i < 10; ++i) {
    t.add_instant("ring", "ev" + std::to_string(i),
                  static_cast<SimTime>(i) * 100);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total_added(), 10u);
  const std::string json = t.to_json();
  // Only the newest four survive, oldest-first.
  EXPECT_EQ(json.find("\"ev5\""), std::string::npos);
  for (int i = 6; i < 10; ++i) {
    EXPECT_NE(json.find("\"ev" + std::to_string(i) + "\""),
              std::string::npos) << i;
  }
  EXPECT_LT(json.find("\"ev6\""), json.find("\"ev9\""));

  // dump_tail shows the newest `max` events and flags the truncation.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.dump_tail(f, 3);
  std::rewind(f);
  char buf[4096] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string text(buf, n);
  EXPECT_NE(text.find("ev9"), std::string::npos);
  EXPECT_NE(text.find("ev7"), std::string::npos);
  EXPECT_EQ(text.find("ev6"), std::string::npos);  // beyond the tail
  EXPECT_NE(text.find("earlier"), std::string::npos);

  // Leaving ring mode resets the collector to unbounded collection.
  t.set_ring_capacity(0);
  EXPECT_FALSE(t.is_ring());
  EXPECT_EQ(t.size(), 0u);
  t.add_instant("ring", "fresh", 0);
  EXPECT_EQ(t.size(), 1u);
}

// ---------------------------------------------------------------------
// DispatchProfiler
// ---------------------------------------------------------------------

TEST(DispatchProfilerTest, ChargesDispatchesToScopedCostCenters) {
  sim::Engine eng;
  sim::DispatchProfiler prof;
  eng.set_profiler(&prof);
  eng.set_profile_hooks(true);
  const uint16_t tag = eng.profile_tag("unit/work");
  ASSERT_NE(tag, 0);
  EXPECT_EQ(eng.profile_tag("unit/work"), tag);  // interning is stable

  eng.run_task([](sim::Engine& e, uint16_t t) -> sim::Task<void> {
    sim::ProfileTagScope scope(e, t);
    for (int i = 0; i < 100; ++i) co_await e.yield();
    co_await e.delay(1000);
  }(eng, tag));
  prof.finish();

  bool found = false;
  for (const auto& c : prof.ranked()) {
    if (c.name != "unit/work") continue;
    found = true;
    // 100 yields + 1 delay resume all carry the scope's tag.
    EXPECT_GE(c.dispatches, 101u);
  }
  EXPECT_TRUE(found);
  EXPECT_GT(prof.total_dispatches(), 0u);
  EXPECT_GT(prof.frame_allocations(), 0u);
  const std::string table = prof.table(5);
  EXPECT_NE(table.find("unit/work"), std::string::npos);

  // reset() drops samples but keeps interned tags valid.
  prof.reset();
  EXPECT_EQ(prof.total_dispatches(), 0u);
  EXPECT_EQ(eng.profile_tag("unit/work"), tag);
}

// ---------------------------------------------------------------------
// EpochProfiler
// ---------------------------------------------------------------------

TEST(EpochProfilerTest, PhaseStatsFindTheStraggler) {
  obs::EpochProfiler ep;
  using P = obs::EpochProfiler::Phase;
  // Epoch 0, serialize: rank 3 takes 4x the median.
  for (uint32_t r = 0; r < 4; ++r) {
    ep.record_rank(r, 0, P::kSerialize, r == 3 ? 400 : 100);
  }
  ep.record_rank(1, 1, P::kFabric, 50);
  EXPECT_EQ(ep.epoch_count(), 2u);
  EXPECT_EQ(ep.rank_count(), 4u);

  const auto st = ep.phase_stats(0, P::kSerialize);
  EXPECT_EQ(st.total_ns, 700u);
  EXPECT_EQ(st.median_ns, 100u);
  EXPECT_EQ(st.max_ns, 400u);
  EXPECT_EQ(st.max_rank, 3u);
  EXPECT_EQ(st.ranks, 4u);
  EXPECT_DOUBLE_EQ(st.straggler(), 4.0);
  EXPECT_EQ(ep.phase_total_ns(1, P::kFabric), 50u);
  EXPECT_EQ(ep.phase_total_ns(7, P::kFabric), 0u);  // out of range

  const std::string table = ep.drilldown_table();
  EXPECT_NE(table.find("serialize"), std::string::npos);
  EXPECT_NE(table.find("fabric"), std::string::npos);
  EXPECT_NE(table.find("straggler"), std::string::npos);
  EXPECT_NE(table.find("4.00x"), std::string::npos);
}

TEST(EpochProfilerTest, DecodesRankEpochAndMetaBitFromEngineContext) {
  sim::Engine eng;
  eng.set_profile_hooks(true);
  obs::EpochProfiler ep;
  using P = obs::EpochProfiler::Phase;

  ep.set_rank_epoch(2, 5);
  eng.set_profile_ctx(3u << sim::profile_ctx::kRankShift);  // rank 2
  ep.record(eng, P::kFabric, 100);
  EXPECT_EQ(ep.rank_ns(5, P::kFabric, 2), 100u);

  // The meta bit redirects nested device phases to the oplog phase.
  eng.set_profile_ctx((3u << sim::profile_ctx::kRankShift) |
                      sim::profile_ctx::kMetaBit);
  ep.record(eng, P::kFlash, 70);
  EXPECT_EQ(ep.rank_ns(5, P::kOplog, 2), 70u);
  EXPECT_EQ(ep.phase_total_ns(5, P::kFlash), 0u);

  // No rank stamped: the sample is dropped, not misattributed.
  eng.set_profile_ctx(0);
  ep.record(eng, P::kFabric, 9);
  EXPECT_EQ(ep.phase_total_ns(5, P::kFabric), 100u);
}

// ---------------------------------------------------------------------
// End-to-end: profiled CoMD run
// ---------------------------------------------------------------------

TEST(ObservedRunTest, ProfiledRunAttributesDispatchAndEpochPhases) {
  Cluster cluster;
  sim::DispatchProfiler prof;
  obs::EpochProfiler ep;
  obs::Observer o;
  o.dispatch = &prof;
  o.epoch = &ep;
  cluster.install_observer(o);
  Scheduler sched(cluster);
  const ComdParams params = tiny_params();
  auto job = sched.allocate(params.nranks, 28, 64_MiB, 2);
  ASSERT_TRUE(job.ok());
  RuntimeConfig config;
  config.fs.io_batch_hugeblocks = 64;
  nvmecr_rt::NvmecrSystem system(cluster, *job, config);
  auto m = ComdDriver::run(cluster, system, params);
  ASSERT_TRUE(m.ok());
  prof.finish();

  // Every instrumented layer shows up as a dispatch cost center.
  std::set<std::string> names;
  for (const auto& c : prof.ranked()) names.insert(c.name);
  for (const char* want : {"comd/compute", "comd/barrier", "microfs/data",
                           "nvmf", "hw/ssd"}) {
    EXPECT_TRUE(names.count(want)) << want;
  }
  EXPECT_GT(prof.total_dispatches(), 0u);
  EXPECT_LE(prof.total_dispatches(), cluster.engine().events_dispatched());
  EXPECT_GT(prof.frame_allocations(), 0u);
  EXPECT_GT(prof.total_wall_ns(), 0u);

  // Epoch drilldown: one epoch per checkpoint plus the restart pass,
  // with every rank represented.
  using P = obs::EpochProfiler::Phase;
  EXPECT_EQ(ep.epoch_count(), params.checkpoints + 1);
  EXPECT_EQ(ep.rank_count(), params.nranks);
  // Checkpoint epoch 0 decomposes into app + device phases.
  for (P p : {P::kSerialize, P::kFabric, P::kBarrier}) {
    EXPECT_GT(ep.phase_total_ns(0, p), 0u) << static_cast<int>(p);
  }
  // Device-side and metadata phases fire somewhere in the run (summed
  // across epochs: queueing can be negligible in any single epoch).
  for (P p : {P::kOplog, P::kTargetQueue, P::kFlash}) {
    uint64_t total = 0;
    for (uint32_t e = 0; e < ep.epoch_count(); ++e) {
      total += ep.phase_total_ns(e, p);
    }
    EXPECT_GT(total, 0u) << static_cast<int>(p);
  }
  const auto st = ep.phase_stats(0, P::kSerialize);
  EXPECT_EQ(st.ranks, params.nranks);
  EXPECT_GE(st.straggler(), 1.0);
  const std::string table = ep.drilldown_table();
  EXPECT_NE(table.find("serialize"), std::string::npos);
  EXPECT_NE(table.find("barrier"), std::string::npos);
}

TEST(ObservedRunTest, ProfiledRunMatchesUnprofiledMetrics) {
  // Arming the profilers must not change simulated behavior: identical
  // jobs with and without profiling produce identical metrics snapshots.
  sim::TraceCollector t1;
  obs::MetricsRegistry m1;
  run_instrumented(&t1, &m1);

  Cluster cluster;
  sim::TraceCollector t2;
  obs::MetricsRegistry m2;
  sim::DispatchProfiler prof;
  obs::EpochProfiler ep;
  obs::Observer o;
  o.trace = &t2;
  o.metrics = &m2;
  o.dispatch = &prof;
  o.epoch = &ep;
  cluster.install_observer(o);
  Scheduler sched(cluster);
  const ComdParams params = tiny_params();
  auto job = sched.allocate(params.nranks, 28, 64_MiB, 2);
  ASSERT_TRUE(job.ok());
  RuntimeConfig config;
  config.fs.io_batch_hugeblocks = 64;
  nvmecr_rt::NvmecrSystem system(cluster, *job, config);
  auto m = ComdDriver::run(cluster, system, params);
  ASSERT_TRUE(m.ok());

  EXPECT_EQ(t1.to_json(), t2.to_json());
  EXPECT_EQ(m1.to_csv(), m2.to_csv());
}

}  // namespace
}  // namespace nvmecr
