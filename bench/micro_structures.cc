// Micro-benchmarks (google-benchmark) for the real data structures the
// control plane runs on: the DRAM B+Tree, the circular hugeblock pool,
// microfs block mapping, operation-log record encode/append (with and
// without coalescing), and the SSD payload store's extent index.
// These measure host CPU, not simulated time — they justify the
// control-plane cost constants used by the simulation.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hw/payload_store.h"
#include "hw/ram_device.h"
#include "microfs/block_pool.h"
#include "microfs/bptree.h"
#include "microfs/microfs.h"
#include "microfs/oplog.h"
#include "simcore/engine.h"

namespace nvmecr::microfs {
namespace {

using namespace nvmecr::literals;

void BM_BpTreeInsert(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    BpTree<uint64_t, uint64_t> tree;
    state.ResumeTiming();
    for (uint64_t i = 0; i < n; ++i) tree.insert(mix64(i), i);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BpTreeInsert)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_BpTreeLookup(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  BpTree<uint64_t, uint64_t> tree;
  for (uint64_t i = 0; i < n; ++i) tree.insert(mix64(i), i);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(mix64(key++ % n)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BpTreeLookup)->Arg(16384)->Arg(131072);

void BM_BpTreePathLookup(benchmark::State& state) {
  // String-keyed lookups as the microfs namespace uses them.
  BpTree<std::string, uint64_t> tree;
  std::vector<std::string> paths;
  for (int i = 0; i < 4096; ++i) {
    paths.push_back("/ckpt/step0007/rank" + std::to_string(i) + ".ckpt");
    tree.insert(paths.back(), static_cast<uint64_t>(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(paths[i++ % paths.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BpTreePathLookup);

void BM_BlockPoolAllocFree(benchmark::State& state) {
  BlockPool pool(1u << 20);
  for (auto _ : state) {
    const uint64_t b = pool.alloc().value();
    benchmark::DoNotOptimize(b);
    NVMECR_CHECK(pool.free(b).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockPoolAllocFree);

void BM_MicroFsExtendUnlink(benchmark::State& state) {
  // One ckpt_weak448 rank checkpoint through the hugeblock map: a 156 MiB
  // file extended by 4 MiB tagged writes on an instant RAM device, then
  // unlinked. ns_per_hugeblock tracks the microfs block-bookkeeping cost
  // center (map extension, pool runs). Device commands are batched as in
  // the paper-scale runs (bench_util.h), so they do not swamp it.
  constexpr uint64_t kFile = 156_MiB;
  constexpr uint64_t kCall = 4_MiB;
  sim::Engine eng;
  hw::RamDevice dev(256_MiB);
  Options options;
  options.io_batch_hugeblocks = 256;
  auto fs = eng.run_task(MicroFs::format(eng, dev, options)).value();
  const uint64_t hugeblocks = kFile / fs->options().hugeblock_size;
  double ns = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    eng.run_task([](MicroFs& m) -> sim::Task<void> {
      auto fd = co_await m.creat("/rank.ckpt");
      NVMECR_CHECK(fd.ok());
      for (uint64_t off = 0; off < kFile; off += kCall) {
        NVMECR_CHECK((co_await m.write_tagged(*fd, kCall)).ok());
      }
      NVMECR_CHECK((co_await m.close(*fd)).ok());
      NVMECR_CHECK((co_await m.unlink("/rank.ckpt")).ok());
    }(*fs));
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - t0)
              .count();
  }
  state.counters["ns_per_hugeblock"] =
      ns / (static_cast<double>(hugeblocks) *
            static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MicroFsExtendUnlink)->Unit(benchmark::kMillisecond);

void BM_LogRecordEncode(benchmark::State& state) {
  LogRecord rec;
  rec.type = OpType::kWrite;
  rec.ino = 42;
  rec.a = 123456789;
  rec.b = 4 << 20;
  std::vector<std::byte> buf;
  for (auto _ : state) {
    OpLog::encode_record(rec, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          OpLog::kRecordBytes);
}
BENCHMARK(BM_LogRecordEncode);

sim::Task<void> far_future_timer(sim::Engine& eng, uint32_t id,
                                 uint32_t hops) {
  // Deterministic per-task delay stream, skewed so most timers land past
  // the calendar window (~8.4 ms) and exercise window rotation + the
  // heap spill tier rather than the bucketed fast path.
  uint64_t seed = mix64(id + 1);
  for (uint32_t i = 0; i < hops; ++i) {
    seed = mix64(seed);
    const SimDuration delay =
        (i % 8 == 0) ? static_cast<SimDuration>(100 + seed % 4000)
                     : static_cast<SimDuration>(1'000'000 + seed % 40'000'000);
    co_await eng.sleep_until(eng.now() + delay);
  }
}

sim::Task<void> near_timer(sim::Engine& eng, uint32_t id, uint32_t hops) {
  // e2e-shaped delays: fabric hops (1-8 us), device service (20-200 us),
  // with an occasional epoch-scale pause. This is the distribution the
  // calendar tier actually serves in a CoMD run.
  uint64_t seed = mix64(id + 1);
  for (uint32_t i = 0; i < hops; ++i) {
    seed = mix64(seed);
    SimDuration delay;
    if (i % 16 == 15) {
      delay = static_cast<SimDuration>(1'000'000 + seed % 4'000'000);
    } else if (i % 3 == 0) {
      delay = static_cast<SimDuration>(1'000 + seed % 7'000);
    } else {
      delay = static_cast<SimDuration>(20'000 + seed % 180'000);
    }
    co_await eng.sleep_until(eng.now() + delay);
  }
}

void BM_SchedulerNearTimer(benchmark::State& state) {
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    for (uint32_t id = 0; id < 256; ++id) {
      eng.spawn(near_timer(eng, id, 128));
    }
    eng.run();
    events += eng.events_dispatched();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SchedulerNearTimer)->Unit(benchmark::kMillisecond);

void BM_SchedulerFarFuture(benchmark::State& state) {
  // Worst case for the calendar tier: far-future-skewed timers that
  // mostly bypass the buckets, so window rotation does the work — the
  // honest counterpart to the near-timer-heavy e2e numbers in perf_suite.
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    for (uint32_t id = 0; id < 64; ++id) {
      eng.spawn(far_future_timer(eng, id, 128));
    }
    eng.run();
    events += eng.events_dispatched();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SchedulerFarFuture)->Unit(benchmark::kMillisecond);

void BM_OpLogAppend(benchmark::State& state) {
  const bool coalesce = state.range(0) != 0;
  sim::Engine eng;
  hw::RamDevice dev(64_MiB);
  OpLog log(dev, 0, 8192, coalesce ? 64 : 0);
  uint64_t off = 0;
  for (auto _ : state) {
    LogRecord rec;
    rec.type = OpType::kWrite;
    rec.ino = 7;
    rec.a = off;
    rec.b = 1_MiB;
    off += 1_MiB;
    eng.run_task([](OpLog& l, LogRecord r) -> sim::Task<void> {
      NVMECR_CHECK((co_await l.append(r)).ok());
    }(log, rec));
    if (!coalesce && log.free_slots() == 0) {
      state.PauseTiming();
      log.truncate_before(log.begin_epoch());
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_OpLogAppend)->Arg(0)->Arg(1);

void BM_PayloadStoreInterleavedRewrite(benchmark::State& state) {
  // One SSD's payload store under the ckpt_small448 shape: 56 rank
  // partitions written round-robin. A 4 KiB checkpoint write is submitted
  // as its whole 32 KiB hugeblock (§III-E), so a 64 KiB file rewrites
  // each of its two hugeblocks eight times; every fourth op also writes
  // one op-log slot as real bytes. Each partition rotates through 100
  // file slots and 48 log slots, all pre-filled, so the store holds
  // ~8.3k extents throughout. One iteration is one op.
  constexpr uint64_t kRanks = 56;
  constexpr uint64_t kHuge = 32_KiB;
  constexpr uint64_t kFileHbs = 2;
  constexpr uint64_t kWritesPerHb = 8;
  constexpr uint64_t kFiles = 100;
  constexpr uint64_t kLogSlots = 48;
  constexpr uint64_t kSlotBytes = 192;
  constexpr uint64_t kPartition = 16_MiB;
  constexpr uint64_t kDataBase = round_up(kLogSlots * kSlotBytes, kHuge);
  hw::PayloadStore store(4096);
  const std::vector<std::byte> record(kSlotBytes, std::byte{0x5a});
  struct Rank {
    uint64_t file = 0;
    uint64_t write = 0;
    uint64_t slot = 0;
    uint64_t seed = 0;
  };
  std::vector<Rank> ranks(kRanks);
  uint64_t next_seed = 1;
  for (uint64_t r = 0; r < kRanks; ++r) {
    for (uint64_t f = 0; f < kFiles; ++f) {
      NVMECR_CHECK(store
                       .write_pattern(r * kPartition + kDataBase +
                                          f * kFileHbs * kHuge,
                                      kFileHbs * kHuge, next_seed++)
                       .ok());
    }
    for (uint64_t slot = 0; slot < kLogSlots; ++slot) {
      store.write_bytes(r * kPartition + slot * kSlotBytes, record);
    }
    ranks[r].seed = next_seed++;
  }
  uint64_t op = 0;
  for (auto _ : state) {
    const uint64_t r = op % kRanks;
    Rank& rank = ranks[r];
    const uint64_t hb = rank.file * kFileHbs + rank.write / kWritesPerHb;
    NVMECR_CHECK(store
                     .write_pattern(r * kPartition + kDataBase + hb * kHuge,
                                    kHuge, rank.seed)
                     .ok());
    if (++rank.write == kFileHbs * kWritesPerHb) {
      rank.write = 0;
      rank.file = (rank.file + 1) % kFiles;
      rank.seed = next_seed++;
    }
    if (op % 4 == 0) {
      store.write_bytes(r * kPartition + rank.slot * kSlotBytes, record);
      rank.slot = (rank.slot + 1) % kLogSlots;
    }
    ++op;
  }
  state.counters["extents"] = static_cast<double>(store.extent_count());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PayloadStoreInterleavedRewrite);

}  // namespace
}  // namespace nvmecr::microfs

BENCHMARK_MAIN();
