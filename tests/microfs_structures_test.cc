// Tests for the microfs persistence structures: circular block pool,
// operation log (with coalescing), dirent codec, inode table.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hw/ram_device.h"
#include "microfs/block_pool.h"
#include "microfs/dirfile.h"
#include "microfs/inode.h"
#include "microfs/microfs.h"
#include "microfs/oplog.h"
#include "simcore/engine.h"

namespace nvmecr::microfs {
namespace {

using namespace nvmecr::literals;

// ---------------------------------------------------------------------
// BlockPool
// ---------------------------------------------------------------------

TEST(BlockPoolTest, AllocInIndexOrderWhenFresh) {
  BlockPool pool(8);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(*pool.alloc(), i);
  EXPECT_EQ(pool.alloc().status().code(), ErrorCode::kNoSpace);
}

TEST(BlockPoolTest, FreeRecyclesFifo) {
  BlockPool pool(4);
  for (int i = 0; i < 4; ++i) (void)*pool.alloc();
  EXPECT_TRUE(pool.free(2).ok());
  EXPECT_TRUE(pool.free(0).ok());
  EXPECT_EQ(*pool.alloc(), 2u);  // freed order, not index order
  EXPECT_EQ(*pool.alloc(), 0u);
}

TEST(BlockPoolTest, DoubleFreeDetected) {
  BlockPool pool(4);
  (void)*pool.alloc();
  EXPECT_TRUE(pool.free(0).ok());
  EXPECT_EQ(pool.free(0).code(), ErrorCode::kInternal);
  EXPECT_EQ(pool.free(99).code(), ErrorCode::kInvalidArgument);
}

TEST(BlockPoolTest, CountsTrack) {
  BlockPool pool(10);
  EXPECT_EQ(pool.free_count(), 10u);
  (void)*pool.alloc();
  (void)*pool.alloc();
  EXPECT_EQ(pool.free_count(), 8u);
  EXPECT_EQ(pool.allocated_count(), 2u);
  EXPECT_TRUE(pool.is_allocated(0));
  EXPECT_FALSE(pool.is_allocated(5));
}

TEST(BlockPoolTest, DeterministicSequences) {
  // Two pools fed the same alloc/free sequence yield identical results —
  // the property log replay relies on.
  BlockPool a(64), b(64);
  Rng rng(5);
  std::vector<uint64_t> live;
  for (int i = 0; i < 500; ++i) {
    if (live.empty() || rng.uniform(3) != 0) {
      auto ba = a.alloc();
      auto bb = b.alloc();
      ASSERT_EQ(ba.ok(), bb.ok());
      if (ba.ok()) {
        ASSERT_EQ(*ba, *bb);
        live.push_back(*ba);
      }
    } else {
      const size_t pick = rng.uniform(live.size());
      const uint64_t block = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      ASSERT_TRUE(a.free(block).ok());
      ASSERT_TRUE(b.free(block).ok());
    }
  }
}

TEST(BlockPoolTest, SerializeRoundtrip) {
  BlockPool pool(32);
  for (int i = 0; i < 20; ++i) (void)*pool.alloc();
  ASSERT_TRUE(pool.free(3).ok());
  ASSERT_TRUE(pool.free(17).ok());
  std::vector<std::byte> buf;
  pool.serialize(buf);

  BlockPool restored;
  auto used = restored.deserialize(buf);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, buf.size());
  EXPECT_EQ(restored.free_count(), pool.free_count());
  EXPECT_EQ(restored.total(), pool.total());
  // Continued allocation matches.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*pool.alloc(), *restored.alloc());
}

TEST(BlockPoolTest, DeserializeRejectsCorruption) {
  BlockPool pool(8);
  (void)*pool.alloc();
  std::vector<std::byte> buf;
  pool.serialize(buf);
  buf[10] ^= std::byte{0xff};
  BlockPool restored;
  EXPECT_FALSE(restored.deserialize(buf).ok());
}

// ---------------------------------------------------------------------
// BlockPool run path vs a per-block reference
// ---------------------------------------------------------------------

// The pool as it was before runs: one ring slot and one bitmap bit per
// call. The run path must reproduce its ids, errors and serialized bytes.
struct RefPool {
  std::vector<uint64_t> ring;
  uint64_t head = 0, live = 0;
  std::vector<bool> allocated;

  explicit RefPool(uint64_t n) : ring(n), live(n), allocated(n, false) {
    for (uint64_t i = 0; i < n; ++i) ring[i] = i;
  }
  StatusOr<uint64_t> alloc() {
    if (live == 0) return NoSpaceError("hugeblock pool exhausted");
    const uint64_t b = ring[head];
    head = (head + 1) % ring.size();
    --live;
    allocated[b] = true;
    return b;
  }
  Status free(uint64_t b) {
    if (b >= ring.size()) return InvalidArgumentError("block out of range");
    if (!allocated[b]) return InternalError("double free of hugeblock");
    allocated[b] = false;
    ring[(head + live) % ring.size()] = b;
    ++live;
    return OkStatus();
  }
  // n single calls; stops at the first error like a run does.
  Status alloc_n(std::span<uint64_t> out) {
    for (uint64_t& b : out) {
      auto r = alloc();
      if (!r.ok()) return r.status();
      b = *r;
    }
    return OkStatus();
  }
  Status free_n(std::span<const uint64_t> ids) {
    for (uint64_t b : ids) NVMECR_RETURN_IF_ERROR(free(b));
    return OkStatus();
  }
  std::vector<std::byte> serialize() const {
    std::vector<std::byte> out;
    Encoder enc(out);
    enc.u64(ring.size());
    enc.u64(head);
    enc.u64(live);
    for (uint64_t v : ring) enc.u64(v);
    for (uint64_t i = 0; i < ring.size(); i += 64) {
      uint64_t word = 0;
      for (uint64_t b = 0; b < 64 && i + b < ring.size(); ++b) {
        if (allocated[i + b]) word |= 1ull << b;
      }
      enc.u64(word);
    }
    return out;
  }
};

void expect_same_state(const BlockPool& pool, const RefPool& ref) {
  EXPECT_EQ(pool.free_count(), ref.live);
  std::vector<std::byte> bytes;
  pool.serialize(bytes);
  EXPECT_EQ(bytes, ref.serialize());
}

TEST(BlockPoolRunTest, RandomRunsMatchPerBlockReference) {
  // 203 blocks: the bitmap's last word is partial, and runs straddle
  // word boundaries.
  constexpr uint64_t kBlocks = 203;
  constexpr uint64_t kUnset = ~0ull - 1;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    BlockPool pool(kBlocks);
    RefPool ref(kBlocks);
    Rng rng(seed);
    std::vector<uint64_t> live;  // allocation order
    for (int step = 0; step < 400; ++step) {
      if (live.empty() || rng.uniform(2) == 0) {
        // Up to 80 at once: sometimes more than is free.
        std::vector<uint64_t> got(1 + rng.uniform(80), kUnset);
        std::vector<uint64_t> want(got.size(), kUnset);
        const Status s = pool.alloc_run(got);
        const Status r = ref.alloc_n(want);
        ASSERT_EQ(s.code(), r.code()) << "seed " << seed << " step " << step;
        ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
        for (uint64_t b : got) {
          if (b != kUnset) live.push_back(b);
        }
      } else {
        // Free a slice of the live list, whole file extents being the
        // common case, sometimes reversed so runs break up.
        const size_t from = rng.uniform(live.size());
        const size_t n = 1 + rng.uniform(live.size() - from);
        std::vector<uint64_t> ids(live.begin() + static_cast<ptrdiff_t>(from),
                                  live.begin() +
                                      static_cast<ptrdiff_t>(from + n));
        if (rng.uniform(4) == 0) std::reverse(ids.begin(), ids.end());
        live.erase(live.begin() + static_cast<ptrdiff_t>(from),
                   live.begin() + static_cast<ptrdiff_t>(from + n));
        ASSERT_TRUE(pool.free_run(ids).ok());
        ASSERT_TRUE(ref.free_n(ids).ok());
      }
      expect_same_state(pool, ref);
      if (HasFailure()) return;
    }
  }
}

TEST(BlockPoolRunTest, RunEqualsSingleCalls) {
  BlockPool runs(100), singles(100);
  std::vector<uint64_t> a(70), b;
  ASSERT_TRUE(runs.alloc_run(a).ok());
  for (int i = 0; i < 70; ++i) b.push_back(*singles.alloc());
  EXPECT_EQ(a, b);
  const std::span<const uint64_t> back(a.data() + 10, 40);
  ASSERT_TRUE(runs.free_run(back).ok());
  for (uint64_t id : back) ASSERT_TRUE(singles.free(id).ok());
  std::vector<uint64_t> c(60), d;
  ASSERT_TRUE(runs.alloc_run(c).ok());
  for (int i = 0; i < 60; ++i) d.push_back(*singles.alloc());
  EXPECT_EQ(c, d);
  std::vector<std::byte> x, y;
  runs.serialize(x);
  singles.serialize(y);
  EXPECT_EQ(x, y);
}

TEST(BlockPoolRunTest, RingWraparound) {
  BlockPool pool(10);
  RefPool ref(10);
  std::vector<uint64_t> first(8), want(8);
  ASSERT_TRUE(pool.alloc_run(first).ok());
  ASSERT_TRUE(ref.alloc_n(want).ok());
  // Frees land at ring slots 0..5 after the tail wraps past slot 9.
  const std::vector<uint64_t> freed{0, 1, 2, 3, 4, 5};
  ASSERT_TRUE(pool.free_run(freed).ok());
  ASSERT_TRUE(ref.free_n(freed).ok());
  // The window [8, 10) + [0, 6) wraps: 8, 9, then the recycled ids.
  std::vector<uint64_t> got(7), expect(7);
  ASSERT_TRUE(pool.alloc_run(got).ok());
  ASSERT_TRUE(ref.alloc_n(expect).ok());
  EXPECT_EQ(got, (std::vector<uint64_t>{8, 9, 0, 1, 2, 3, 4}));
  EXPECT_EQ(got, expect);
  expect_same_state(pool, ref);
}

TEST(BlockPoolRunTest, ExhaustionMidRunLeavesSinglesPartialMap) {
  constexpr uint64_t kUnset = ~0ull;
  BlockPool pool(8);
  RefPool ref(8);
  std::vector<uint64_t> got(3), want(3);
  ASSERT_TRUE(pool.alloc_run(got).ok());
  ASSERT_TRUE(ref.alloc_n(want).ok());
  std::vector<uint64_t> map(12, kUnset), ref_map(12, kUnset);
  const Status s = pool.alloc_run(map);
  const Status r = ref.alloc_n(ref_map);
  EXPECT_EQ(s.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(r.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(map, ref_map);
  EXPECT_EQ(map, (std::vector<uint64_t>{3, 4, 5, 6, 7, kUnset, kUnset, kUnset,
                                        kUnset, kUnset, kUnset, kUnset}));
  EXPECT_EQ(pool.free_count(), 0u);
  expect_same_state(pool, ref);
  // Nothing free: a run fails without touching its output.
  std::vector<uint64_t> none(2, kUnset);
  EXPECT_EQ(pool.alloc_run(none).code(), ErrorCode::kNoSpace);
  EXPECT_EQ(none, (std::vector<uint64_t>{kUnset, kUnset}));
}

TEST(BlockPoolRunTest, BadFreesRejectedAfterFreeingThePrefix) {
  BlockPool pool(16);
  RefPool ref(16);
  std::vector<uint64_t> ids(10), ref_ids(10);
  ASSERT_TRUE(pool.alloc_run(ids).ok());
  ASSERT_TRUE(ref.alloc_n(ref_ids).ok());

  // Double free inside one call: 2, 3, 4 go back, the second 3 fails.
  const std::vector<uint64_t> dup{2, 3, 4, 3};
  EXPECT_EQ(pool.free_run(dup).code(), ErrorCode::kInternal);
  EXPECT_EQ(ref.free_n(dup).code(), ErrorCode::kInternal);
  expect_same_state(pool, ref);
  // Double free of a block freed earlier, in the middle of a run.
  const std::vector<uint64_t> again{5, 6, 2, 7};
  EXPECT_EQ(pool.free_run(again).code(), ErrorCode::kInternal);
  EXPECT_EQ(ref.free_n(again).code(), ErrorCode::kInternal);
  expect_same_state(pool, ref);
  // Out of range, also right after a valid run and past the pool's end.
  const std::vector<uint64_t> range{8, 16, 9};
  EXPECT_EQ(pool.free_run(range).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(ref.free_n(range).code(), ErrorCode::kInvalidArgument);
  expect_same_state(pool, ref);
  EXPECT_EQ(pool.free(~0ull).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(pool.free(12).code(), ErrorCode::kInternal);  // never allocated
  expect_same_state(pool, ref);
  EXPECT_FALSE(pool.is_allocated(2));
  EXPECT_TRUE(pool.is_allocated(9));
}

// ---------------------------------------------------------------------
// MicroFs block maps across truncate, NoSpace and crash replay
// ---------------------------------------------------------------------

TEST(MicroFsBlockMapTest, TruncateRewriteReplayRestoresTheSameMap) {
  sim::Engine eng;
  hw::RamDevice dev(8_MiB, 4096);
  std::vector<std::vector<uint64_t>> maps;
  uint64_t free_blocks = 0;
  {
    auto fs = eng.run_task(MicroFs::format(eng, dev)).value();
    // Enough churn that the rewrite allocates across the ring's wrap.
    ASSERT_GT(fs->data_region_blocks(), 100u);
    const uint64_t B = fs->options().hugeblock_size;
    const uint64_t big = fs->data_region_blocks() * 2 / 5 * B;
    eng.run_task([](MicroFs& m, uint64_t big, uint64_t B) -> sim::Task<void> {
      auto a = co_await m.creat("/a");
      for (uint64_t off = 0; off < big; off += 8 * B) {
        EXPECT_TRUE((co_await m.write_tagged(*a, 8 * B)).ok());
      }
      EXPECT_TRUE((co_await m.close(*a)).ok());
      auto b = co_await m.creat("/b");
      EXPECT_TRUE((co_await m.write_tagged(*b, big)).ok());
      EXPECT_TRUE((co_await m.close(*b)).ok());
      // Truncate /a (creat on an existing file), rewrite it longer.
      a = co_await m.creat("/a");
      for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE((co_await m.write_tagged(*a, big / 4 + B / 2)).ok());
      }
      EXPECT_TRUE((co_await m.close(*a)).ok());
      EXPECT_TRUE((co_await m.unlink("/b")).ok());
      auto c = co_await m.creat("/c");
      EXPECT_TRUE((co_await m.write_tagged(*c, big / 2)).ok());
      EXPECT_TRUE((co_await m.close(*c)).ok());
    }(*fs, big, B));
    for (const auto& p : {"/a", "/c"}) {
      auto map = fs->block_map(p);
      ASSERT_TRUE(map.ok()) << p;
      maps.push_back(*map);
    }
    free_blocks = fs->free_blocks();
    // Crash: drop the instance without a state checkpoint, so recovery
    // replays create, write, truncate, rewrite and unlink records.
  }
  auto fs = eng.run_task(MicroFs::recover(eng, dev)).value();
  EXPECT_GT(fs->stats().replayed_records, 0u);
  EXPECT_EQ(fs->block_map("/a").value(), maps[0]);
  EXPECT_EQ(fs->block_map("/c").value(), maps[1]);
  EXPECT_EQ(fs->free_blocks(), free_blocks);
  EXPECT_FALSE(fs->stat("/b").ok());
  eng.run_task([](MicroFs& m) -> sim::Task<void> {
    auto report = co_await m.fsck();
    EXPECT_TRUE(report.ok());
    if (report.ok()) {
      EXPECT_TRUE(report->clean()) << report->to_string();
    }
    EXPECT_TRUE((co_await m.verify_tagged("/a")).ok());
    EXPECT_TRUE((co_await m.verify_tagged("/c")).ok());
  }(*fs));
}

TEST(MicroFsBlockMapTest, NoSpaceLeavesMappedPrefixAndUnlinkReturnsIt) {
  sim::Engine eng;
  hw::RamDevice dev(8_MiB, 4096);
  auto fs = eng.run_task(MicroFs::format(eng, dev)).value();
  const uint64_t B = fs->options().hugeblock_size;
  const uint64_t total_free = fs->free_blocks();
  eng.run_task([](MicroFs& m, uint64_t B, uint64_t n) -> sim::Task<void> {
    auto fd = co_await m.creat("/big");
    EXPECT_TRUE((co_await m.write_tagged(*fd, 4 * B)).ok());
    const Status s = co_await m.write_tagged(*fd, (n + 8) * B);
    EXPECT_EQ(s.code(), ErrorCode::kNoSpace);
    EXPECT_TRUE((co_await m.close(*fd)).ok());
  }(*fs, B, total_free));
  EXPECT_EQ(fs->free_blocks(), 0u);
  // Per-block allocation would have mapped every free block in index
  // order and stopped: the map holds them all (the root directory's
  // dirfile took the first), then unmapped entries.
  const uint64_t root_blocks = fs->block_map("/").value().size();
  EXPECT_EQ(root_blocks, 1u);
  const auto map = fs->block_map("/big").value();
  uint64_t mapped = 0;
  while (mapped < map.size() && map[mapped] != ~0ull) ++mapped;
  EXPECT_EQ(mapped, total_free - root_blocks);
  EXPECT_EQ(map.size(), 4 + total_free + 8);
  for (uint64_t i = mapped; i < map.size(); ++i) EXPECT_EQ(map[i], ~0ull);
  for (uint64_t i = 1; i < mapped; ++i) EXPECT_EQ(map[i], map[i - 1] + 1);
  eng.run_task([](MicroFs& m) -> sim::Task<void> {
    EXPECT_TRUE((co_await m.unlink("/big")).ok());
  }(*fs));
  EXPECT_EQ(fs->free_blocks(), total_free - root_blocks);
}

// ---------------------------------------------------------------------
// InodeTable
// ---------------------------------------------------------------------

TEST(InodeTableTest, AllocAssignsSequentialIds) {
  InodeTable t;
  EXPECT_EQ(t.alloc(InodeType::kDirectory).ino, kRootIno);
  EXPECT_EQ(t.alloc(InodeType::kFile).ino, kRootIno + 1);
  EXPECT_EQ(t.count(), 2u);
}

TEST(InodeTableTest, InsertWithInoAdvancesCounter) {
  InodeTable t;
  ASSERT_TRUE(t.insert_with_ino(10, InodeType::kFile).ok());
  EXPECT_EQ(t.alloc(InodeType::kFile).ino, 11u);
  EXPECT_FALSE(t.insert_with_ino(10, InodeType::kFile).ok());  // duplicate
}

TEST(InodeTableTest, SerializeRoundtripPreservesEverything) {
  InodeTable t;
  Inode& a = t.alloc(InodeType::kFile);
  a.size = 123456;
  a.seed = 0xabcdef;
  a.mode = 0600;
  a.content = ContentKind::kTagged;
  a.blocks = {7, 8, 9};
  Inode& d = t.alloc(InodeType::kDirectory);
  d.size = 64;

  std::vector<std::byte> buf;
  t.serialize(buf);
  InodeTable r;
  auto used = r.deserialize(buf);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(r.count(), 2u);
  const Inode* ra = r.get(a.ino);
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ(ra->size, 123456u);
  EXPECT_EQ(ra->seed, 0xabcdefu);
  EXPECT_EQ(ra->mode, 0600u);
  EXPECT_EQ(ra->content, ContentKind::kTagged);
  EXPECT_EQ(ra->blocks, (std::vector<uint64_t>{7, 8, 9}));
  EXPECT_EQ(r.next_ino(), t.next_ino());
}

TEST(InodeTableTest, MappedPrefixIsNotSerializedAndResetsOnRestore) {
  Inode a;
  a.ino = 5;
  a.blocks = {4, 5};
  a.mapped = 2;
  std::vector<std::byte> buf;
  Encoder enc(buf);
  a.serialize(enc);
  // Restoring over an inode with a longer mapped prefix must not keep it:
  // the restored map may have holes the prefix would skip.
  Inode b;
  b.blocks = {1, 2, 3, 4};
  b.mapped = 4;
  Decoder dec(buf);
  ASSERT_TRUE(b.deserialize(dec).ok());
  EXPECT_EQ(b.blocks, a.blocks);
  EXPECT_EQ(b.mapped, 0u);
  // The prefix adds no bytes to the encoding.
  Inode c = a;
  c.mapped = 0;
  std::vector<std::byte> plain;
  Encoder plain_enc(plain);
  c.serialize(plain_enc);
  EXPECT_EQ(buf, plain);
}

// ---------------------------------------------------------------------
// OpLog
// ---------------------------------------------------------------------

struct LogFixture {
  sim::Engine eng;
  hw::RamDevice dev{4_MiB};
  OpLog log{dev, 0, /*slots=*/64, /*coalesce_window=*/8};
};

LogRecord write_rec(Ino ino, uint64_t off, uint64_t len) {
  LogRecord r;
  r.type = OpType::kWrite;
  r.ino = ino;
  r.a = off;
  r.b = len;
  return r;
}

TEST(OpLogTest, RecordCodecRoundtrip) {
  LogRecord rec;
  rec.lsn = 42;
  rec.epoch = 3;
  rec.type = OpType::kCreate;
  rec.ino = 17;
  rec.parent = 1;
  rec.a = 0644;
  rec.b = 0xbeef;  // content seed
  rec.flags = kLogFlagTagged;
  rec.name = "rank0.ckpt";
  std::vector<std::byte> buf;
  OpLog::encode_record(rec, buf);
  EXPECT_EQ(buf.size(), OpLog::kRecordBytes);
  auto decoded = OpLog::decode_record(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->lsn, 42u);
  EXPECT_EQ(decoded->epoch, 3u);
  EXPECT_EQ(decoded->type, OpType::kCreate);
  EXPECT_EQ(decoded->ino, 17u);
  EXPECT_EQ(decoded->parent, 1u);
  EXPECT_EQ(decoded->a, 0644u);
  EXPECT_EQ(decoded->b, 0xbeefu);
  EXPECT_EQ(decoded->flags, kLogFlagTagged);
  EXPECT_EQ(decoded->name, "rank0.ckpt");
}

TEST(OpLogTest, DecodeRejectsBitFlip) {
  LogRecord rec = write_rec(5, 0, 100);
  rec.lsn = 1;
  std::vector<std::byte> buf;
  OpLog::encode_record(rec, buf);
  for (size_t i : {0ul, 10ul, 50ul}) {
    auto copy = buf;
    copy[i] ^= std::byte{1};
    EXPECT_FALSE(OpLog::decode_record(copy).ok()) << "flip at " << i;
  }
}

TEST(OpLogTest, AppendAndScanRoundtrip) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      LogRecord r;
      r.type = OpType::kCreate;
      r.ino = static_cast<Ino>(i + 2);
      r.parent = 1;
      r.name = "f" + std::to_string(i);
      EXPECT_TRUE((co_await fx.log.append(r)).ok());
    }
    auto scanned = co_await OpLog::scan(fx.dev, 0, 64, 0);
    EXPECT_TRUE(scanned.ok());
    EXPECT_EQ(scanned->size(), 10u);
    for (size_t i = 0; i + 1 < scanned->size(); ++i) {
      EXPECT_LT((*scanned)[i].second.lsn, (*scanned)[i + 1].second.lsn);
    }
  }(f));
}

TEST(OpLogTest, SequentialWritesCoalesce) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      bool coalesced = false;
      EXPECT_TRUE((co_await fx.log.append(
                       write_rec(5, static_cast<uint64_t>(i) * 1000, 1000),
                       true, &coalesced))
                      .ok());
      EXPECT_EQ(coalesced, i > 0);
    }
  }(f));
  EXPECT_EQ(f.log.live_records(), 1u);
  EXPECT_EQ(f.log.counters().appended, 1u);
  EXPECT_EQ(f.log.counters().coalesced, 19u);
}

TEST(OpLogTest, NonContiguousWritesDoNotCoalesce) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 1000))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 5000, 1000))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(6, 1000, 1000))).ok());
  }(f));
  EXPECT_EQ(f.log.live_records(), 3u);
}

TEST(OpLogTest, CoalesceAcrossInterleavedFileWithinWindow) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(6, 0, 100))).ok());
    bool coalesced = false;
    // File 5 continues; its record is 2 back but inside the window.
    EXPECT_TRUE(
        (co_await fx.log.append(write_rec(5, 100, 100), true, &coalesced))
            .ok());
    EXPECT_TRUE(coalesced);
  }(f));
  EXPECT_EQ(f.log.live_records(), 2u);
}

TEST(OpLogTest, WindowBoundsTheSearch) {
  sim::Engine eng;
  hw::RamDevice dev(4_MiB);
  OpLog log(dev, 0, 64, /*coalesce_window=*/2);
  eng.run_task([](OpLog& l) -> sim::Task<void> {
    EXPECT_TRUE((co_await l.append(write_rec(5, 0, 100))).ok());
    EXPECT_TRUE((co_await l.append(write_rec(6, 0, 100))).ok());
    EXPECT_TRUE((co_await l.append(write_rec(7, 0, 100))).ok());
    bool coalesced = true;
    // File 5's record is now 3 back — outside the window of 2.
    EXPECT_TRUE((co_await l.append(write_rec(5, 100, 100), true, &coalesced))
                    .ok());
    EXPECT_FALSE(coalesced);
  }(log));
}

TEST(OpLogTest, AllowCoalesceFalseForcesNewSlot) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    bool coalesced = true;
    EXPECT_TRUE(
        (co_await fx.log.append(write_rec(5, 100, 100), false, &coalesced))
            .ok());
    EXPECT_FALSE(coalesced);
  }(f));
  EXPECT_EQ(f.log.live_records(), 2u);
}

TEST(OpLogTest, EpochBoundaryStopsCoalescing) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    fx.log.begin_epoch();
    bool coalesced = true;
    EXPECT_TRUE(
        (co_await fx.log.append(write_rec(5, 100, 100), true, &coalesced))
            .ok());
    EXPECT_FALSE(coalesced);
  }(f));
  EXPECT_EQ(f.log.live_records(), 2u);
}

TEST(OpLogTest, FullRingRejectsUntilTruncated) {
  sim::Engine eng;
  hw::RamDevice dev(4_MiB);
  OpLog log(dev, 0, /*slots=*/4, /*coalesce_window=*/0);
  eng.run_task([](OpLog& l) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(
          (co_await l.append(write_rec(static_cast<Ino>(i + 2), 0, 10))).ok());
    }
    EXPECT_EQ((co_await l.append(write_rec(99, 0, 10))).code(),
              ErrorCode::kUnavailable);
    const uint32_t e = l.begin_epoch();
    l.truncate_before(e);
    EXPECT_EQ(l.free_slots(), 4u);
    EXPECT_TRUE((co_await l.append(write_rec(99, 0, 10))).ok());
  }(log));
}

TEST(OpLogTest, ScanFiltersByEpoch) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(2, 0, 10))).ok());
    const uint32_t e = fx.log.begin_epoch();
    EXPECT_TRUE((co_await fx.log.append(write_rec(3, 0, 10))).ok());
    auto all = co_await OpLog::scan(fx.dev, 0, 64, 0);
    auto recent = co_await OpLog::scan(fx.dev, 0, 64, e);
    EXPECT_EQ(all->size(), 2u);
    EXPECT_EQ(recent->size(), 1u);
    EXPECT_EQ((*recent)[0].second.ino, 3u);
  }(f));
}

// ---------------------------------------------------------------------
// Group commit (deferred coalesced rewrites)
// ---------------------------------------------------------------------

TEST(OpLogGroupCommitTest, CoalescedExtensionsDeferDeviceWrites) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE((co_await fx.log.append(
                       write_rec(5, static_cast<uint64_t>(i) * 1000, 1000)))
                      .ok());
    }
    // 1 new-slot write; the 19 extensions are deferred, not on device.
    EXPECT_EQ(fx.log.counters().bytes_written, OpLog::kRecordBytes);
    EXPECT_EQ(fx.log.dirty_slots(), 1u);
    EXPECT_EQ(fx.log.counters().group_commits, 0u);

    // The flush drains the dirty slot in one batch.
    EXPECT_TRUE((co_await fx.log.flush()).ok());
    EXPECT_EQ(fx.log.dirty_slots(), 0u);
    EXPECT_EQ(fx.log.counters().group_commits, 1u);
    EXPECT_EQ(fx.log.counters().bytes_written, 2u * OpLog::kRecordBytes);

    // The scanned record carries the full coalesced range.
    auto scanned = co_await OpLog::scan(fx.dev, 0, 64, 0);
    EXPECT_TRUE(scanned.ok());
    if (!scanned.ok() || scanned->size() != 1u) co_return;
    EXPECT_EQ((*scanned)[0].second.a, 0u);
    EXPECT_EQ((*scanned)[0].second.b, 20000u);

    // A second flush with nothing dirty is a free no-op.
    EXPECT_TRUE((co_await fx.log.flush()).ok());
    EXPECT_EQ(fx.log.counters().group_commits, 1u);
    EXPECT_EQ(fx.log.counters().bytes_written, 2u * OpLog::kRecordBytes);
  }(f));
}

TEST(OpLogGroupCommitTest, NewSlotAppendDrainsPendingDeferred) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 100, 100))).ok());
    EXPECT_EQ(fx.log.dirty_slots(), 1u);
    // A different file's append takes a new slot — the pending deferred
    // rewrite rides the same drain (adjacent slots: one submission).
    EXPECT_TRUE((co_await fx.log.append(write_rec(6, 0, 100))).ok());
    EXPECT_EQ(fx.log.dirty_slots(), 0u);
    EXPECT_EQ(fx.log.counters().group_commits, 1u);
    auto scanned = co_await OpLog::scan(fx.dev, 0, 64, 0);
    EXPECT_TRUE(scanned.ok());
    if (!scanned.ok() || scanned->size() != 2u) co_return;
    EXPECT_EQ((*scanned)[0].second.b, 200u);  // extension made durable
  }(f));
}

TEST(OpLogGroupCommitTest, ScanBeforeFlushSeesStaleRecordNotCorruption) {
  // The documented durability contract: an unflushed extension is simply
  // absent from the device (the pre-extension record is intact) — a
  // crash loses the tail extension, never log integrity.
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 100, 100))).ok());
    auto scanned = co_await OpLog::scan(fx.dev, 0, 64, 0);
    EXPECT_TRUE(scanned.ok());
    if (!scanned.ok() || scanned->size() != 1u) co_return;
    EXPECT_EQ((*scanned)[0].second.b, 100u);  // pre-extension content
  }(f));
}

TEST(OpLogGroupCommitTest, TruncateDropsDirtyOfDiscardedEpoch) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 0, 100))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(5, 100, 100))).ok());
    EXPECT_EQ(fx.log.dirty_slots(), 1u);
    const uint32_t e = fx.log.begin_epoch();
    fx.log.truncate_before(e);
    // The deferred rewrite belonged to the truncated epoch: dropped, and
    // a later flush must not touch the (now reusable) slot.
    EXPECT_EQ(fx.log.dirty_slots(), 0u);
    const uint64_t bytes_before = fx.log.counters().bytes_written;
    EXPECT_TRUE((co_await fx.log.flush()).ok());
    EXPECT_EQ(fx.log.counters().bytes_written, bytes_before);
  }(f));
}

TEST(OpLogTest, RestoreContinuesAppending) {
  LogFixture f;
  f.eng.run_task([](LogFixture& fx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fx.log.append(write_rec(2, 0, 10))).ok());
    EXPECT_TRUE((co_await fx.log.append(write_rec(3, 0, 10))).ok());
    auto scanned = co_await OpLog::scan(fx.dev, 0, 64, 0);

    OpLog fresh(fx.dev, 0, 64, 8);
    fresh.restore(*scanned, 1, 3);
    EXPECT_EQ(fresh.live_records(), 2u);
    EXPECT_TRUE((co_await fresh.append(write_rec(4, 0, 10))).ok());
    auto rescanned = co_await OpLog::scan(fx.dev, 0, 64, 0);
    EXPECT_EQ(rescanned->size(), 3u);
    EXPECT_EQ(rescanned->back().second.lsn, 3u);
  }(f));
}

// ---------------------------------------------------------------------
// Dirfile codec
// ---------------------------------------------------------------------

TEST(DirfileTest, EncodeDecodeRoundtrip) {
  std::vector<std::byte> buf;
  encode_dirent(Dirent{true, "alpha", 10}, buf);
  encode_dirent(Dirent{true, "beta", 11}, buf);
  encode_dirent(Dirent{false, "alpha", 10}, buf);
  auto decoded = decode_dirents(buf);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].name, "alpha");
  EXPECT_TRUE((*decoded)[0].add);
  EXPECT_FALSE((*decoded)[2].add);
}

TEST(DirfileTest, EncodedSizeMatchesHelper) {
  std::vector<std::byte> buf;
  const size_t n = encode_dirent(Dirent{true, "some-name", 42}, buf);
  EXPECT_EQ(n, dirent_encoded_size("some-name"));
  EXPECT_EQ(buf.size(), n);
}

TEST(DirfileTest, LiveViewFoldsTombstones) {
  std::vector<Dirent> stream{
      {true, "a", 1}, {true, "b", 2}, {false, "a", 1},
      {true, "c", 3}, {true, "a", 4},  // re-created with new ino
  };
  auto live = live_view(stream);
  ASSERT_EQ(live.size(), 3u);
  std::set<std::string> names;
  for (const auto& d : live) names.insert(d.name);
  EXPECT_EQ(names, (std::set<std::string>{"a", "b", "c"}));
  for (const auto& d : live) {
    if (d.name == "a") {
      EXPECT_EQ(d.ino, 4u);
    }
  }
}

TEST(DirfileTest, DecodeRejectsTruncation) {
  std::vector<std::byte> buf;
  encode_dirent(Dirent{true, "alpha", 10}, buf);
  buf.pop_back();
  EXPECT_FALSE(decode_dirents(buf).ok());
}

}  // namespace
}  // namespace nvmecr::microfs
