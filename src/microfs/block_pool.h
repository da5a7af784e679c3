// Circular hugeblock pool (§III-E "Hugeblocks").
//
// The SSD partition's data region is divided into hugeblocks (32 KiB by
// default, vs the 4 KiB ceiling of kernel filesystems). A circular free
// ring gives O(1) allocation and free, and — critically for recovery —
// *deterministic* allocation order: replaying the operation log re-issues
// the same allocations in the same order and reconstructs the identical
// block assignment (§III-E "Metadata Provenance").
//
// Allocation and free work on runs: alloc_run/free_run move n ids at
// once and update the allocation bitmap a 64-bit word at a time, but the
// ids, their order and every error are exactly those of n single-block
// calls (DESIGN.md §11 "Run-based hugeblock bookkeeping"). alloc()/free()
// are the n = 1 case.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace nvmecr::microfs {

class BlockPool {
 public:
  BlockPool() = default;
  explicit BlockPool(uint64_t block_count) { reset(block_count); }

  /// Re-initializes with all `block_count` blocks free, in index order.
  void reset(uint64_t block_count);

  /// Allocates `out.size()` blocks from the ring head into `out`: the ids
  /// that as many alloc() calls would return, in the same order. If
  /// fewer blocks are free, the first free_count() entries are filled,
  /// the rest are left untouched, and kNoSpace is returned — the state
  /// the single calls would leave behind.
  Status alloc_run(std::span<uint64_t> out);

  /// Frees `blocks` to the ring tail in order. Stops at the first id that
  /// is out of range (kInvalidArgument) or not allocated (kInternal,
  /// double free); the ids before it stay freed.
  Status free_run(std::span<const uint64_t> blocks);

  /// Undoes the allocation of `blocks`, which must be the ids most
  /// recently allocated, in allocation order: they go back to the ring
  /// head, so later allocations return the ids they would have returned
  /// had these never been taken. Frees since then are unaffected.
  void undo_alloc(std::span<const uint64_t> blocks);

  StatusOr<uint64_t> alloc() {
    uint64_t block = 0;
    NVMECR_RETURN_IF_ERROR(alloc_run({&block, 1}));
    return block;
  }
  Status free(uint64_t block) { return free_run({&block, 1}); }

  uint64_t free_count() const { return live_; }
  uint64_t total() const { return total_; }
  uint64_t allocated_count() const { return total_ - live_; }
  bool is_allocated(uint64_t block) const {
    return block < total_ && ((allocated_[block >> 6] >> (block & 63)) & 1);
  }

  /// Approximate DRAM footprint (Table I accounting).
  size_t memory_footprint() const {
    return ring_.size() * sizeof(uint64_t) + total_ / 8;
  }

  // --- serialization into the internal state checkpoint ---------------
  void serialize(std::vector<std::byte>& out) const;
  /// Restores from `in`; returns bytes consumed or kCorruption.
  StatusOr<size_t> deserialize(std::span<const std::byte> in);

 private:
  std::vector<uint64_t> ring_;  // [head_, head_+live_) mod size = free
  uint64_t head_ = 0;
  uint64_t live_ = 0;
  uint64_t total_ = 0;
  std::vector<uint64_t> allocated_;  // bit b of word b/64; bits >= total_ are 0
};

}  // namespace nvmecr::microfs
