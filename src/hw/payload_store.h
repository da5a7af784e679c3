// Sparse content store backing simulated devices.
//
// Stores an ordered interval map of extents. An extent is either real
// bytes (metadata, small test data) or a pattern seed (bulk checkpoint
// payload). Overlapping writes split/trim older extents exactly like a
// physical medium would overwrite sectors; adjacent same-seed extents
// merge so a sequentially written checkpoint file costs one entry.
//
// The index is two-level (DESIGN.md §11): leaves of up to kLeafCap
// extents kept as parallel sorted arrays (starts, extents), plus one
// flat array holding each leaf's first start. A lookup is a binary
// search over that array and then over one leaf's packed starts, a few
// cache lines instead of a ~14-level pointer walk for the ~8k extents an
// SSD shared by 56 rank partitions holds. A full leaf splits in half; an
// empty one is dropped.
//
// Host-performance fast paths: each extent caches its whole-extent
// combined tag so re-reading an unmodified extent is O(1) instead of
// re-hashing every block; writes that land past the last extent (the
// dominant sequential-checkpoint case) skip the overlap carve; a pattern
// write that one extent of the same seed already covers changes no byte
// (block content is pattern(seed, absolute block index)) and returns at
// once, keeping that extent and its cached tag; bytes_stored() is
// maintained incrementally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace nvmecr::hw {

class PayloadStore {
 public:
  explicit PayloadStore(uint32_t block_size) : block_size_(block_size) {}

  /// Stores real bytes at [offset, offset+data.size()).
  void write_bytes(uint64_t offset, std::span<const std::byte> data);

  /// Reads real bytes. Unwritten gaps read as zero. Reading a region held
  /// by a pattern extent is a usage error and returns kCorruption.
  Status read_bytes(uint64_t offset, std::span<std::byte> out) const;

  /// Stores a pattern extent: conceptual content of each covered hardware
  /// block i is pattern(seed, i). Offset and len must be block-aligned.
  /// A range that one pattern extent of the same seed already covers
  /// holds exactly that content, so such a write changes nothing.
  Status write_pattern(uint64_t offset, uint64_t len, uint64_t seed);

  /// Combined tag over [offset, offset+len): the wrapping sum of each
  /// covered block's tag. Pattern blocks contribute block_tag(seed, idx);
  /// real-byte blocks contribute the FNV-1a of their contents; unwritten
  /// blocks contribute 0. Offset/len must be block-aligned.
  StatusOr<uint64_t> read_combined_tag(uint64_t offset, uint64_t len) const;

  /// The per-block tag a pattern write produces; exposed so workloads can
  /// precompute the tag they expect to read back.
  static uint64_t block_tag(uint64_t seed, uint64_t block_index);

  /// Expected combined tag for a pattern extent (what read_combined_tag
  /// returns if [offset, offset+len) is covered by `seed` pattern data).
  static uint64_t expected_tag(uint64_t seed, uint64_t offset, uint64_t len,
                               uint32_t block_size);

  /// Total bytes currently represented (real + pattern). O(1).
  uint64_t bytes_stored() const { return total_bytes_; }

  /// Number of extents (memory-footprint observability; merging keeps
  /// this small for sequential workloads).
  size_t extent_count() const { return extent_count_; }

  /// Times read_combined_tag served a whole extent from its cached tag
  /// instead of re-hashing per block (exported as payload.tag_cache_hits).
  ///
  /// Note the cache only engages on *whole-extent* reads: extent merging
  /// coalesces a sequentially written file into one big extent, so a
  /// reader that fetches it back in smaller chunks (the e2e CoMD restart
  /// path) takes the partial-overlap branch every time and hits are
  /// legitimately zero there — see tag_reads()/tag_cache_fills() to tell
  /// "never engaged" apart from "never called".
  uint64_t tag_cache_hits() const { return tag_cache_hits_; }

  /// Total read_combined_tag calls (hit-rate denominator).
  uint64_t tag_reads() const { return tag_reads_; }

  /// Whole-extent reads that computed and cached a tag (a later identical
  /// read would hit).
  uint64_t tag_cache_fills() const { return tag_cache_fills_; }

  /// Drops all content (device reformat).
  void clear() {
    leaves_.clear();
    leaf_first_.clear();
    extent_count_ = 0;
    total_bytes_ = 0;
  }

  uint32_t block_size() const { return block_size_; }

 private:
  struct Extent {
    uint64_t len = 0;
    // Exactly one of: pattern extent (is_pattern) with `seed`, or real
    // bytes in `bytes` (bytes.size() == len).
    uint64_t seed = 0;
    std::vector<std::byte> bytes;
    // Whole-extent combined tag, filled lazily by read_combined_tag and
    // invalidated by every mutation (trim, merge, extend). Mutable: the
    // cache is filled from const readers.
    mutable uint64_t cached_tag = 0;
    bool is_pattern = false;
    mutable bool tag_valid = false;
  };

  /// Most extents one leaf holds; a leaf that would exceed it splits.
  static constexpr size_t kLeafCap = 64;

  /// A run of extents sorted by start offset, as parallel arrays so a
  /// search touches only the packed starts.
  struct Leaf {
    std::vector<uint64_t> starts;
    std::vector<Extent> extents;
  };

  /// A position in the index: extent `slot` of leaf `leaf`. Every
  /// position but end_pos() names an extent (slot < that leaf's size);
  /// end_pos() is {leaves_.size(), 0}.
  struct Pos {
    size_t leaf = 0;
    size_t slot = 0;
    bool operator==(const Pos&) const = default;
  };

  Pos first_pos() const { return {0, 0}; }
  Pos end_pos() const { return {leaves_.size(), 0}; }
  uint64_t start_of(Pos p) const { return leaves_[p.leaf].starts[p.slot]; }
  Extent& at(Pos p) { return leaves_[p.leaf].extents[p.slot]; }
  const Extent& at(Pos p) const { return leaves_[p.leaf].extents[p.slot]; }

  Pos next(Pos p) const {
    if (++p.slot == leaves_[p.leaf].starts.size()) p = {p.leaf + 1, 0};
    return p;
  }
  /// `p` must not be first_pos().
  Pos prev(Pos p) const {
    if (p.slot > 0) return {p.leaf, p.slot - 1};
    return {p.leaf - 1, leaves_[p.leaf - 1].starts.size() - 1};
  }

  /// First extent whose start is >= `key`.
  Pos lower_bound(uint64_t key) const;

  /// First extent whose end is past `offset` (the one holding `offset`
  /// if any).
  Pos first_overlapping(uint64_t offset) const;

  /// Inserts `e` at `start` before `p`, splitting a full leaf; returns
  /// the new extent's position. Keys must stay strictly ordered.
  Pos insert(Pos p, uint64_t start, Extent e);

  /// Removes the extent at `p`, dropping its leaf if it empties; returns
  /// the position of the extent that followed it.
  Pos erase(Pos p);

  /// Moves the extent at `p` to `start` in place. The caller keeps the
  /// order: `start` stays between the neighbours' starts.
  void rekey(Pos p, uint64_t start);

  /// Removes/overwrite-trims everything intersecting [start, start+len).
  /// `it` must be lower_bound(start). Returns the position where a new
  /// extent at `start` belongs.
  Pos carve(Pos it, uint64_t start, uint64_t len);

  /// Inserts at `pos` (from carve() or end_pos() for appends), merging
  /// with the neighbours when possible.
  void insert_extent(Pos pos, uint64_t start, Extent e);

  /// True when [offset, ...) starts at or past the end of the last
  /// extent, i.e. the write cannot overlap anything and carve() can be
  /// skipped entirely.
  bool append_past_end(uint64_t offset) const {
    if (leaves_.empty()) return true;
    const Leaf& last = leaves_.back();
    return last.starts.back() + last.extents.back().len <= offset;
  }

  /// Combined tag of extent `e` (starting at `e_start`) restricted to
  /// [ov_start, ov_end), which must lie within the extent.
  uint64_t tag_of_range(uint64_t e_start, const Extent& e, uint64_t ov_start,
                        uint64_t ov_end) const;

  static bool mergeable(uint64_t a_start, const Extent& a, uint64_t b_start,
                        const Extent& b);

  uint32_t block_size_;
  std::vector<Leaf> leaves_;
  std::vector<uint64_t> leaf_first_;  // leaf_first_[i] == leaves_[i].starts[0]
  size_t extent_count_ = 0;
  uint64_t total_bytes_ = 0;
  mutable uint64_t tag_cache_hits_ = 0;
  mutable uint64_t tag_cache_fills_ = 0;
  mutable uint64_t tag_reads_ = 0;
};

}  // namespace nvmecr::hw
