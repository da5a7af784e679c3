#include "hw/payload_store.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/rng.h"
#include "common/units.h"

namespace nvmecr::hw {

namespace {

/// Slice [from, from+n) out of an extent's byte payload.
std::vector<std::byte> slice(const std::vector<std::byte>& v, uint64_t from,
                             uint64_t n) {
  return std::vector<std::byte>(v.begin() + static_cast<ptrdiff_t>(from),
                                v.begin() + static_cast<ptrdiff_t>(from + n));
}

}  // namespace

uint64_t PayloadStore::block_tag(uint64_t seed, uint64_t block_index) {
  return mix64(seed ^ (block_index * 0x9e3779b97f4a7c15ull));
}

uint64_t PayloadStore::expected_tag(uint64_t seed, uint64_t offset,
                                    uint64_t len, uint32_t block_size) {
  uint64_t tag = 0;
  const uint64_t first = offset / block_size;
  const uint64_t count = len / block_size;
  for (uint64_t i = 0; i < count; ++i) tag += block_tag(seed, first + i);
  return tag;
}

PayloadStore::Pos PayloadStore::lower_bound(uint64_t key) const {
  // The last leaf whose first start is <= key holds the answer, unless
  // every start in it is smaller; then it is the next leaf's first.
  const auto after = std::upper_bound(leaf_first_.begin(), leaf_first_.end(),
                                      key);
  const size_t leaf =
      after == leaf_first_.begin()
          ? 0
          : static_cast<size_t>(after - leaf_first_.begin()) - 1;
  if (leaf == leaves_.size()) return end_pos();
  const std::vector<uint64_t>& starts = leaves_[leaf].starts;
  const size_t slot = static_cast<size_t>(
      std::lower_bound(starts.begin(), starts.end(), key) - starts.begin());
  if (slot == starts.size()) return {leaf + 1, 0};
  return {leaf, slot};
}

PayloadStore::Pos PayloadStore::first_overlapping(uint64_t offset) const {
  const Pos it = lower_bound(offset);
  if (it == first_pos()) return it;
  const Pos p = prev(it);
  return start_of(p) + at(p).len > offset ? p : it;
}

PayloadStore::Pos PayloadStore::insert(Pos p, uint64_t start, Extent e) {
  NVMECR_CHECK(p == end_pos() || start < start_of(p));
  NVMECR_CHECK(p == first_pos() || start_of(prev(p)) < start);
  if (leaves_.empty()) {
    leaves_.emplace_back();
    leaf_first_.push_back(start);
  } else if (p.slot == 0 && p.leaf > 0) {
    // Between two leaves (or at the end): append to the earlier one, so
    // the later leaf's first start stays put.
    p = {p.leaf - 1, leaves_[p.leaf - 1].starts.size()};
  }
  if (leaves_[p.leaf].starts.size() == kLeafCap) {
    // Split in half. The right half is allocated at its exact size and
    // the left keeps its buffer, so no leaf grows past kLeafCap.
    Leaf& left = leaves_[p.leaf];
    const size_t half = kLeafCap / 2;
    Leaf right;
    right.starts.assign(left.starts.begin() + half, left.starts.end());
    right.extents.assign(std::make_move_iterator(left.extents.begin() + half),
                         std::make_move_iterator(left.extents.end()));
    left.starts.resize(half);
    left.extents.resize(half);
    leaf_first_.insert(leaf_first_.begin() + static_cast<ptrdiff_t>(p.leaf) + 1,
                       right.starts.front());
    leaves_.insert(leaves_.begin() + static_cast<ptrdiff_t>(p.leaf) + 1,
                   std::move(right));
    if (p.slot > half) p = {p.leaf + 1, p.slot - half};
  }
  Leaf& leaf = leaves_[p.leaf];
  leaf.starts.insert(leaf.starts.begin() + static_cast<ptrdiff_t>(p.slot),
                     start);
  leaf.extents.insert(leaf.extents.begin() + static_cast<ptrdiff_t>(p.slot),
                      std::move(e));
  if (p.slot == 0) leaf_first_[p.leaf] = start;
  ++extent_count_;
  return p;
}

PayloadStore::Pos PayloadStore::erase(Pos p) {
  Leaf& leaf = leaves_[p.leaf];
  leaf.starts.erase(leaf.starts.begin() + static_cast<ptrdiff_t>(p.slot));
  leaf.extents.erase(leaf.extents.begin() + static_cast<ptrdiff_t>(p.slot));
  --extent_count_;
  if (leaf.starts.empty()) {
    leaves_.erase(leaves_.begin() + static_cast<ptrdiff_t>(p.leaf));
    leaf_first_.erase(leaf_first_.begin() + static_cast<ptrdiff_t>(p.leaf));
    return {p.leaf, 0};
  }
  if (p.slot == 0) leaf_first_[p.leaf] = leaf.starts.front();
  if (p.slot == leaf.starts.size()) return {p.leaf + 1, 0};
  return p;
}

void PayloadStore::rekey(Pos p, uint64_t start) {
  leaves_[p.leaf].starts[p.slot] = start;
  if (p.slot == 0) leaf_first_[p.leaf] = start;
}

PayloadStore::Pos PayloadStore::carve(Pos it, uint64_t start, uint64_t len) {
  const uint64_t end = start + len;

  // Split a predecessor that overlaps the carve region.
  if (it != first_pos()) {
    const Pos p = prev(it);
    const uint64_t p_start = start_of(p);
    Extent& pe = at(p);
    const uint64_t p_end = p_start + pe.len;
    if (p_end > start) {
      // Tail beyond the carve region survives as a new extent.
      Extent tail;
      if (p_end > end) {
        tail.len = p_end - end;
        tail.is_pattern = pe.is_pattern;
        tail.seed = pe.seed;
        if (!pe.is_pattern) tail.bytes = slice(pe.bytes, end - p_start, tail.len);
      }
      // Head before the carve region survives, trimmed.
      total_bytes_ -= std::min(p_end, end) - start;
      pe.len = start - p_start;
      pe.tag_valid = false;
      if (!pe.is_pattern) pe.bytes.resize(pe.len);
      // The predecessor spanned the whole region: nothing else starts
      // inside it, and the tail is the first extent past it.
      if (tail.len > 0) return insert(it, end, std::move(tail));
    }
  }

  // Remove/trim extents starting inside the carve region.
  while (it != end_pos() && start_of(it) < end) {
    Extent& e = at(it);
    const uint64_t e_start = start_of(it);
    if (e_start + e.len <= end) {
      total_bytes_ -= e.len;
      it = erase(it);
      continue;
    }
    // The tail that sticks out keeps its slot, re-keyed to `end`.
    const uint64_t cut = end - e_start;
    total_bytes_ -= cut;
    e.len -= cut;
    e.tag_valid = false;
    if (!e.is_pattern) {
      e.bytes.erase(e.bytes.begin(),
                    e.bytes.begin() + static_cast<ptrdiff_t>(cut));
    }
    rekey(it, end);
    break;
  }
  // `it` is the first extent at or past `end` — nothing remains in
  // [start, end), so a new extent at `start` goes right before it.
  return it;
}

bool PayloadStore::mergeable(uint64_t a_start, const Extent& a,
                             uint64_t b_start, const Extent& b) {
  // Only pattern extents merge (byte extents would need a copy; metadata
  // writes are small and non-adjacent in practice).
  return a.is_pattern && b.is_pattern && a.seed == b.seed &&
         a_start + a.len == b_start;
}

void PayloadStore::insert_extent(Pos pos, uint64_t start, Extent e) {
  total_bytes_ += e.len;
  // Merge into the predecessor in place when it continues the pattern
  // (the sequential-stream case), else insert.
  Pos it;
  if (pos != first_pos() && mergeable(start_of(prev(pos)), at(prev(pos)),
                                      start, e)) {
    it = prev(pos);
    at(it).len += e.len;
    at(it).tag_valid = false;
  } else {
    it = insert(pos, start, std::move(e));
  }
  // Merge with the successor.
  const Pos nx = next(it);
  if (nx != end_pos() && mergeable(start_of(it), at(it), start_of(nx), at(nx))) {
    at(it).len += at(nx).len;
    at(it).tag_valid = false;
    erase(nx);
  }
}

void PayloadStore::write_bytes(uint64_t offset,
                               std::span<const std::byte> data) {
  if (data.empty()) return;
  // Appends past the last extent cannot overlap anything: skip the carve.
  const Pos pos = append_past_end(offset)
                      ? end_pos()
                      : carve(lower_bound(offset), offset, data.size());
  Extent e;
  e.len = data.size();
  e.is_pattern = false;
  e.bytes.assign(data.begin(), data.end());
  insert_extent(pos, offset, std::move(e));
}

Status PayloadStore::read_bytes(uint64_t offset,
                                std::span<std::byte> out) const {
  if (out.empty()) return OkStatus();
  const uint64_t end = offset + out.size();
  std::memset(out.data(), 0, out.size());

  for (Pos it = first_overlapping(offset);
       it != end_pos() && start_of(it) < end; it = next(it)) {
    const Extent& e = at(it);
    const uint64_t e_start = start_of(it);
    const uint64_t copy_start = std::max(e_start, offset);
    const uint64_t copy_end = std::min(e_start + e.len, end);
    if (e.is_pattern) {
      return CorruptionError(
          "read_bytes over pattern extent (tagged payload read as bytes)");
    }
    std::memcpy(out.data() + (copy_start - offset),
                e.bytes.data() + (copy_start - e_start),
                copy_end - copy_start);
  }
  return OkStatus();
}

Status PayloadStore::write_pattern(uint64_t offset, uint64_t len,
                                   uint64_t seed) {
  if (len == 0) return OkStatus();
  if (offset % block_size_ != 0 || len % block_size_ != 0) {
    return InvalidArgumentError("pattern IO must be block-aligned");
  }
  Extent e;
  e.len = len;
  e.is_pattern = true;
  e.seed = seed;
  if (append_past_end(offset)) {
    // Sequential checkpoint streaming: no carve; insert_extent extends the
    // last extent in place when it is the same pattern.
    insert_extent(end_pos(), offset, std::move(e));
    return OkStatus();
  }
  const Pos it = lower_bound(offset);
  // Covered same-seed rewrite: block content is pattern(seed, absolute
  // block index), so the covering extent already holds these bytes and
  // tags. Nothing changes, its cached tag included. The extent that can
  // hold `offset` is `it` if it starts there, else its predecessor.
  Pos holder = it;
  if (it == end_pos() || start_of(it) != offset) {
    holder = it == first_pos() ? end_pos() : prev(it);
  }
  if (holder != end_pos()) {
    const Extent& h = at(holder);
    if (h.is_pattern && h.seed == seed &&
        start_of(holder) + h.len >= offset + len) {
      return OkStatus();
    }
  }
  insert_extent(carve(it, offset, len), offset, std::move(e));
  return OkStatus();
}

uint64_t PayloadStore::tag_of_range(uint64_t e_start, const Extent& e,
                                    uint64_t ov_start, uint64_t ov_end) const {
  uint64_t tag = 0;
  if (e.is_pattern) {
    // Pattern blocks fully covered by the overlap contribute their tag.
    const uint64_t first_block = ceil_div(ov_start, block_size_);
    const uint64_t last_block = ov_end / block_size_;  // exclusive
    for (uint64_t b = first_block; b < last_block; ++b) {
      tag += block_tag(e.seed, b);
    }
  } else {
    // Real-byte blocks contribute a content hash per fully covered
    // block (partial blocks hash the covered slice).
    uint64_t pos = ov_start;
    while (pos < ov_end) {
      const uint64_t block_end =
          std::min<uint64_t>((pos / block_size_ + 1) * block_size_, ov_end);
      tag += fnv1a(e.bytes.data() + (pos - e_start), block_end - pos);
      pos = block_end;
    }
  }
  return tag;
}

StatusOr<uint64_t> PayloadStore::read_combined_tag(uint64_t offset,
                                                   uint64_t len) const {
  if (offset % block_size_ != 0 || len % block_size_ != 0) {
    return InvalidArgumentError("tagged read must be block-aligned");
  }
  ++tag_reads_;
  uint64_t tag = 0;
  const uint64_t end = offset + len;

  for (Pos it = first_overlapping(offset);
       it != end_pos() && start_of(it) < end; it = next(it)) {
    const uint64_t e_start = start_of(it);
    const Extent& e = at(it);
    const uint64_t e_end = e_start + e.len;
    const uint64_t ov_start = std::max(e_start, offset);
    const uint64_t ov_end = std::min(e_end, end);
    if (ov_start >= ov_end) continue;
    if (ov_start == e_start && ov_end == e_end) {
      // Whole-extent read: serve from (or fill) the per-extent cache so
      // restart-verification over unmodified data is O(1) per extent.
      if (e.tag_valid) {
        ++tag_cache_hits_;
      } else {
        e.cached_tag = tag_of_range(e_start, e, e_start, e_end);
        e.tag_valid = true;
        ++tag_cache_fills_;
      }
      tag += e.cached_tag;
    } else {
      tag += tag_of_range(e_start, e, ov_start, ov_end);
    }
  }
  return tag;
}

}  // namespace nvmecr::hw
