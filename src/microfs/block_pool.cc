#include "microfs/block_pool.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "microfs/codec.h"

namespace nvmecr::microfs {
namespace {

/// Length of the leading run of consecutive ascending ids in `ids`.
size_t run_length(std::span<const uint64_t> ids) {
  size_t len = 1;
  while (len < ids.size() && ids[len] == ids[len - 1] + 1) ++len;
  return len;
}

/// Calls fn(word, mask) for each bitmap word overlapping blocks
/// [lo, lo + len), `mask` selecting the overlapped bits. fn returns the
/// bits of `mask` at which to stop (0 to go on); the result is the offset
/// from lo of the lowest such bit, or len if fn never stopped.
template <typename Fn>
uint64_t for_each_word(std::vector<uint64_t>& bitmap, uint64_t lo,
                       uint64_t len, Fn&& fn) {
  const uint64_t end = lo + len;
  for (uint64_t b = lo; b < end;) {
    const uint64_t bit = b & 63;
    const uint64_t n = std::min<uint64_t>(64 - bit, end - b);
    const uint64_t mask = (n == 64 ? ~0ull : (1ull << n) - 1) << bit;
    if (const uint64_t stop = fn(bitmap[b >> 6], mask); stop != 0) {
      return (b - bit) + static_cast<uint64_t>(std::countr_zero(stop)) - lo;
    }
    b += n;
  }
  return len;
}

}  // namespace

void BlockPool::reset(uint64_t block_count) {
  ring_.resize(block_count);
  std::iota(ring_.begin(), ring_.end(), uint64_t{0});
  head_ = 0;
  live_ = block_count;
  total_ = block_count;
  allocated_.assign((block_count + 63) / 64, 0);
}

Status BlockPool::alloc_run(std::span<uint64_t> out) {
  const uint64_t n = std::min<uint64_t>(out.size(), live_);
  for (uint64_t k = 0; k < n; ++k) {
    out[k] = ring_[head_];
    if (++head_ == ring_.size()) head_ = 0;
  }
  live_ -= n;
  for (size_t i = 0; i < n;) {
    const size_t len = run_length(out.subspan(i, n - i));
    for_each_word(allocated_, out[i], len, [](uint64_t& word, uint64_t mask) {
      NVMECR_CHECK((word & mask) == 0);  // double allocation
      word |= mask;
      return uint64_t{0};
    });
    i += len;
  }
  if (n < out.size()) return NoSpaceError("hugeblock pool exhausted");
  return OkStatus();
}

void BlockPool::undo_alloc(std::span<const uint64_t> blocks) {
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    head_ = (head_ == 0 ? ring_.size() : head_) - 1;
    NVMECR_CHECK(live_ < total_ && ring_[head_] == *it && is_allocated(*it));
    allocated_[*it >> 6] &= ~(1ull << (*it & 63));
    ++live_;
  }
}

Status BlockPool::free_run(std::span<const uint64_t> blocks) {
  for (size_t i = 0; i < blocks.size();) {
    const uint64_t lo = blocks[i];
    if (lo >= total_) return InvalidArgumentError("block out of range");
    const uint64_t len =
        std::min<uint64_t>(run_length(blocks.subspan(i)), total_ - lo);
    // The run frees up to its first block that is not allocated.
    const uint64_t ok = for_each_word(
        allocated_, lo, len,
        [](uint64_t& word, uint64_t mask) { return ~word & mask; });
    for_each_word(allocated_, lo, ok, [](uint64_t& word, uint64_t mask) {
      word &= ~mask;
      return uint64_t{0};
    });
    uint64_t tail = head_ + live_;
    if (tail >= ring_.size()) tail -= ring_.size();
    for (uint64_t k = 0; k < ok; ++k) {
      ring_[tail] = lo + k;
      if (++tail == ring_.size()) tail = 0;
    }
    live_ += ok;
    if (ok < len) return InternalError("double free of hugeblock");
    i += len;
  }
  return OkStatus();
}

void BlockPool::serialize(std::vector<std::byte>& out) const {
  Encoder enc(out);
  enc.u64(total_);
  enc.u64(head_);
  enc.u64(live_);
  for (uint64_t v : ring_) enc.u64(v);
  // `allocated_` is implied by the ring's free window but serialized for
  // cheap validation on restore.
  for (uint64_t word : allocated_) enc.u64(word);
}

StatusOr<size_t> BlockPool::deserialize(std::span<const std::byte> in) {
  Decoder dec(in);
  uint64_t total = 0, head = 0, live = 0;
  NVMECR_RETURN_IF_ERROR(dec.u64(total));
  NVMECR_RETURN_IF_ERROR(dec.u64(head));
  NVMECR_RETURN_IF_ERROR(dec.u64(live));
  if (live > total || (total > 0 && head >= total)) {
    return CorruptionError("block pool header inconsistent");
  }
  ring_.resize(total);
  for (uint64_t i = 0; i < total; ++i) {
    NVMECR_RETURN_IF_ERROR(dec.u64(ring_[i]));
    if (ring_[i] >= total) return CorruptionError("ring entry out of range");
  }
  allocated_.assign((total + 63) / 64, 0);
  uint64_t allocated_bits = 0;
  for (uint64_t w = 0; w < allocated_.size(); ++w) {
    NVMECR_RETURN_IF_ERROR(dec.u64(allocated_[w]));
    // Bits past the last block carry no meaning; keep them clear.
    if (const uint64_t tail = total - w * 64; tail < 64) {
      allocated_[w] &= (1ull << tail) - 1;
    }
    allocated_bits += static_cast<uint64_t>(std::popcount(allocated_[w]));
  }
  total_ = total;
  head_ = head;
  live_ = live;
  // Cross-check: allocated bitmap must agree with the free window.
  if (total - allocated_bits != live_) {
    return CorruptionError("pool bitmap disagrees");
  }
  return dec.consumed();
}

}  // namespace nvmecr::microfs
