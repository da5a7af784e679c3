// Inodes and the DRAM inode table (§III-E "POSIX Semantics", "Metadata
// Provenance": metadata lives entirely in compute-node DRAM; durability
// comes from the operation log, not from writing inodes to the device).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "microfs/codec.h"

namespace nvmecr::microfs {

using Ino = uint64_t;
inline constexpr Ino kRootIno = 1;
inline constexpr Ino kInvalidIno = 0;

enum class InodeType : uint8_t { kFile = 0, kDirectory = 1 };

/// What kind of payload a file holds; byte and tagged IO cannot mix
/// within one file (tagged content is pattern-defined, see PayloadStore).
enum class ContentKind : uint8_t { kNone = 0, kBytes = 1, kTagged = 2 };

struct Inode {
  Ino ino = kInvalidIno;
  InodeType type = InodeType::kFile;
  uint32_t mode = 0644;
  uint32_t uid = 0;
  uint64_t size = 0;
  /// Pattern seed for tagged content (whole-file identity).
  uint64_t seed = 0;
  ContentKind content = ContentKind::kNone;
  /// Hugeblock indexes, one per hugeblock_size of file extent.
  std::vector<uint64_t> blocks;
  /// DRAM-only: every entry of blocks[0, mapped) is allocated, so block
  /// mapping only inspects the tail. Not serialized; reset to 0 wherever
  /// `blocks` is cleared or restored.
  uint64_t mapped = 0;

  void serialize(Encoder& enc) const {
    enc.u64(ino);
    enc.u8(static_cast<uint8_t>(type));
    enc.u32(mode);
    enc.u32(uid);
    enc.u64(size);
    enc.u64(seed);
    enc.u8(static_cast<uint8_t>(content));
    enc.u64(blocks.size());
    for (uint64_t b : blocks) enc.u64(b);
  }

  Status deserialize(Decoder& dec) {
    uint8_t t = 0, c = 0;
    uint64_t nblocks = 0;
    NVMECR_RETURN_IF_ERROR(dec.u64(ino));
    NVMECR_RETURN_IF_ERROR(dec.u8(t));
    NVMECR_RETURN_IF_ERROR(dec.u32(mode));
    NVMECR_RETURN_IF_ERROR(dec.u32(uid));
    NVMECR_RETURN_IF_ERROR(dec.u64(size));
    NVMECR_RETURN_IF_ERROR(dec.u64(seed));
    NVMECR_RETURN_IF_ERROR(dec.u8(c));
    NVMECR_RETURN_IF_ERROR(dec.u64(nblocks));
    if (t > 1 || c > 2) return CorruptionError("bad inode enums");
    type = static_cast<InodeType>(t);
    content = static_cast<ContentKind>(c);
    blocks.resize(nblocks);
    mapped = 0;
    for (auto& b : blocks) NVMECR_RETURN_IF_ERROR(dec.u64(b));
    return OkStatus();
  }
};

/// DRAM inode table with deterministic id assignment (replay-stable).
class InodeTable {
 public:
  /// Allocates the next inode number and default-initializes the inode.
  Inode& alloc(InodeType type) {
    const Ino ino = next_ino_++;
    Inode& inode = inodes_[ino];
    inode.ino = ino;
    inode.type = type;
    return inode;
  }

  /// Inserts an inode with a specific id (log replay path). The id must
  /// be unused; next_ino advances past it.
  StatusOr<Inode*> insert_with_ino(Ino ino, InodeType type) {
    auto [it, inserted] = inodes_.try_emplace(ino);
    if (!inserted) return CorruptionError("duplicate ino in replay");
    it->second.ino = ino;
    it->second.type = type;
    if (ino >= next_ino_) next_ino_ = ino + 1;
    return &it->second;
  }

  Inode* get(Ino ino) {
    auto it = inodes_.find(ino);
    return it == inodes_.end() ? nullptr : &it->second;
  }
  const Inode* get(Ino ino) const {
    auto it = inodes_.find(ino);
    return it == inodes_.end() ? nullptr : &it->second;
  }

  Status free(Ino ino) {
    return inodes_.erase(ino) > 0 ? OkStatus()
                                  : NotFoundError("no such inode");
  }

  size_t count() const { return inodes_.size(); }
  Ino next_ino() const { return next_ino_; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [ino, inode] : inodes_) fn(inode);
  }

  size_t memory_footprint() const {
    size_t bytes = inodes_.size() * (sizeof(Inode) + 48 /* map node */);
    for (const auto& [ino, inode] : inodes_) {
      bytes += inode.blocks.capacity() * sizeof(uint64_t);
    }
    return bytes;
  }

  void serialize(std::vector<std::byte>& out) const {
    Encoder enc(out);
    enc.u64(next_ino_);
    enc.u64(inodes_.size());
    for (const auto& [ino, inode] : inodes_) inode.serialize(enc);
  }

  StatusOr<size_t> deserialize(std::span<const std::byte> in) {
    Decoder dec(in);
    uint64_t next = 0, count = 0;
    NVMECR_RETURN_IF_ERROR(dec.u64(next));
    NVMECR_RETURN_IF_ERROR(dec.u64(count));
    inodes_.clear();
    for (uint64_t i = 0; i < count; ++i) {
      Inode inode;
      NVMECR_RETURN_IF_ERROR(inode.deserialize(dec));
      inodes_.emplace(inode.ino, std::move(inode));
    }
    next_ino_ = next;
    return dec.consumed();
  }

  void clear() {
    inodes_.clear();
    next_ino_ = kRootIno;
  }

 private:
  std::map<Ino, Inode> inodes_;
  Ino next_ino_ = kRootIno;
};

}  // namespace nvmecr::microfs
