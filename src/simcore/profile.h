// Host wall-clock dispatch profiler for the DES engine (DESIGN.md §9).
//
// Answers "where does the simulator's wall time go" by attributing the
// host nanoseconds between consecutive dispatches to the *cost center*
// of the event being left: every scheduled resumption carries a 32-bit
// profile context captured at schedule time, and the run loop hands it
// to the profiler on dispatch. One steady_clock read per event (the
// interval [dispatch N, dispatch N+1) is charged to event N's tag), so
// an armed profiler costs a single clock read plus two array updates
// per event — and an unarmed one costs one branch. A ProfileTagScope
// entered or left inside that interval splits it with one more clock
// read (retag()): the part after a tagged child coroutine returns bills
// to the caller that runs it, not to the child's tag that woke it.
//
// The context word encodes three orthogonal facts:
//
//   bits  0..14  cost-center tag (intern()ed name; 0 = untagged)
//   bit      15  metadata flag: the event belongs to oplog maintenance
//                (the epoch analyzer redirects nested device phases)
//   bits 16..31  rank + 1 (0 = no rank) for per-rank phase attribution
//
// RAII scopes stamp the current context; because the engine restores
// each event's *captured* context on dispatch, a scope held across
// co_await attributes exactly the events its coroutine schedules —
// interleaved tasks cannot bleed into each other's cost centers.
//
// Wall-clock readings live only inside the profiler's buckets, never in
// simulation state: arming it cannot perturb the event schedule (the
// perf_determinism golden fingerprint pins this).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nvmecr::sim {

namespace profile_ctx {
inline constexpr uint32_t kTagMask = 0x7fff;
inline constexpr uint32_t kMetaBit = 0x8000;
inline constexpr uint32_t kRankShift = 16;
}  // namespace profile_ctx

class DispatchProfiler {
 public:
  DispatchProfiler();

  /// Registers (or finds) a cost-center name; returns its tag. Tag 0 is
  /// reserved for untagged events. Call at setup time, not per event.
  uint16_t intern(std::string_view name);

  /// Hot path, called by Engine::dispatch on every event: charges the
  /// wall time since the previous call to the *previous* event's tag,
  /// then opens the accounting window for this one.
  void begin_event(uint32_t ctx) {
    const uint64_t now = now_ns();
    if (open_) buckets_[last_tag_].wall_ns += now - last_ns_;
    open_ = true;
    last_ns_ = now;
    uint16_t tag = static_cast<uint16_t>(ctx & profile_ctx::kTagMask);
    if (tag >= buckets_.size()) tag = 0;
    last_tag_ = tag;
    ++buckets_[tag].dispatches;
  }

  /// Closes the open accounting window and reopens it under `ctx`'s tag
  /// without counting a dispatch. ProfileTagScope entry and exit call
  /// it, so the work a coroutine does inside a scope — and after a tagged
  /// child it awaited returns — bills to the scope that runs it, not to
  /// the event that woke it. No-op outside the run loop.
  void retag(uint32_t ctx) {
    if (!open_) return;
    const uint64_t now = now_ns();
    buckets_[last_tag_].wall_ns += now - last_ns_;
    last_ns_ = now;
    const uint16_t tag = static_cast<uint16_t>(ctx & profile_ctx::kTagMask);
    last_tag_ = tag < buckets_.size() ? tag : 0;
  }

  /// Closes the open attribution window (call when the run loop exits;
  /// time spent outside the loop is nobody's cost center).
  void finish() {
    if (open_) buckets_[last_tag_].wall_ns += now_ns() - last_ns_;
    open_ = false;
  }

  /// Drops all samples and re-bases the frame-allocation delta. Interned
  /// names survive (cached tags at call sites stay valid).
  void reset();

  struct CostCenter {
    std::string name;
    uint64_t wall_ns = 0;
    uint64_t dispatches = 0;
  };

  /// Cost centers sorted by wall_ns descending; zero-sample tags are
  /// omitted, untagged events appear as "(untagged)".
  std::vector<CostCenter> ranked() const;

  /// Human-readable ranked table (top `top_n` rows) with wall-time
  /// shares, dispatch counts, and a footer with totals and the
  /// coroutine-frame allocation delta.
  std::string table(size_t top_n) const;

  uint64_t total_wall_ns() const;
  uint64_t total_dispatches() const;
  /// Coroutine frames allocated since construction / reset().
  uint64_t frame_allocations() const;

 private:
  struct Bucket {
    uint64_t wall_ns = 0;
    uint64_t dispatches = 0;
  };

  static uint64_t now_ns();

  std::vector<Bucket> buckets_;     // index = tag; [0] = untagged
  std::vector<std::string> names_;  // names_[tag - 1]
  uint64_t frame_allocs_base_ = 0;
  uint64_t last_ns_ = 0;
  uint16_t last_tag_ = 0;
  bool open_ = false;
};

}  // namespace nvmecr::sim

#include "simcore/engine.h"

namespace nvmecr::sim {

/// Stamps cost-center `tag` (from Engine::profile_tag / intern) into the
/// engine's profile context for the scope's lifetime. A zero tag — the
/// value profile_tag returns when no profiler is armed — makes the scope
/// a no-op beyond the save/restore of one word. Safe to hold across
/// co_await: each scheduled event captures the context at schedule time
/// and dispatch restores it, so suspension cannot leak the tag into
/// other tasks. Entry and exit also retag the profiler's open window
/// (when the tag changes), so host time between them bills to this
/// scope and time after it to the enclosing one.
class ProfileTagScope {
 public:
  ProfileTagScope(Engine& engine, uint16_t tag)
      : engine_(engine),
        saved_(engine.profile_ctx()),
        retag_(tag != 0 && (saved_ & profile_ctx::kTagMask) != tag) {
    if (retag_) {
      const uint32_t ctx = (saved_ & ~profile_ctx::kTagMask) | tag;
      engine.set_profile_ctx(ctx);
      retag(ctx);
    }
  }
  ~ProfileTagScope() {
    engine_.set_profile_ctx(saved_);
    if (retag_) retag(saved_);
  }
  ProfileTagScope(const ProfileTagScope&) = delete;
  ProfileTagScope& operator=(const ProfileTagScope&) = delete;

 private:
  void retag(uint32_t ctx) {
    if (DispatchProfiler* p = engine_.profiler()) p->retag(ctx);
  }

  Engine& engine_;
  uint32_t saved_;
  bool retag_;
};

/// Stamps `rank` into the context's high half so the epoch critical-path
/// analyzer can attribute nested device/fabric phases to the rank whose
/// operation is in flight. No-op unless profile hooks are armed.
class ProfileRankScope {
 public:
  ProfileRankScope(Engine& engine, uint32_t rank)
      : engine_(engine), saved_(engine.profile_ctx()) {
    if (engine.profile_hooks()) {
      engine.set_profile_ctx((saved_ & 0xffffu) |
                             ((rank + 1) << profile_ctx::kRankShift));
    }
  }
  ~ProfileRankScope() { engine_.set_profile_ctx(saved_); }
  ProfileRankScope(const ProfileRankScope&) = delete;
  ProfileRankScope& operator=(const ProfileRankScope&) = delete;

 private:
  Engine& engine_;
  uint32_t saved_;
};

/// Marks the scope as oplog/metadata maintenance (context bit 15): the
/// epoch analyzer books nested fabric/queue/flash time under the oplog
/// phase instead of double-counting it as data-plane IO. No-op unless
/// profile hooks are armed.
class ProfileMetaScope {
 public:
  explicit ProfileMetaScope(Engine& engine)
      : engine_(engine), saved_(engine.profile_ctx()) {
    if (engine.profile_hooks()) {
      engine.set_profile_ctx(saved_ | profile_ctx::kMetaBit);
    }
  }
  ~ProfileMetaScope() { engine_.set_profile_ctx(saved_); }
  ProfileMetaScope(const ProfileMetaScope&) = delete;
  ProfileMetaScope& operator=(const ProfileMetaScope&) = delete;

 private:
  Engine& engine_;
  uint32_t saved_;
};

}  // namespace nvmecr::sim
