#include "simcore/profile.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "simcore/task.h"

namespace nvmecr::sim {

uint64_t DispatchProfiler::now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

DispatchProfiler::DispatchProfiler() : buckets_(1) {
  frame_allocs_base_ = sim::frame_allocations();
}

uint16_t DispatchProfiler::intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i + 1);
  }
  if (names_.size() >= profile_ctx::kTagMask) return 0;  // tag space full
  names_.emplace_back(name);
  buckets_.resize(names_.size() + 1);
  return static_cast<uint16_t>(names_.size());
}

void DispatchProfiler::reset() {
  for (Bucket& b : buckets_) b = Bucket{};
  frame_allocs_base_ = sim::frame_allocations();
  open_ = false;
  last_tag_ = 0;
}

std::vector<DispatchProfiler::CostCenter> DispatchProfiler::ranked() const {
  std::vector<CostCenter> out;
  for (size_t tag = 0; tag < buckets_.size(); ++tag) {
    const Bucket& b = buckets_[tag];
    if (b.dispatches == 0 && b.wall_ns == 0) continue;
    CostCenter c;
    c.name = tag == 0 ? "(untagged)" : names_[tag - 1];
    c.wall_ns = b.wall_ns;
    c.dispatches = b.dispatches;
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const CostCenter& a,
                                       const CostCenter& b) {
    if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
    return a.name < b.name;  // stable tie-break for determinism of output
  });
  return out;
}

uint64_t DispatchProfiler::total_wall_ns() const {
  uint64_t t = 0;
  for (const Bucket& b : buckets_) t += b.wall_ns;
  return t;
}

uint64_t DispatchProfiler::total_dispatches() const {
  uint64_t t = 0;
  for (const Bucket& b : buckets_) t += b.dispatches;
  return t;
}

uint64_t DispatchProfiler::frame_allocations() const {
  return sim::frame_allocations() - frame_allocs_base_;
}

std::string DispatchProfiler::table(size_t top_n) const {
  const std::vector<CostCenter> rows = ranked();
  const uint64_t total_ns = total_wall_ns();

  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-4s %-18s %12s %7s %12s\n", "rank",
                "cost center", "wall_ms", "share", "dispatches");
  out += line;
  size_t shown = 0;
  for (const CostCenter& c : rows) {
    if (shown >= top_n) break;
    const double share =
        total_ns ? 100.0 * static_cast<double>(c.wall_ns) / total_ns : 0.0;
    std::snprintf(line, sizeof(line),
                  "%3zu. %-18s %12.3f %6.1f%% %12" PRIu64 "\n", shown + 1,
                  c.name.c_str(), c.wall_ns / 1e6, share, c.dispatches);
    out += line;
    ++shown;
  }
  std::snprintf(line, sizeof(line),
                "total: %.3f ms over %" PRIu64
                " dispatches, %" PRIu64 " coroutine frames allocated\n",
                total_ns / 1e6, total_dispatches(), frame_allocations());
  out += line;
  return out;
}

}  // namespace nvmecr::sim
