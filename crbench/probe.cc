#include "probe.h"

#include <algorithm>
#include <ctime>
#include <cstdlib>
#include <map>
#include <utility>

#include "simcore/profile.h"

namespace crbench {

namespace sim = nvmecr::sim;
using nvmecr::Status;
using nvmecr::StatusOr;
using nvmecr::baselines::StorageClient;

const char* op_name(Op op) {
  switch (op) {
    case Op::kCreate: return "create";
    case Op::kOpenRead: return "open_read";
    case Op::kWrite: return "write";
    case Op::kRead: return "read";
    case Op::kFsync: return "fsync";
    case Op::kClose: return "close";
    case Op::kUnlink: return "unlink";
  }
  return "?";
}

uint64_t host_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t speed_probe_ns() {
  static std::vector<uint64_t> heap = [] {
    std::vector<uint64_t> h(4096);  // 32 KiB: stays in L1 once warm
    uint64_t x = 1;
    for (uint64_t& v : h) v = x = x * 6364136223846793005ull + 1;
    std::make_heap(h.begin(), h.end());
    return h;
  }();
  static uint64_t x = 7;
  // Median of three rounds: the first refills the caches the simulator
  // evicted, and an interrupt lands in at most one of the others.
  uint64_t rounds[3];
  for (uint64_t& ns : rounds) {
    const uint64_t t0 = host_now_ns();
    for (int i = 0; i < 700; ++i) {
      x = x * 6364136223846793005ull + 1;
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = x >> 1;
      std::push_heap(heap.begin(), heap.end());
    }
    ns = host_now_ns() - t0;
  }
  std::sort(rounds, rounds + 3);
  return rounds[1];
}

namespace {

constexpr uint32_t kNoRank = UINT32_MAX;
constexpr uint32_t kNoEpoch = UINT32_MAX;

/// Epoch of a checkpoint path ("/<app>.e0007.r00012.ckpt"), or kNoEpoch.
uint32_t epoch_of(const std::string& path) {
  const size_t at = path.find(".e");
  if (at == std::string::npos) return kNoEpoch;
  char* end = nullptr;
  const unsigned long e = std::strtoul(path.c_str() + at + 2, &end, 10);
  return end != path.c_str() + at + 2 && *end == '.'
             ? static_cast<uint32_t>(e)
             : kNoEpoch;
}

}  // namespace

Probe::Probe(uint32_t nranks, bool tracing)
    : nranks_(nranks),
      tracing_(tracing),
      open_call_(nranks, 0) {}

uint64_t Probe::attempted() const {
  uint64_t n = connects_;
  for (const OpStats& s : ops_) n += s.count;
  return n;
}

uint64_t Probe::failed() const {
  uint64_t n = connect_failures_;
  for (const OpStats& s : ops_) n += s.failed;
  return n;
}

void Probe::begin_phase() {
  ++phase_index_;
  if (!tracing_) return;
  phase_slot_ = spans_.size();
  phase_id_ = spans_.size() + 1;
  spans_.push_back({phase_id_, 0, kNoRank,
                    static_cast<uint8_t>(SpanKind::kPhase), true,
                    engine_->now(), engine_->now(), 0});
}

void Probe::end_phase() {
  if (phase_slot_ == SIZE_MAX) return;
  spans_[phase_slot_].end = engine_->now();
  phase_slot_ = SIZE_MAX;
  phase_id_ = 0;
}

void Probe::note_connect(bool ok, uint64_t host_ns) {
  if (connects_ == 0) first_connect_host_ns_ = host_ns;
  ++connects_;
  if (!ok) ++connect_failures_;
  connected_host_ns_ = host_ns;
  if (connects_ == nranks_) {
    start_laps();
    connected_probe_ns_ = lap_probe_ns_;
  }
}

void Probe::start_laps() {
  lap_open_ = true;
  lap_probe_ns_ = speed_probe_ns();
  lap_calls_ = 0;
  lap_start_ = host_now_ns();
}

void Probe::end_lap(uint64_t host_ns) {
  const uint64_t probe_ns = speed_probe_ns();
  laps_.push_back({host_ns - lap_start_, (lap_probe_ns_ + probe_ns) / 2});
  lap_probe_ns_ = probe_ns;
  lap_calls_ = 0;
  lap_start_ = host_now_ns();
}

void Probe::stop_laps(uint64_t host_ns) {
  if (!lap_open_) return;
  end_lap(host_ns);
  lap_open_ = false;
}

size_t Probe::begin_call(uint32_t rank, Op op, uint32_t epoch) {
  if (lap_open_ && ++lap_calls_ == kLapCalls) end_lap(host_now_ns());
  if (!tracing_) return SIZE_MAX;
  if (epoch_ != nullptr && epoch != kNoEpoch) {
    epoch_->set_rank_epoch(rank, epoch);
  }
  const size_t slot = spans_.size();
  const uint64_t id = slot + 1;
  spans_.push_back({id, phase_id_, rank, static_cast<uint8_t>(op), true,
                    engine_->now(), engine_->now(), 0});
  if (rank < nranks_) open_call_[rank] = id;
  return slot;
}

void Probe::end_call(uint32_t rank, Op op, size_t slot, bool ok,
                     uint64_t bytes, bool probe_miss) {
  OpStats& s = ops_[static_cast<size_t>(op)];
  ++s.count;
  if (probe_miss) {
    ++probe_misses_;
  } else if (!ok) {
    ++s.failed;
  }
  if (ok && op == Op::kWrite) bytes_written_ += bytes;
  if (ok && op == Op::kRead) bytes_read_ += bytes;
  if (slot == SIZE_MAX) return;
  Span& span = spans_[slot];
  span.end = engine_->now();
  span.ok = ok;
  span.bytes = bytes;
  s.sim_ns.push_back(span.end - span.start);
  if (rank < nranks_) open_call_[rank] = 0;
}

void Probe::note_checkpoint_close(uint32_t rank, uint32_t epoch) {
  if (tracing_) closes_.push_back({phase_index_, epoch, rank, engine_->now()});
}

size_t Probe::begin_io(uint32_t rank, SpanKind kind, uint64_t bytes) {
  const size_t slot = spans_.size();
  const uint64_t parent =
      rank < nranks_ && open_call_[rank] != 0 ? open_call_[rank] : phase_id_;
  spans_.push_back({slot + 1, parent, rank, static_cast<uint8_t>(kind), true,
                    engine_->now(), engine_->now(), bytes});
  return slot;
}

void Probe::end_io(size_t slot, bool ok) {
  Span& span = spans_[slot];
  span.end = engine_->now();
  span.ok = ok;
  if (span.kind == static_cast<uint8_t>(SpanKind::kDevFlush)) return;
  ++dev_ios_;
  dev_bytes_ += span.bytes;
  dev_sim_ns_.push_back(span.end - span.start);
}

namespace {

class ProbeClient final : public StorageClient {
 public:
  ProbeClient(Probe& probe, uint32_t rank,
              std::unique_ptr<StorageClient> inner, bool view)
      : probe_(probe), rank_(rank), inner_(std::move(inner)), view_(view) {}

  sim::Task<StatusOr<int>> create(const std::string& path) override {
    const uint32_t epoch = epoch_of(path);
    sim::ProfileRankScope scope(probe_.engine(), rank_);
    const size_t slot = probe_.begin_call(rank_, Op::kCreate, epoch);
    auto fd = co_await inner_->create(path);
    probe_.end_call(rank_, Op::kCreate, slot, fd.ok(), 0, false);
    if (fd.ok()) writing_[*fd] = epoch;
    co_return fd;
  }

  sim::Task<StatusOr<int>> open_read(const std::string& path) override {
    sim::ProfileRankScope scope(probe_.engine(), rank_);
    const size_t slot = probe_.begin_call(rank_, Op::kOpenRead, epoch_of(path));
    auto fd = co_await inner_->open_read(path);
    const bool miss =
        view_ && fd.status().code() == nvmecr::ErrorCode::kNotFound;
    probe_.end_call(rank_, Op::kOpenRead, slot, fd.ok(), 0, miss);
    co_return fd;
  }

  sim::Task<Status> write(int fd, uint64_t len) override {
    return call(Op::kWrite, inner_->write(fd, len), len);
  }
  sim::Task<Status> read(int fd, uint64_t len) override {
    return call(Op::kRead, inner_->read(fd, len), len);
  }
  sim::Task<Status> fsync(int fd) override {
    return call(Op::kFsync, inner_->fsync(fd), 0);
  }

  sim::Task<Status> close(int fd) override {
    Status s = co_await call(Op::kClose, inner_->close(fd), 0);
    auto it = writing_.find(fd);
    if (it != writing_.end()) {
      if (s.ok()) probe_.note_checkpoint_close(rank_, it->second);
      writing_.erase(it);
    }
    co_return s;
  }

  sim::Task<Status> unlink(const std::string& path) override {
    return call(Op::kUnlink, inner_->unlink(path), 0);
  }

 private:
  sim::Task<Status> call(Op op, sim::Task<Status> inner_op, uint64_t bytes) {
    sim::ProfileRankScope scope(probe_.engine(), rank_);
    const size_t slot = probe_.begin_call(rank_, op, kNoEpoch);
    Status s = co_await std::move(inner_op);
    probe_.end_call(rank_, op, slot, s.ok(), bytes, false);
    co_return s;
  }

  Probe& probe_;
  uint32_t rank_;
  std::unique_ptr<StorageClient> inner_;
  bool view_;
  std::map<int, uint32_t> writing_;  // fd -> epoch of open write streams
};

class ProbeDevice final : public nvmecr::hw::BlockDevice {
 public:
  ProbeDevice(Probe& probe, uint32_t rank,
              std::unique_ptr<nvmecr::hw::BlockDevice> inner)
      : probe_(probe), rank_(rank), inner_(std::move(inner)) {}

  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t hw_block_size() const override { return inner_->hw_block_size(); }
  uint64_t tag_origin() const override { return inner_->tag_origin(); }

  sim::Task<Status> write(uint64_t offset,
                          std::span<const std::byte> data) override {
    return io(SpanKind::kDevWrite, data.size(),
                          inner_->write(offset, data));
  }
  sim::Task<Status> read(uint64_t offset, std::span<std::byte> out) override {
    return io(SpanKind::kDevRead, out.size(),
                          inner_->read(offset, out));
  }
  sim::Task<Status> write_tagged(uint64_t offset, uint64_t len,
                                 uint64_t seed) override {
    return io(SpanKind::kDevWrite, len,
                          inner_->write_tagged(offset, len, seed));
  }
  sim::Task<StatusOr<uint64_t>> read_tagged(uint64_t offset,
                                            uint64_t len) override {
    return io_value(len, inner_->read_tagged(offset, len));
  }
  sim::Task<Status> flush() override {
    return io(SpanKind::kDevFlush, 0, inner_->flush());
  }
  sim::Task<Status> write_tagged_batch(uint64_t offset, uint64_t len,
                                       uint64_t seed,
                                       uint32_t subcmds) override {
    return io(
        SpanKind::kDevWrite, len,
        inner_->write_tagged_batch(offset, len, seed, subcmds));
  }
  sim::Task<StatusOr<uint64_t>> read_tagged_batch(uint64_t offset,
                                                  uint64_t len,
                                                  uint32_t subcmds) override {
    return io_value(
        len, inner_->read_tagged_batch(offset, len, subcmds));
  }

 private:
  sim::Task<Status> io(SpanKind kind, uint64_t bytes, sim::Task<Status> op) {
    const size_t slot = probe_.begin_io(rank_, kind, bytes);
    Status s = co_await std::move(op);
    probe_.end_io(slot, s.ok());
    co_return s;
  }
  sim::Task<StatusOr<uint64_t>> io_value(uint64_t bytes,
                                         sim::Task<StatusOr<uint64_t>> op) {
    const size_t slot = probe_.begin_io(rank_, SpanKind::kDevRead, bytes);
    StatusOr<uint64_t> v = co_await std::move(op);
    probe_.end_io(slot, v.ok());
    co_return v;
  }

  Probe& probe_;
  uint32_t rank_;
  std::unique_ptr<nvmecr::hw::BlockDevice> inner_;
};

}  // namespace

sim::Task<StatusOr<std::unique_ptr<StorageClient>>> ProbeSystem::connect(
    int rank) {
  auto c = co_await inner_.connect(rank);
  probe_.note_connect(c.ok(), host_now_ns());
  if (!c.ok()) co_return c;
  co_return make_probe_client(probe_, static_cast<uint32_t>(rank),
                              std::move(*c), /*view=*/false);
}

std::unique_ptr<StorageClient> make_probe_client(
    Probe& probe, uint32_t rank, std::unique_ptr<StorageClient> inner,
    bool view) {
  return std::make_unique<ProbeClient>(probe, rank, std::move(inner), view);
}

DeviceWrapper probe_device_wrapper(Probe& probe, DeviceWrapper under) {
  return [&probe, under = std::move(under)](
             std::unique_ptr<nvmecr::hw::BlockDevice> dev,
             nvmecr::fabric::NodeId node,
             uint32_t rank) -> std::unique_ptr<nvmecr::hw::BlockDevice> {
    if (under) dev = under(std::move(dev), node, rank);
    return std::make_unique<ProbeDevice>(probe, rank, std::move(dev));
  };
}

}  // namespace crbench
