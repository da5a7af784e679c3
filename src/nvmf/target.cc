#include "nvmf/target.h"

#include <coroutine>
#include <type_traits>

#include "obs/profile.h"
#include "simcore/profile.h"

namespace nvmecr::nvmf {

namespace {

using obs::EpochProfiler;

/// A command sent to a dead target daemon gets no response: awaiting a
/// TargetLost burns the transport timeout, then yields kUnreachable
/// naming the target and the step (`what`). A plain awaiter rather than
/// a coroutine, so the failure path allocates no frame.
struct TargetLost {
  NvmfTarget& target;
  const char* what;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    target.engine()
        .delay(target.network().params().transport_timeout)
        .await_suspend(h);
  }
  Status await_resume() const {
    return UnreachableError("nvmf target on node " +
                            std::to_string(target.node()) + " " + what);
  }
};

/// Initiator-side view of a remote namespace through one qpair.
///
/// Fast path (DESIGN.md §11): each IO used to suspend through three
/// separately awaited sub-tasks (request → ssd_view op → response),
/// costing three coroutine frames per op on the hottest path in the
/// whole simulation (the nvmf cost center is ~88% of e2e wall time).
/// The public ops are now plain functions that build ONE io_run frame
/// covering the entire exchange; the request/response halves are inlined
/// into it. The awaited timing sequence — and therefore the simulated
/// schedule — is identical; only host-side frame churn drops. The frame
/// pool (simcore/task.h) recycles that one frame per session, which is
/// what makes an explicit per-session scratch task unnecessary.
class RemoteDevice final : public hw::BlockDevice {
 public:
  RemoteDevice(NvmfTarget& target, fabric::NodeId client,
               std::unique_ptr<hw::BlockDevice> ssd_view, uint32_t queue_id)
      : target_(target),
        client_(client),
        ssd_view_(std::move(ssd_view)),
        queue_id_(queue_id) {}

  ~RemoteDevice() override { target_.release_queue(queue_id_); }

  uint64_t capacity() const override { return ssd_view_->capacity(); }
  uint32_t hw_block_size() const override {
    return ssd_view_->hw_block_size();
  }
  uint64_t tag_origin() const override { return ssd_view_->tag_origin(); }

  sim::Task<Status> write(uint64_t offset,
                          std::span<const std::byte> data) override {
    return io_run<Status>(Kind::kWrite, offset, data.size(), 0, 1, data, {});
  }

  sim::Task<Status> read(uint64_t offset, std::span<std::byte> out) override {
    return io_run<Status>(Kind::kRead, offset, out.size(), 0, 1, {}, out);
  }

  sim::Task<Status> write_tagged(uint64_t offset, uint64_t len,
                                 uint64_t seed) override {
    return io_run<Status>(Kind::kWriteTagged, offset, len, seed, 1, {}, {});
  }

  sim::Task<StatusOr<uint64_t>> read_tagged(uint64_t offset,
                                            uint64_t len) override {
    return io_run<StatusOr<uint64_t>>(Kind::kReadTagged, offset, len, 0, 1,
                                      {}, {});
  }

  sim::Task<Status> flush() override {
    return io_run<Status>(Kind::kFlush, 0, 0, 0, 1, {}, {});
  }

  sim::Task<Status> write_tagged_batch(uint64_t offset, uint64_t len,
                                       uint64_t seed,
                                       uint32_t subcmds) override {
    return io_run<Status>(Kind::kWriteTaggedBatch, offset, len, seed, subcmds,
                          {}, {});
  }

  sim::Task<StatusOr<uint64_t>> read_tagged_batch(uint64_t offset,
                                                  uint64_t len,
                                                  uint32_t subcmds) override {
    return io_run<StatusOr<uint64_t>>(Kind::kReadTaggedBatch, offset, len, 0,
                                      subcmds, {}, {});
  }

 private:
  enum class Kind : uint8_t {
    kWrite,
    kRead,
    kWriteTagged,
    kFlush,
    kWriteTaggedBatch,
    kReadTagged,      // tag-returning shape
    kReadTaggedBatch  // tag-returning shape
  };

  static const char* op_name(Kind kind) {
    switch (kind) {
      case Kind::kWrite:
      case Kind::kWriteTagged:
        return "write";
      case Kind::kRead:
      case Kind::kReadTagged:
        return "read";
      case Kind::kFlush:
        return "flush";
      case Kind::kWriteTaggedBatch:
        return "write_batch";
      case Kind::kReadTaggedBatch:
        return "read_batch";
    }
    return "?";
  }

  /// The whole NVMf exchange in one coroutine frame. R is Status for
  /// write/flush-shaped ops and StatusOr<uint64_t> for tag-returning
  /// reads; the error-combination rules per shape are unchanged from the
  /// old three-task version:
  ///   - request failure wins outright (the command never reached the
  ///     device);
  ///   - otherwise the response leg always runs (it closes the inflight
  ///     window), and a device error beats a response error for the
  ///     Status shape while a tag result is only displaced by a response
  ///     error when the device op itself succeeded.
  ///
  /// Inflight (qpair depth) accounting opens at the top; on a request
  /// failure it closes there too (the command is dead), otherwise the
  /// response half closes it. A crashed target daemon or a down link
  /// surfaces as kUnreachable / kTimedOut after the transport timeout —
  /// never as a hang.
  template <typename R>
  sim::Task<R> io_run(Kind kind, uint64_t offset, uint64_t len, uint64_t seed,
                      uint32_t count, std::span<const std::byte> wdata,
                      std::span<std::byte> rdata) {
    sim::Engine& eng = target_.engine();
    const NvmfParams& p = target_.params();
    const obs::Observer& obs = target_.observer();
    const SimTime t0 = eng.now();
    const bool is_read = kind == Kind::kRead || kind == Kind::kReadTagged ||
                         kind == Kind::kReadTaggedBatch;
    // Payload rides the request capsule for writes, the completion for
    // reads; batches pay per-subcommand wire overhead.
    const uint64_t req_bytes = p.command_bytes * count + (is_read ? 0 : len);
    const uint64_t resp_bytes =
        p.completion_bytes * count + (is_read ? len : 0);

    // --- request half: initiator CPU, capsule (+ inline data) to the
    // target, poll group. Resumptions scheduled inside the block dispatch
    // under the "nvmf" cost center; phase time goes to the rank stamped
    // by the caller.
    {
      sim::ProfileTagScope tag_scope(eng, target_.profile_tag());
      target_.command_begin(count);
      const SimDuration cpu = p.initiator_per_cmd * count;
      if (cpu > 0) co_await eng.delay(cpu);
      if (obs.epoch != nullptr) {
        obs.epoch->record(eng, EpochProfiler::Phase::kSerialize, cpu);
      }
      if (!target_.alive(eng.now())) {
        Status lost = co_await TargetLost{target_, "down"};
        target_.command_end(count);
        co_return lost;
      }
      const SimTime xfer0 = eng.now();
      Status rq = co_await target_.network().transfer(
          client_, target_.node(), req_bytes);
      if (obs.epoch != nullptr) {
        obs.epoch->record(eng, EpochProfiler::Phase::kFabric,
                          eng.now() - xfer0);
      }
      if (!rq.ok()) {
        target_.command_end(count);
        co_return rq;
      }
      const SimTime cpu_done = target_.reserve_poll_group(eng.now(), count);
      if (obs.epoch != nullptr) {
        obs.epoch->record(eng, EpochProfiler::Phase::kTargetQueue,
                          cpu_done - eng.now());
      }
      // Inline the arbitration wait when the poll group is already free
      // (no backlog and no per-command cost): no reason to bounce through
      // the scheduler for a zero-length sleep.
      if (cpu_done > eng.now()) co_await eng.sleep_until(cpu_done);
      if (!target_.alive(eng.now())) {
        // The daemon died while the command sat in the poll group.
        Status lost = co_await TargetLost{target_, "died processing command"};
        target_.command_end(count);
        co_return lost;
      }
    }

    // --- device op, under the SSD's own cost center ---
    Status dev = OkStatus();
    StatusOr<uint64_t> tag{uint64_t{0}};
    if constexpr (std::is_same_v<R, Status>) {
      switch (kind) {
        case Kind::kWrite:
          dev = co_await ssd_view_->write(offset, wdata);
          break;
        case Kind::kRead:
          dev = co_await ssd_view_->read(offset, rdata);
          break;
        case Kind::kWriteTagged:
          dev = co_await ssd_view_->write_tagged(offset, len, seed);
          break;
        case Kind::kFlush:
          dev = co_await ssd_view_->flush();
          break;
        default:
          dev = co_await ssd_view_->write_tagged_batch(offset, len, seed,
                                                       count);
          break;
      }
    } else if (kind == Kind::kReadTagged) {
      // Statement-level awaits on purpose: a co_await inside a ?: operand
      // puts the sub-task temporary inside a conditional full-expression,
      // which GCC 12 mishandles (the result copy aliases the dead frame).
      tag = co_await ssd_view_->read_tagged(offset, len);
    } else {
      tag = co_await ssd_view_->read_tagged_batch(offset, len, count);
    }

    // --- response half: completion (+ read data) back to the initiator.
    // Always closes the inflight window opened above.
    Status rs;
    {
      sim::ProfileTagScope tag_scope(eng, target_.profile_tag());
      if (!target_.alive(eng.now())) {
        rs = co_await TargetLost{target_, "died before completing"};
        target_.command_end(count);
      } else {
        const SimTime xfer0 = eng.now();
        rs = co_await target_.network().transfer(target_.node(), client_,
                                                 resp_bytes);
        if (obs.epoch != nullptr) {
          obs.epoch->record(eng, EpochProfiler::Phase::kFabric,
                            eng.now() - xfer0);
        }
        target_.command_end(count);
      }
    }
    target_.record_op_span(op_name(kind), t0, len);
    if constexpr (std::is_same_v<R, Status>) {
      if (!dev.ok()) co_return dev;
      co_return rs;
    } else {
      if (tag.ok() && !rs.ok()) co_return rs;
      co_return tag;
    }
  }

  NvmfTarget& target_;
  fabric::NodeId client_;
  std::unique_ptr<hw::BlockDevice> ssd_view_;
  uint32_t queue_id_;
};

}  // namespace

NvmfTarget::NvmfTarget(sim::Engine& engine, fabric::Network& network,
                       fabric::NodeId node, hw::NvmeSsd& ssd,
                       NvmfParams params)
    : engine_(engine),
      network_(network),
      node_(node),
      ssd_(ssd),
      params_(params),
      poll_groups_(engine,
                   params.target_per_cmd > 0
                       ? params.target_cores * kSecond /
                             static_cast<uint64_t>(params.target_per_cmd)
                       : 0),
      compute_(engine, static_cast<uint64_t>(params.offload_cores) * kSecond) {}

SimTime NvmfTarget::reserve_compute(SimTime arrival, SimDuration work_ns) {
  if (work_ns <= 0) return arrival;
  compute_busy_ns_ += static_cast<uint64_t>(work_ns);
  const SimTime done =
      compute_.reserve_after(arrival, static_cast<uint64_t>(work_ns));
  if (m_offload_busy_ != nullptr) {
    m_offload_busy_->add(static_cast<uint64_t>(work_ns));
  }
  return done;
}

sim::Task<StatusOr<uint32_t>> NvmfTarget::negotiate_offload(
    fabric::NodeId client_node, uint32_t requested) {
  sim::ProfileTagScope tag_scope(engine_, profile_tag_);
  co_await engine_.delay(params_.initiator_per_cmd);
  if (!alive(engine_.now())) {
    co_return co_await TargetLost{*this, "down (offload negotiation)"};
  }
  Status s =
      co_await network_.transfer(client_node, node_, params_.command_bytes);
  if (!s.ok()) co_return s;
  co_await engine_.sleep_until(reserve_poll_group(engine_.now()));
  if (!alive(engine_.now())) {
    co_return co_await TargetLost{*this, "died negotiating offload"};
  }
  s = co_await network_.transfer(node_, client_node,
                                 params_.completion_bytes);
  if (!s.ok()) co_return s;
  co_return requested & params_.offload_caps;
}

SimTime NvmfTarget::reserve_poll_group(SimTime arrival, uint32_t count) {
  commands_processed_ += count;
  const SimTime done = poll_groups_.reserve_after(arrival, count);
  if (m_cmds_ != nullptr) m_cmds_->add(count);
  if (m_poll_backlog_ != nullptr) {
    m_poll_backlog_->set(engine_.now(),
                         static_cast<double>(poll_groups_.backlog()));
  }
  return done;
}

void NvmfTarget::set_observer(const obs::Observer& o) {
  obs_ = o;
  trace_track_ = "nvmf/node" + std::to_string(node_);
  m_cmds_ = nullptr;
  m_offload_busy_ = nullptr;
  m_inflight_ = nullptr;
  m_poll_backlog_ = nullptr;
  profile_tag_ = engine_.profile_tag("nvmf");
  offload_tag_ = engine_.profile_tag("nvmf/offload");
  if (obs_.metrics == nullptr) return;
  const std::string prefix = "nvmf.node" + std::to_string(node_) + ".";
  m_cmds_ = obs_.metrics->counter(prefix + "commands");
  m_offload_busy_ = obs_.metrics->counter(prefix + "offload_busy_ns");
  m_inflight_ = obs_.metrics->gauge(prefix + "qpair_depth");
  m_poll_backlog_ = obs_.metrics->gauge(prefix + "poll_backlog_ns");
}

void NvmfTarget::command_begin(uint32_t count) {
  inflight_ += count;
  if (m_inflight_ != nullptr) {
    m_inflight_->set(engine_.now(), static_cast<double>(inflight_));
  }
}

void NvmfTarget::command_end(uint32_t count) {
  inflight_ = inflight_ >= count ? inflight_ - count : 0;
  if (m_inflight_ != nullptr) {
    m_inflight_->set(engine_.now(), static_cast<double>(inflight_));
  }
}

void NvmfTarget::record_op_span(const char* name, SimTime start,
                                uint64_t bytes) {
  if (obs_.trace == nullptr) return;
  obs_.trace->add_span(trace_track_, name, start, engine_.now(),
                       {{"bytes", static_cast<double>(bytes)}});
}

StatusOr<uint32_t> NvmfTarget::acquire_queue() {
  auto queue = ssd_.alloc_queue();
  if (queue.ok()) {
    queue_refs_.emplace_back(*queue, 1);
    return *queue;
  }
  if (queue_refs_.empty()) return queue.status();
  // Budget exhausted: share an existing queue round-robin.
  auto& [qid, refs] = queue_refs_[next_shared_ % queue_refs_.size()];
  ++next_shared_;
  ++refs;
  return qid;
}

void NvmfTarget::release_queue(uint32_t queue_id) {
  for (auto it = queue_refs_.begin(); it != queue_refs_.end(); ++it) {
    if (it->first == queue_id) {
      if (--it->second == 0) {
        ssd_.free_queue(queue_id);
        queue_refs_.erase(it);
      }
      return;
    }
  }
}

StatusOr<std::unique_ptr<hw::BlockDevice>> NvmfTarget::connect(
    fabric::NodeId client_node, uint32_t nsid) {
  auto queue = acquire_queue();
  if (!queue.ok()) return queue.status();
  auto view = ssd_.open_queue(nsid, *queue);
  return std::unique_ptr<hw::BlockDevice>(
      new RemoteDevice(*this, client_node, std::move(view), *queue));
}

}  // namespace nvmecr::nvmf
