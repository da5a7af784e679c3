// Multi-level checkpointing (§III-F "Handling Cascading Failures",
// evaluated in §IV-I / Table II).
//
// Most checkpoints go to the fast ephemeral tier (NVMe-CR); every
// `interval`-th checkpoint is written to the slower but redundant
// parallel filesystem so checkpoint data survives cascading failures
// that take out both a process and its partner failure domain.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/storage_api.h"

namespace nvmecr::nvmecr_rt {

class MultiLevelPolicy {
 public:
  /// `interval` = N means checkpoint indexes 0, N, 2N, ... (1-in-N, the
  /// paper uses one in ten) go to the PFS level — so the newest
  /// checkpoint, the one restart reads, normally lives on the fast tier.
  explicit MultiLevelPolicy(uint32_t interval) : interval_(interval) {}

  bool is_pfs_checkpoint(uint32_t checkpoint_index) const {
    return interval_ > 0 && checkpoint_index % interval_ == 0;
  }
  uint32_t interval() const { return interval_; }

 private:
  uint32_t interval_;
};

/// One candidate restart source for a rank, tagged with the tier class
/// it serves. Fast-tier-class sources (the live session, a failover
/// view, a reconstruction client) can only serve checkpoints whose
/// ledger entry is on the fast tier; PFS sources only PFS-routed ones.
struct RestoreSource {
  baselines::StorageClient* client = nullptr;
  bool pfs_tier = false;
  const char* label = "fast";
};

/// Routes checkpoint IO between the tiers per the policy. All clients
/// belong to the same rank; the caller owns them.
class MultiLevelRouter {
 public:
  MultiLevelRouter(baselines::StorageClient& fast,
                   baselines::StorageClient& pfs, MultiLevelPolicy policy)
      : fast_(fast), pfs_(pfs), policy_(policy) {}

  baselines::StorageClient& level_for(uint32_t checkpoint_index) {
    return policy_.is_pfs_checkpoint(checkpoint_index) ? pfs_ : fast_;
  }
  const MultiLevelPolicy& policy() const { return policy_; }

  /// Installs the redundancy engine's reconstruction view (a client whose
  /// reads rebuild lost fast-tier files from partner replicas or XOR
  /// survivors; see redundancy::Reconstructor). With it installed the
  /// restart fallback chain becomes fast -> reconstructed -> PFS.
  void set_reconstructed(baselines::StorageClient* reconstructed) {
    reconstructed_ = reconstructed;
  }
  bool has_reconstructed() const { return reconstructed_ != nullptr; }

  /// Installs the resilience layer's failover view: a client serving
  /// checkpoints that finished in degraded mode (written to a spare
  /// partner domain after a mid-checkpoint target loss) or were healed
  /// back to full redundancy. It sits right after the fast tier in the
  /// restart chain: healed/degraded data is newer than anything a
  /// reconstruction could rebuild and far newer than the PFS copy.
  void set_failover(baselines::StorageClient* failover) {
    failover_ = failover;
  }
  bool has_failover() const { return failover_ != nullptr; }

  /// Recovery always prefers the fast tier (it holds the newest
  /// checkpoint unless the failure destroyed it). When the fast tier is
  /// lost, reconstruction — if a redundancy scheme provisioned it — comes
  /// before the PFS copy (which is older and slower to read).
  baselines::StorageClient& recovery_level(bool fast_tier_lost) {
    if (!fast_tier_lost) return fast_;
    return reconstructed_ != nullptr ? *reconstructed_ : pfs_;
  }

  /// The full restart fallback chain, newest-first: fast, then the
  /// failover (healed > degraded) view, then reconstruction, then the
  /// PFS tier. Restart walks it until one source serves the checkpoint.
  std::vector<baselines::StorageClient*> recovery_chain() {
    // Not `chain{&fast_}`: GCC 12 under UBSan misreports the growth
    // from a one-element init list as -Warray-bounds.
    std::vector<baselines::StorageClient*> chain;
    chain.reserve(4);
    chain.push_back(&fast_);
    if (failover_ != nullptr) chain.push_back(failover_);
    if (reconstructed_ != nullptr) chain.push_back(reconstructed_);
    chain.push_back(&pfs_);
    return chain;
  }

  /// Tier-tagged variant for ledger-driven restart (workloads'
  /// AppDriver). `pfs_tier` must match the checkpoint's recorded
  /// placement before a source may be probed: the PFS model's
  /// open_read cannot report ENOENT (it performs an MDS op and hands
  /// out a fresh fd regardless of the path), so a blind probe against
  /// the wrong tier would "succeed" on a checkpoint that was never
  /// written there.
  std::vector<RestoreSource> restore_chain() {
    std::vector<RestoreSource> chain{{&fast_, false, "fast"}};
    if (failover_ != nullptr) chain.push_back({failover_, false, "failover"});
    if (reconstructed_ != nullptr)
      chain.push_back({reconstructed_, false, "reconstructed"});
    chain.push_back({&pfs_, true, "pfs"});
    return chain;
  }

 private:
  baselines::StorageClient& fast_;
  baselines::StorageClient& pfs_;
  baselines::StorageClient* reconstructed_ = nullptr;
  baselines::StorageClient* failover_ = nullptr;
  MultiLevelPolicy policy_;
};

}  // namespace nvmecr::nvmecr_rt
