// ShardedVirtualizer — N independently-lockable DvShards behind one
// routing layer.
//
// Each simulation context is pinned to exactly one shard (round-robin at
// registration), so requests and simulator events for different contexts
// never contend on a lock. Shard i of S issues client/job ids on the
// lattice i+1, i+1+S, i+1+2S, ..., which makes id -> shard routing a pure
// computation (no shared lookup table on the hot path):
//
//     shardOfClient(id) == shardOfJob(id) == (id - 1) % S
//
// Locking contract: the convenience wrappers (registerContext, stats,
// isAvailable, ...) lock internally and may be called from any thread.
// Batch consumers (dv::Daemon's workers) instead take mutexOf(i) once,
// then drive shard(i) directly for a whole batch of requests — one lock
// acquisition amortized over the batch. Callbacks installed via
// setNotifyFn/setEvictFn fire while the owning shard's mutex is held and
// must not re-enter the virtualizer.
#pragma once

#include "dv/shard.hpp"

#include <mutex>
#include <optional>

namespace simfs::dv {

class ShardedVirtualizer {
 public:
  ShardedVirtualizer(const Clock& clock, std::size_t numShards);
  ShardedVirtualizer(const ShardedVirtualizer&) = delete;
  ShardedVirtualizer& operator=(const ShardedVirtualizer&) = delete;

  [[nodiscard]] std::size_t numShards() const noexcept {
    return shards_.size();
  }

  // --- wiring (installed on every shard) -------------------------------------

  void setLauncher(SimLauncher* launcher);
  void setNotifyFn(DvShard::NotifyFn fn);
  void setEvictFn(DvShard::EvictFn fn);
  void setProducedFn(DvShard::ProducedFn fn);

  // --- routed, internally-locked wrappers -------------------------------------

  /// Registers the context on the next shard (round-robin).
  Status registerContext(std::unique_ptr<simmodel::SimulationDriver> driver);
  Status seedAvailableStep(const std::string& context, StepIndex step);
  Status setChecksumMap(const std::string& context, simmodel::ChecksumMap map);

  // --- routing ----------------------------------------------------------------

  /// Shard owning `context`; nullopt if the context is not registered.
  [[nodiscard]] std::optional<std::size_t> shardOfContext(
      const std::string& context) const;

  [[nodiscard]] std::size_t shardOfClient(ClientId client) const noexcept {
    return static_cast<std::size_t>((client - 1) % shards_.size());
  }

  [[nodiscard]] std::size_t shardOfJob(SimJobId job) const noexcept {
    return static_cast<std::size_t>((job - 1) % shards_.size());
  }

  // --- direct shard access (caller holds mutexOf(i)) --------------------------

  [[nodiscard]] DvShard& shard(std::size_t i) noexcept { return shards_[i]->shard; }
  [[nodiscard]] const DvShard& shard(std::size_t i) const noexcept {
    return shards_[i]->shard;
  }
  [[nodiscard]] std::mutex& mutexOf(std::size_t i) const noexcept {
    return shards_[i]->mutex;
  }

  // --- aggregates (lock each shard briefly) -----------------------------------

  [[nodiscard]] DvStats stats() const;
  [[nodiscard]] bool isAvailable(const std::string& context, StepIndex step) const;
  [[nodiscard]] int runningJobs(const std::string& context) const;
  [[nodiscard]] std::vector<std::string> contextNames() const;
  /// Copy of a registered context's configuration (nullopt: unknown).
  [[nodiscard]] std::optional<simmodel::ContextConfig> contextConfig(
      const std::string& context) const;

 private:
  struct Slot {
    mutable std::mutex mutex;
    DvShard shard;
    Slot(const Clock& clock, std::size_t index, std::size_t stride)
        : shard(clock, static_cast<ClientId>(index + 1),
                static_cast<SimJobId>(index + 1),
                static_cast<std::uint64_t>(stride)) {}
  };

  std::vector<std::unique_ptr<Slot>> shards_;
  mutable std::mutex routeMutex_;
  std::map<std::string, std::size_t> contextShard_;
  std::size_t nextShard_ = 0;
};

}  // namespace simfs::dv
