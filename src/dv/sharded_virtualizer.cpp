#include "dv/sharded_virtualizer.hpp"

namespace simfs::dv {

ShardedVirtualizer::ShardedVirtualizer(const Clock& clock,
                                       std::size_t numShards) {
  const std::size_t n = std::max<std::size_t>(1, numShards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Slot>(clock, i, n));
  }
}

void ShardedVirtualizer::setLauncher(SimLauncher* launcher) {
  for (auto& slot : shards_) {
    std::lock_guard lock(slot->mutex);
    slot->shard.setLauncher(launcher);
  }
}

void ShardedVirtualizer::setNotifyFn(DvShard::NotifyFn fn) {
  for (auto& slot : shards_) {
    std::lock_guard lock(slot->mutex);
    slot->shard.setNotifyFn(fn);
  }
}

void ShardedVirtualizer::setEvictFn(DvShard::EvictFn fn) {
  for (auto& slot : shards_) {
    std::lock_guard lock(slot->mutex);
    slot->shard.setEvictFn(fn);
  }
}

void ShardedVirtualizer::setProducedFn(DvShard::ProducedFn fn) {
  for (auto& slot : shards_) {
    std::lock_guard lock(slot->mutex);
    slot->shard.setProducedFn(fn);
  }
}

Status ShardedVirtualizer::registerContext(
    std::unique_ptr<simmodel::SimulationDriver> driver) {
  SIMFS_CHECK(driver != nullptr);
  const std::string name = driver->config().name;
  std::size_t idx = 0;
  {
    std::lock_guard lock(routeMutex_);
    if (contextShard_.count(name) > 0) {
      return errAlreadyExists("dv: context exists: " + name);
    }
    idx = nextShard_;
    nextShard_ = (nextShard_ + 1) % shards_.size();
    contextShard_.emplace(name, idx);
  }
  std::lock_guard lock(mutexOf(idx));
  const Status st = shard(idx).registerContext(std::move(driver));
  if (!st.isOk()) {
    std::lock_guard routeLock(routeMutex_);
    contextShard_.erase(name);
  }
  return st;
}

Status ShardedVirtualizer::seedAvailableStep(const std::string& context,
                                             StepIndex step) {
  const auto idx = shardOfContext(context);
  if (!idx) return errNotFound("dv: no context: " + context);
  std::lock_guard lock(mutexOf(*idx));
  return shard(*idx).seedAvailableStep(context, step);
}

Status ShardedVirtualizer::setChecksumMap(const std::string& context,
                                          simmodel::ChecksumMap map) {
  const auto idx = shardOfContext(context);
  if (!idx) return errNotFound("dv: no context: " + context);
  std::lock_guard lock(mutexOf(*idx));
  return shard(*idx).setChecksumMap(context, std::move(map));
}

std::optional<std::size_t> ShardedVirtualizer::shardOfContext(
    const std::string& context) const {
  std::lock_guard lock(routeMutex_);
  const auto it = contextShard_.find(context);
  if (it == contextShard_.end()) return std::nullopt;
  return it->second;
}

DvStats ShardedVirtualizer::stats() const {
  DvStats total;
  for (const auto& slot : shards_) {
    std::lock_guard lock(slot->mutex);
    total += slot->shard.stats();
  }
  return total;
}

bool ShardedVirtualizer::isAvailable(const std::string& context,
                                     StepIndex step) const {
  const auto idx = shardOfContext(context);
  if (!idx) return false;
  std::lock_guard lock(mutexOf(*idx));
  return shard(*idx).isAvailable(context, step);
}

int ShardedVirtualizer::runningJobs(const std::string& context) const {
  const auto idx = shardOfContext(context);
  if (!idx) return 0;
  std::lock_guard lock(mutexOf(*idx));
  return shard(*idx).runningJobs(context);
}

std::optional<simmodel::ContextConfig> ShardedVirtualizer::contextConfig(
    const std::string& context) const {
  const auto idx = shardOfContext(context);
  if (!idx) return std::nullopt;
  std::lock_guard lock(mutexOf(*idx));
  const auto* cfg = shard(*idx).contextConfig(context);
  if (cfg == nullptr) return std::nullopt;
  return *cfg;  // copied out so the caller never outlives the shard lock
}

std::vector<std::string> ShardedVirtualizer::contextNames() const {
  // Shard-local name lists are concatenated in shard order; within a
  // shard the names are sorted (std::map). Daemon consumers (kStatusAck)
  // only require the full set.
  std::vector<std::string> out;
  for (const auto& slot : shards_) {
    std::lock_guard lock(slot->mutex);
    auto names = slot->shard.contextNames();
    out.insert(out.end(), names.begin(), names.end());
  }
  return out;
}

}  // namespace simfs::dv
