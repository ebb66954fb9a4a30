#include "lsm/block_cache.h"

#include <algorithm>

namespace rhino::lsm {

BlockCache::BlockCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {
  SetObservability(obs::Observability::Default());
}

void BlockCache::SetObservability(obs::Observability* o) {
  obs::MetricsRegistry& m = o->metrics();
  hits_metric_ = m.GetCounter("rhino_lsm_block_cache_hits_total");
  misses_metric_ = m.GetCounter("rhino_lsm_block_cache_misses_total");
  evictions_metric_ = m.GetCounter("rhino_lsm_block_cache_evictions_total");
  usage_metric_ = m.GetGauge("rhino_lsm_block_cache_bytes");
}

BlockCache::BlockHandle BlockCache::Lookup(uint64_t table_id,
                                           uint32_t block_idx) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key{table_id, block_idx});
  if (it == entries_.end()) {
    ++misses_;
    misses_metric_->Increment();
    return nullptr;
  }
  ++hits_;
  hits_metric_->Increment();
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.block;
}

void BlockCache::Insert(uint64_t table_id, uint32_t block_idx,
                        BlockHandle block) {
  uint64_t bytes = block->size();
  if (bytes > capacity_) return;  // would evict everything for one block
  std::lock_guard<std::mutex> lock(mu_);
  Key key{table_id, block_idx};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    usage_ -= it->second.block->size();
    it->second.block = std::move(block);
    usage_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  } else {
    EvictUntil(capacity_ - bytes);
    lru_.push_front(key);
    entries_[key] = Entry{std::move(block), lru_.begin()};
    usage_ += bytes;
  }
  peak_usage_ = std::max(peak_usage_, usage_);
  usage_metric_->Set(static_cast<double>(usage_));
}

void BlockCache::EvictUntil(uint64_t target_bytes) {
  while (usage_ > target_bytes && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    usage_ -= it->second.block->size();
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
    evictions_metric_->Increment();
  }
}

void BlockCache::EraseTable(uint64_t table_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->table_id != table_id) {
      ++it;
      continue;
    }
    auto entry = entries_.find(*it);
    usage_ -= entry->second.block->size();
    entries_.erase(entry);
    it = lru_.erase(it);
  }
  usage_metric_->Set(static_cast<double>(usage_));
}

void BlockCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  entries_.clear();
  usage_ = 0;
  usage_metric_->Set(0);
}

void BlockCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_ = misses_ = evictions_ = 0;
  peak_usage_ = usage_;
}

const std::shared_ptr<BlockCache>& BlockCache::Default() {
  static const uint64_t kDefaultCapacityBytes = 64ull * 1024 * 1024;
  static std::shared_ptr<BlockCache> cache =
      std::make_shared<BlockCache>(kDefaultCapacityBytes);
  return cache;
}

}  // namespace rhino::lsm
