#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/observability.h"

/// \file block_cache.h
/// Shared, byte-budgeted LRU cache of SSTable data blocks.
///
/// One simulation opens hundreds of DBs (one per stateful operator
/// instance); a single process-wide cache bounds the total memory spent on
/// hot blocks regardless of how many stores exist, the same role RocksDB's
/// shared block cache plays in the paper's deployment. Blocks are keyed by
/// (table id, block index), where table ids are unique per open
/// SSTableReader — a reader erases its blocks on close so a recycled id
/// can never alias stale bytes.
///
/// Thread-safe: the cache is shared by every DB in the process, and those
/// DBs are driven from different threads (a node's handlers and
/// replicator, the LSM's background work, several in-process nodes).
/// One internal mutex covers the LRU list, the map, and the stats — the
/// O(1) critical sections are short enough that sharding has not been
/// needed. Table ids come from an atomic counter.

namespace rhino::lsm {

class BlockCache {
 public:
  using BlockHandle = std::shared_ptr<const std::string>;

  explicit BlockCache(uint64_t capacity_bytes);

  /// Returns the cached block or nullptr, promoting hits to MRU.
  BlockHandle Lookup(uint64_t table_id, uint32_t block_idx);

  /// Inserts a block, evicting LRU entries until the budget holds. Blocks
  /// larger than the whole budget are not cached (the caller still owns
  /// the returned handle and can use it for the current operation).
  void Insert(uint64_t table_id, uint32_t block_idx, BlockHandle block);

  /// Drops every block of `table_id` (called when a reader closes).
  void EraseTable(uint64_t table_id);

  /// Drops everything (benchmarks use this to measure cold reads).
  void Clear();

  /// Allocates a process-unique id for a new reader.
  uint64_t NewTableId() {
    return next_table_id_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t usage_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return usage_;
  }
  /// High-water mark of usage_bytes() since construction/ResetStats.
  uint64_t peak_usage_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_usage_;
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }
  size_t num_blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  void ResetStats();

  /// Re-binds the hit/miss/eviction counters and usage gauge onto `o`
  /// (defaults to the process-wide context at construction).
  void SetObservability(obs::Observability* o);

  /// Process-wide cache used by DBs whose Options carry no explicit cache
  /// (64 MiB).
  static const std::shared_ptr<BlockCache>& Default();

 private:
  struct Key {
    uint64_t table_id;
    uint32_t block_idx;
    bool operator==(const Key& o) const {
      return table_id == o.table_id && block_idx == o.block_idx;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.table_id * 0x9e3779b97f4a7c15ull ^
                                   k.block_idx);
    }
  };
  struct Entry {
    BlockHandle block;
    std::list<Key>::iterator lru_pos;
  };

  /// Requires mu_ held.
  void EvictUntil(uint64_t target_bytes);

  uint64_t capacity_;
  mutable std::mutex mu_;
  uint64_t usage_ = 0;
  uint64_t peak_usage_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::atomic<uint64_t> next_table_id_{1};
  std::list<Key> lru_;  // front = MRU, back = LRU
  std::unordered_map<Key, Entry, KeyHash> entries_;

  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* misses_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;
  obs::Gauge* usage_metric_ = nullptr;
};

}  // namespace rhino::lsm
