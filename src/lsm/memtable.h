#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "lsm/arena.h"
#include "lsm/format.h"

/// \file memtable.h
/// In-memory write buffer: a skiplist ordered by user key.
///
/// Matches the paper's RocksDB configuration of fixed-size memtables that
/// are flushed to immutable SSTs. A single `MemTable` is unsynchronized;
/// concurrent writers go through `ShardedMemTable`, which hash-partitions
/// the keyspace over independent skiplists with one mutex each, so writers
/// on different shards append without colliding (DESIGN.md §14).
///
/// Nodes and their key/value bytes live in an `Arena`: insertion is a
/// pointer bump instead of per-node `new` + two string allocations, and
/// dropping a flushed memtable hands its 64 KiB blocks back to the
/// process-wide `BlockPool`, for the next memtable of any DB, instead of
/// walking every node. Overwritten values leave their old bytes in the
/// arena until the flush, so the flush trigger reads `ArenaBytes` as well
/// as the live `ApproximateBytes`: a hot-key workload that only overwrites
/// still fills, freezes and flushes its memtable.

namespace rhino::lsm {

/// Skiplist-based sorted write buffer.
class MemTable {
 public:
  MemTable() : head_(NewNode("", kMaxHeight)) {}

  /// Inserts or overwrites `key`. `type` distinguishes values from
  /// tombstones. On overwrite the highest sequence number wins, so two
  /// writers racing on the same key converge on the later commit
  /// regardless of which one reaches the shard lock first.
  void Add(std::string_view key, uint64_t seq, ValueType type,
           std::string_view value);

  /// Point lookup. Returns true and fills `*entry` when the key is present
  /// (including as a tombstone).
  bool Get(std::string_view key, Entry* entry) const;

  /// Approximate logical footprint of stored entries (live keys + values),
  /// used to decide when to flush.
  uint64_t ApproximateBytes() const { return bytes_; }
  /// Arena bytes handed out: nodes, keys and every value ever added,
  /// overwritten garbage included. The other flush trigger.
  uint64_t ArenaBytes() const { return arena_.AllocatedBytes(); }
  uint64_t NumEntries() const { return entries_; }
  bool Empty() const { return entries_ == 0; }

 private:
  static constexpr int kMaxHeight = 12;

  /// Arena-resident node: key/value views point at arena-copied bytes, so
  /// the node itself is trivially destructible and the whole skiplist is
  /// freed by dropping the arena.
  struct Node {
    std::string_view key;
    std::string_view value;
    uint64_t seq = 0;
    ValueType type = ValueType::kValue;
    int height = 1;
    Node* next[1];  // flexible tower; allocated with extra slots
  };

 public:
  /// Forward iterator over entries in key order, from the first key >=
  /// `begin` (every entry when `begin` is empty): the start is one skiplist
  /// descent, not a walk from the head. The views remain valid for the
  /// memtable's lifetime (arena bytes are never reclaimed early).
  class Iterator {
   public:
    Iterator(const MemTable* table, std::string_view begin)
        : node_(table->FindGreaterOrEqual(begin, nullptr)) {}
    bool Valid() const { return node_ != nullptr; }
    void Next() { node_ = node_->next[0]; }
    std::string_view key() const { return node_->key; }
    uint64_t seq() const { return node_->seq; }
    ValueType type() const { return node_->type; }
    std::string_view value() const { return node_->value; }

   private:
    const Node* node_;
  };

  Iterator NewIterator(std::string_view begin = "") const {
    return Iterator(this, begin);
  }

 private:
  Node* NewNode(std::string_view key, int height);
  int RandomHeight();
  /// First node with key >= `key`; fills `prev` per level when non-null.
  Node* FindGreaterOrEqual(std::string_view key, Node** prev) const;

  Arena arena_;
  Node* head_;
  int max_height_ = 1;
  Random rng_{0xdecafbadull};
  uint64_t bytes_ = 0;
  uint64_t entries_ = 0;

 public:
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;
};

/// Hash-sharded write buffer: N independent skiplists, each behind its own
/// mutex, with keys routed by `std::hash` of the user key. Concurrent
/// writers only contend when they hit the same shard; size accounting
/// (live bytes and arena bytes) is kept in per-shard atomics so the
/// flush-threshold check never takes a lock. All versions of one key land
/// in one shard, so merging the shards' sorted runs yields exactly what a
/// single skiplist would hold.
///
/// Once frozen (no further Add calls, publication ordered through the DB's
/// rotation lock) a ShardedMemTable may be read without the shard locks —
/// that is how background flushes stream it into an SST.
class ShardedMemTable {
 public:
  explicit ShardedMemTable(size_t num_shards);

  void Add(std::string_view key, uint64_t seq, ValueType type,
           std::string_view value);
  bool Get(std::string_view key, Entry* entry) const;

  /// Approximate logical footprint; a lock-free sum of per-shard atomics.
  uint64_t ApproximateBytes() const;
  /// Arena bytes of all shards, overwritten garbage included; lock-free
  /// like ApproximateBytes.
  uint64_t ArenaBytes() const;
  uint64_t NumEntries() const;
  bool Empty() const { return NumEntries() == 0; }

  /// Copies entries in `[begin, end)` (empty `end` = unbounded) out of all
  /// shards, globally sorted by key. Each shard is entered at `begin`, so
  /// the cost is the range, not the memtable. Takes each shard lock
  /// briefly, so it is safe against concurrent writers; the result is a
  /// point-in-time snapshot per shard.
  std::vector<Entry> SortedSnapshot(std::string_view begin = "",
                                    std::string_view end = "") const;

  /// Merging cursor over all shards in key order, without copies or locks.
  /// Only valid on a frozen table (no concurrent Add).
  class MergingIterator {
   public:
    explicit MergingIterator(const ShardedMemTable* table);
    bool Valid() const { return cur_ >= 0; }
    void Next();
    std::string_view key() const { return its_[size_t(cur_)].key(); }
    uint64_t seq() const { return its_[size_t(cur_)].seq(); }
    ValueType type() const { return its_[size_t(cur_)].type(); }
    std::string_view value() const { return its_[size_t(cur_)].value(); }

   private:
    void FindMin();
    std::vector<MemTable::Iterator> its_;
    int cur_ = -1;
  };

  MergingIterator NewMergingIterator() const { return MergingIterator(this); }

  ShardedMemTable(const ShardedMemTable&) = delete;
  ShardedMemTable& operator=(const ShardedMemTable&) = delete;

 private:
  friend class MergingIterator;

  struct Shard {
    mutable std::mutex mu;
    MemTable table;
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> arena{0};
    std::atomic<uint64_t> entries{0};
  };

  size_t ShardFor(std::string_view key) const {
    return std::hash<std::string_view>{}(key) % shards_.size();
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rhino::lsm
