#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "lsm/block_cache.h"
#include "lsm/bloom.h"
#include "lsm/env.h"
#include "lsm/format.h"

/// \file sstable.h
/// Immutable sorted string table.
///
/// Layout (little endian):
///
///     data block*   entries: varint klen | key | varint seq | u8 type
///                            | varint vlen | value
///     index block   per data block: varint last_key_len | last_key
///                            | varint offset | varint size
///     bloom block   serialized BloomFilter over user keys
///     footer        u64 index_off | u64 index_len | u64 bloom_off
///                   | u64 bloom_len | u64 num_entries | u64 magic
///
/// Builds are streaming: given a `WritableFile` sink, the builder appends
/// each data block as it completes and never holds more than one block
/// (plus the index under construction) in memory — the write-side mirror
/// of the reader's block-granular bound. Writers stream into a temp name
/// and rename on finish, so the immutable-SST model that makes checkpoint
/// hard-linking safe is preserved. A builder without a sink accumulates
/// the whole table in memory (tests, tools).
///
/// Readers are block-granular: Open() fetches only the footer, index, and
/// bloom filter; data blocks are read positionally on demand and cached in
/// a shared byte-budgeted BlockCache. A reader therefore costs O(index)
/// memory, not O(file), and a full-table scan costs O(one block) resident
/// bytes beyond the cache budget.

namespace rhino::lsm {

constexpr uint64_t kSstMagic = 0x52484e4f53535431ull;  // "RHNOSST1"

/// Accumulates sorted entries and serializes an SSTable, streaming
/// finished blocks into a `WritableFile` when one is attached.
class SSTableBuilder {
 public:
  /// In-memory builder: Finish() returns the whole file as a string.
  explicit SSTableBuilder(size_t block_size = 4096, int bloom_bits_per_key = 10)
      : block_size_(block_size), bloom_(bloom_bits_per_key) {}

  /// Streaming builder: completed data blocks are appended to `sink` as
  /// they fill, bounding the builder's resident memory at ~one block plus
  /// the index; finalize with FinishStream(). `sink` must outlive the
  /// builder and is not closed by it.
  SSTableBuilder(WritableFile* sink, size_t block_size, int bloom_bits_per_key)
      : block_size_(block_size), bloom_(bloom_bits_per_key), sink_(sink) {}

  /// Adds an entry; keys must arrive in strictly increasing order.
  void Add(std::string_view key, uint64_t seq, ValueType type,
           std::string_view value);

  /// Finalizes and returns the file contents (in-memory builders only).
  /// The builder is consumed.
  std::string Finish();

  /// Finalizes a streaming build: flushes the last data block, appends
  /// index + bloom + footer to the sink, and flushes it. The builder is
  /// consumed; the total file size is in file_size().
  Status FinishStream();

  uint64_t num_entries() const { return num_entries_; }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  /// Bytes of data blocks written so far (used to split compaction output).
  uint64_t data_bytes() const { return data_offset_ + block_.size(); }
  /// Total file size after Finish/FinishStream.
  uint64_t file_size() const { return file_size_; }
  /// High-water mark of bytes buffered in the builder (current block plus,
  /// at finish, the serialized index/bloom tail) — the write-side memory
  /// bound the streaming path guarantees.
  uint64_t peak_buffer_bytes() const { return peak_buffer_bytes_; }
  bool empty() const { return num_entries_ == 0; }

 private:
  void FlushBlock();
  /// Serializes index + bloom + footer (everything after the data blocks).
  std::string EncodeTail();

  size_t block_size_;
  BloomFilterBuilder bloom_;
  WritableFile* sink_ = nullptr;  // null: in-memory build into file_
  Status sink_status_;
  std::string file_;   // completed data blocks (in-memory mode only)
  std::string block_;  // block under construction
  uint64_t data_offset_ = 0;  // bytes of completed data blocks
  uint64_t file_size_ = 0;
  uint64_t peak_buffer_bytes_ = 0;
  struct IndexEntry {
    std::string last_key;
    uint64_t offset;
    uint64_t size;
  };
  std::vector<IndexEntry> index_;
  std::string smallest_;
  std::string largest_;
  uint64_t num_entries_ = 0;
};

/// Block-granular SSTable reader.
///
/// The RandomAccessFile pins the underlying content (an open fd / shared
/// buffer), so a reader — and any iterator holding one — keeps working
/// after the file name is deleted by a compaction. When a `cache` is
/// given, data blocks are shared through it under a reader-unique id and
/// erased again when the reader closes.
class SSTableReader {
 public:
  /// Physical-read accounting shared by every reader of one DB: bytes and
  /// blocks actually fetched from the file (block-cache misses), the "real
  /// reads" numerator of the store's read-amplification ratio. The owner
  /// (DB) must outlive the readers it hands the pointer to. `bytes_metric`
  /// mirrors the byte count into the obs registry when bound.
  struct ReadStats {
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> blocks_read{0};
    std::atomic<obs::Counter*> bytes_metric{nullptr};
  };

  /// Opens via positional reads: footer + index + bloom eagerly, data
  /// blocks on demand through `cache` (nullptr disables caching). When
  /// `stats` is non-null, every physical block fetch is charged to it.
  static Result<std::shared_ptr<SSTableReader>> Open(
      std::unique_ptr<RandomAccessFile> file, BlockCache* cache,
      ReadStats* stats = nullptr);

  /// Opens over an in-memory buffer without a cache (tests, tools).
  static Result<std::shared_ptr<SSTableReader>> Open(
      std::shared_ptr<const std::string> contents);

  ~SSTableReader();
  SSTableReader(const SSTableReader&) = delete;
  SSTableReader& operator=(const SSTableReader&) = delete;

  /// Point lookup through bloom filter + block binary search; reads at
  /// most one data block. Returns NotFound when absent; tombstones are
  /// returned as entries with `type == kDeletion` (the DB layer interprets
  /// them).
  Status Get(std::string_view key, Entry* entry) const;

  uint64_t num_entries() const { return num_entries_; }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  uint64_t file_size() const { return file_->Size(); }
  size_t num_blocks() const { return index_.size(); }

  /// Forward iterator over entries in key order. Holds one data block at a
  /// time; resident memory is O(block), not O(file).
  class Iterator {
   public:
    /// Positioned at the first entry with key >= `begin` (the first entry
    /// when `begin` is empty): the first block read is the one holding it.
    Iterator(const SSTableReader* table, std::string_view begin);
    bool Valid() const { return valid_; }
    void Next();
    const std::string& key() const { return entry_.key; }
    const Entry& entry() const { return entry_; }

   private:
    /// Loads block `block_idx_` and decodes the entry at `pos_`, walking
    /// into following blocks when the current one is exhausted.
    void ParseCurrent();

    const SSTableReader* table_;
    size_t block_idx_ = 0;
    BlockCache::BlockHandle block_;  // pinned current block
    size_t pos_ = 0;                 // offset within block_
    Entry entry_;
    bool valid_ = false;
  };

  Iterator NewIterator(std::string_view begin = "") const {
    return Iterator(this, begin);
  }

 private:
  SSTableReader() = default;

  struct IndexEntry {
    std::string last_key;
    uint64_t offset;
    uint64_t size;
  };

  /// Fetches data block `idx`, via the cache when one is attached.
  Result<BlockCache::BlockHandle> ReadBlock(size_t idx) const;

  std::unique_ptr<RandomAccessFile> file_;
  BlockCache* cache_ = nullptr;
  ReadStats* stats_ = nullptr;
  uint64_t cache_id_ = 0;
  std::vector<IndexEntry> index_;
  std::string bloom_;
  uint64_t num_entries_ = 0;
  std::string smallest_;
  std::string largest_;
};

}  // namespace rhino::lsm
