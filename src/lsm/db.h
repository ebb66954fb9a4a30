#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "lsm/block_cache.h"
#include "lsm/env.h"
#include "obs/observability.h"
#include "lsm/format.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"
#include "lsm/version.h"
#include "lsm/write_batch.h"

/// \file db.h
/// Embedded LSM key-value store: the from-scratch RocksDB substitute that
/// backs every stateful operator instance (paper §3.4, R3).
///
/// Design mirrors the RocksDB configuration used in the paper's evaluation:
/// fixed-size memtables flushed to immutable SSTs, bloom filters for point
/// lookups, leveled compaction, and **checkpoints as hard links** of the
/// live SSTs — which is what makes Rhino's incremental checkpoints cheap
/// (only files new since the previous checkpoint are ever transferred).
///
/// The read path is streaming and block-granular: point lookups touch one
/// data block through a shared byte-budgeted BlockCache, range scans merge
/// memtable + per-table block iterators lazily through a k-way heap, and
/// open-table handles live in a capped per-DB LRU. Scans of arbitrarily
/// large state are O(block cache) resident memory.
///
/// The write path is streaming and batched to match: the WAL is one open
/// buffered append handle receiving framed (length + checksum) commit
/// records — a WriteBatch group-commits N mutations as a single append +
/// flush; the memtable allocates nodes from an arena whose blocks go back
/// to a process-wide pool at flush; table builds stream finished blocks through a WritableFile so
/// flush/compaction buffer ~one block, not the whole table; and the
/// MANIFEST is an appended edit log rotated into fresh snapshots instead
/// of an O(tree) rewrite per flush.
///
/// Concurrency (DESIGN.md §14): there is no store-wide lock. Writers
/// commit under a shared rotation lock plus one memtable-shard mutex;
/// readers snapshot {active memtable, frozen memtable, pinned table
/// handles} under brief locks and then traverse lock-free; flushes and
/// compactions run serialized on a maintenance path that can be moved off
/// the caller's thread entirely (`Options::background_maintenance`).

namespace rhino::lsm {

/// Tuning knobs. Defaults are scaled-down versions of the paper's RocksDB
/// settings (64 MiB memtables / 64 MiB table blocks on NVMe) so tests
/// exercise flush/compaction quickly.
struct Options {
  uint64_t memtable_bytes = 4 * 1024 * 1024;
  size_t block_bytes = 4096;
  int bloom_bits_per_key = 10;
  int l0_compaction_trigger = 4;
  uint64_t level_base_bytes = 16 * 1024 * 1024;
  double level_multiplier = 10.0;
  uint64_t target_file_bytes = 2 * 1024 * 1024;
  int num_levels = 7;
  /// When false, compaction only runs via CompactRange() (tests use this
  /// to pin the tree shape).
  bool auto_compact = true;
  /// Write-ahead logging: every commit (single mutation or WriteBatch) is
  /// appended to the WAL as one framed record before it is acknowledged,
  /// so an unflushed memtable survives a crash/reopen.
  bool enable_wal = true;
  /// MANIFEST edits appended before the log is rotated into a fresh
  /// snapshot record (bounds recovery replay and file growth).
  uint64_t manifest_rotate_edits = 64;
  /// Data-block cache shared across DBs. When null the process-wide
  /// BlockCache::Default() (64 MiB) is used — one budget across the
  /// hundreds of DBs a simulation opens. A custom budget is an explicit
  /// cache.
  std::shared_ptr<BlockCache> block_cache;
  /// Cap on simultaneously open SSTable handles (footer + index + bloom
  /// each); least-recently-used handles are closed beyond it.
  size_t max_open_tables = 64;
  /// Memtable shard count: concurrent writers only contend when their keys
  /// hash to the same shard. 1 degenerates to a single skiplist; shard
  /// count does not change flushed SST bytes (merge order is by key).
  size_t memtable_shards = 8;
  /// When true, full memtables are frozen and flushed — and compactions
  /// run — on one worker thread the DB starts lazily, instead of on the
  /// committing caller's thread; a writer only stalls when a second
  /// memtable fills before the previous flush finishes. Failures surface
  /// as the Status of the next write (and of
  /// Flush/CompactRange/WaitForBackgroundWork). Off by default: inline
  /// maintenance keeps the simulator deterministic.
  bool background_maintenance = false;
};

/// One file captured by a checkpoint.
struct CheckpointFile {
  std::string name;
  uint64_t size = 0;
};

/// Result of CreateCheckpoint: where it lives and what it contains.
struct CheckpointInfo {
  std::string directory;
  std::vector<CheckpointFile> files;
  uint64_t total_bytes = 0;
};

/// Embedded LSM store, safe for concurrent use from multiple threads.
///
/// Lock hierarchy (acquire downward only; each is independent of the ones
/// below unless noted):
///
///   rotate_mu_   shared by every commit across {WAL append, memtable
///                apply}; exclusive to freeze/swap the active memtable —
///                so no acknowledged commit can straddle a rotation and
///                lose its WAL record.
///   mem_mu_      the active/frozen memtable pointers and the writer-stall
///                condition variable.
///   wal_mu_      the WAL append handle.
///   versions_mu_ the version set (levels), open-table LRU, and MANIFEST
///                appends. Readers collect file metadata AND open their
///                pinned table handles under it, so a concurrent
///                compaction can never delete a file a reader is about to
///                open; pinned handles keep content readable after the
///                name is gone.
///   maintenance_mu_  serializes flush/compaction bodies (one at a time),
///                whether inline or on the background worker.
///   (leaf) per-shard memtable mutexes, BlockCache's internal lock,
///                BlockPool's lock (a table dropped under mem_mu_ parks its
///                blocks there).
class DB {
 public:
  /// Opens (creating or recovering) a DB at `path`.
  static Result<std::unique_ptr<DB>> Open(Env* env, std::string path,
                                          Options options = Options());

  /// Materializes a checkpoint directory as a new DB at `path` by hard-
  /// linking its files, then opens it. This is the "state loading" step of
  /// a recovery (Table 1): only metadata work, no byte copies.
  static Result<std::unique_ptr<DB>> OpenFromCheckpoint(
      Env* env, const std::string& checkpoint_dir, std::string path,
      Options options = Options());

  /// Blocks until in-flight background work finishes, then joins the
  /// worker. Destroying a DB while other threads are still calling into it
  /// is undefined behavior (callers own that ordering), but a compaction
  /// in flight on the background worker is waited for cleanly.
  ~DB();

  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);

  /// Group-commits a batch atomically: one framed WAL append (and one
  /// buffer flush) covers every entry, then the whole batch is applied to
  /// the memtable over a contiguous sequence range. After a crash either
  /// the entire batch is recovered or none of it is; a non-OK return
  /// means no entry reached the memtable (a flush the commit triggers
  /// and that fails is returned by the next write instead).
  Status Write(const WriteBatch& batch);

  /// Point lookup; NotFound when absent or deleted. Reads at most one
  /// data block per consulted table (bloom filters skip most tables).
  Status Get(std::string_view key, std::string* value);

  /// Flushes the memtable to a new L0 table (no-op when empty). In
  /// background mode this also waits for the resulting flush/compaction
  /// work to complete, so the call is synchronous in both modes.
  Status Flush();

  /// Fully compacts the tree into the deepest non-empty level. Also the
  /// manual trigger for tests running with background maintenance: it
  /// flushes, lets in-flight background work finish, and compacts inline.
  Status CompactRange();

  /// Blocks until no background maintenance is pending or running, then
  /// returns the sticky background error (OK when none). Immediate in
  /// inline mode.
  Status WaitForBackgroundWork();

  /// Creates a point-in-time checkpoint at `dir`: flush + hard links +
  /// manifest. The returned file list (names + sizes) is what Rhino's
  /// replication protocol ships around.
  Result<CheckpointInfo> CreateCheckpoint(const std::string& dir);

  /// Bytes across memtables + all table files.
  uint64_t ApproximateSize() const;
  /// Arena bytes of the active and frozen memtables, overwritten garbage
  /// included: what the write buffer pins in memory.
  uint64_t MemTableArenaBytes() const;
  uint64_t NumTableFiles() const {
    std::lock_guard<std::mutex> lock(versions_mu_);
    return static_cast<uint64_t>(versions_.NumFiles());
  }
  int NumLevelFiles(int level) const {
    std::lock_guard<std::mutex> lock(versions_mu_);
    return static_cast<int>(versions_.level(level).size());
  }
  /// Open SSTable handles currently held by the table LRU (bounded by
  /// Options::max_open_tables).
  size_t OpenTableCount() const {
    std::lock_guard<std::mutex> lock(versions_mu_);
    return table_cache_.size();
  }
  const std::string& path() const { return path_; }

  /// Streaming merging iterator over a snapshot of the live view
  /// (memtables + all levels): a heap-based k-way merge over per-source
  /// block iterators that yields each visible key once in order, dropping
  /// tombstones and shadowed versions on the fly. Resident memory is the
  /// (bounded) memtable snapshot plus one block per table — independent of
  /// the size of the scanned range. The snapshot is stable: later Put /
  /// Flush / CompactRange calls do not change what it yields.
  class Iterator {
   public:
    Iterator();
    ~Iterator();
    Iterator(Iterator&&) noexcept;
    Iterator& operator=(Iterator&&) noexcept;

    bool Valid() const;
    void Next();
    const std::string& key() const;
    const std::string& value() const;

   private:
    friend class DB;
    struct Rep;
    std::unique_ptr<Rep> rep_;
  };

  /// Snapshot iterator over `[begin, end)`; empty `end` means unbounded.
  Result<Iterator> NewIterator(std::string_view begin = "",
                               std::string_view end = "");

  /// Number of flushes and compactions performed (for tests/benchmarks).
  uint64_t flush_count() const { return Load(flush_count_); }
  uint64_t compaction_count() const { return Load(compaction_count_); }
  /// Entries recovered from the WAL at the last Open (diagnostics).
  uint64_t wal_entries_recovered() const { return Load(wal_recovered_); }
  /// Commits applied: one per `Put`, `Delete` or non-empty `Write` that
  /// returned OK, counted whether or not the WAL is on.
  uint64_t commits() const { return Load(commits_); }
  /// WAL write-path diagnostics for this DB: framed appends (== commits
  /// while the WAL is on), entries covered by them, and physical bytes
  /// written. One batched commit of N entries costs 1 append; N singleton
  /// commits cost N.
  uint64_t wal_appends() const { return Load(wal_appends_); }
  uint64_t wal_records() const { return Load(wal_records_); }
  uint64_t wal_bytes_written() const { return Load(wal_bytes_); }
  /// High-water mark of bytes buffered by any table build (flush or
  /// compaction output) — the streaming write path keeps this at ~one
  /// block + tail regardless of table size.
  uint64_t write_peak_buffer_bytes() const {
    return Load(write_peak_buffer_bytes_);
  }
  /// MANIFEST snapshot rewrites (at open and on edit-log rotation).
  uint64_t manifest_rotations() const { return Load(manifest_rotations_); }

  // ---- Amplification accounting (per DB; relaxed atomics) ----
  /// Logical payload bytes (key + value) accepted by Put/Delete/Write.
  uint64_t user_bytes_written() const { return Load(user_bytes_written_); }
  /// Value bytes returned to callers by successful Gets.
  uint64_t user_bytes_read() const { return Load(user_bytes_read_); }
  /// SST bytes written by memtable flushes.
  uint64_t flush_bytes_written() const { return Load(flush_bytes_); }
  /// SST bytes consumed / produced by compactions.
  uint64_t compaction_bytes_in() const { return Load(compaction_bytes_in_); }
  uint64_t compaction_bytes_out() const { return Load(compaction_bytes_out_); }
  /// Physical data-block bytes fetched from table files (cache misses).
  uint64_t sst_bytes_read() const {
    return read_stats_.bytes_read.load(std::memory_order_relaxed);
  }
  uint64_t sst_blocks_read() const {
    return read_stats_.blocks_read.load(std::memory_order_relaxed);
  }
  /// Time writers spent stalled waiting for a memtable flush to retire the
  /// frozen buffer (background mode only), and how often they stalled.
  uint64_t stall_micros() const { return Load(stall_micros_); }
  uint64_t write_stalls() const { return Load(write_stalls_); }
  /// Write amplification: physical bytes persisted (WAL + flush +
  /// compaction output) per logical byte accepted. 0 when nothing written.
  double write_amplification() const {
    uint64_t user = user_bytes_written();
    if (user == 0) return 0.0;
    return static_cast<double>(wal_bytes_written() + flush_bytes_written() +
                               compaction_bytes_out()) /
           static_cast<double>(user);
  }
  /// Read amplification: physical block bytes fetched per logical byte
  /// returned by Gets. 0 when nothing read.
  double read_amplification() const {
    uint64_t user = user_bytes_read();
    if (user == 0) return 0.0;
    return static_cast<double>(sst_bytes_read()) / static_cast<double>(user);
  }

  /// The shared data-block cache this DB reads through.
  BlockCache* block_cache() const { return block_cache_.get(); }

  /// Installs the observability context and re-binds the cached metric
  /// handles (defaults to the process-wide one; counters are store-wide,
  /// not per-DB — one simulation opens hundreds of DBs). Call before the
  /// DB is shared across threads: rebinding is not synchronized against
  /// concurrent operations.
  void SetObservability(obs::Observability* o) {
    BindMetrics(o);
    block_cache_->SetObservability(o);
  }

 private:
  DB(Env* env, std::string path, Options options)
      : env_(env),
        path_(std::move(path)),
        options_(std::move(options)),
        block_cache_(options_.block_cache ? options_.block_cache
                                          : BlockCache::Default()),
        mem_(std::make_shared<ShardedMemTable>(options_.memtable_shards)),
        versions_(options_.num_levels) {
    BindMetrics(obs::Observability::Default());
  }

  void BindMetrics(obs::Observability* o);

  static uint64_t Load(const std::atomic<uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  }

  std::string FilePath(const std::string& name) const { return path_ + "/" + name; }

  /// Rebuilds the MANIFEST log from versions_ (one snapshot record,
  /// written atomically via temp + rename) and reopens the append handle.
  /// Requires versions_mu_.
  Status RotateManifestLocked();
  /// Frames and appends one VersionEdit; rotates once enough accumulate.
  /// Requires versions_mu_.
  Status AppendManifestEditLocked(const VersionEdit& edit);
  /// Replays a MANIFEST log (snapshot record + edits) into versions_
  /// (open-time only, no concurrency yet).
  Status LoadManifest(std::string_view data);
  std::string WalPath() const { return FilePath("WAL"); }
  /// The frozen memtable's log: "WAL" is renamed here when the active
  /// memtable is frozen, and the file is deleted once the flush lands.
  std::string ImmWalPath() const { return FilePath("WAL.imm"); }
  /// Opens the WAL append handle lazily (first commit after a rotation),
  /// cutting the log first when a failed commit left bytes in it.
  /// Requires wal_mu_.
  Status EnsureWalFileLocked();
  /// Appends one framed commit record covering `num_entries` mutations and
  /// flushes the handle (no-op when the WAL is disabled). A failed append
  /// or flush acknowledges nothing and marks the log for a cut. Takes
  /// wal_mu_.
  Status CommitWal(std::string_view payload, uint64_t num_entries);
  /// Cuts the WAL back to `wal_acked_`, its last acknowledged byte, and
  /// closes the failed handle: a record whose commit failed, in the file
  /// (a torn append) or still in the handle's buffer, is then never
  /// replayed. The cut rewrites the file as fresh content, so the buffer
  /// the closing handle flushes lands in the content it replaced. A failed
  /// cut is the sticky background error: the log cannot be trusted past
  /// it. Runs before anything else reaches the log — the next commit, a
  /// rotation — and when the DB closes. Requires wal_mu_.
  Status CutWalLocked();
  /// Shared Put/Delete/Write tail: WAL commit + memtable apply under the
  /// shared rotation lock, then the flush-threshold check. Non-OK only
  /// when nothing was applied: a failure of the maintenance a landed
  /// commit triggers is recorded as the sticky background error.
  Status CommitEntries(std::string_view payload, uint64_t num_entries);
  /// The flush trigger: `mem`'s live bytes reached `memtable_bytes`, or
  /// its arena, which keeps every overwritten value until the flush,
  /// reached twice that (a hot-key workload grows only the arena).
  bool MemTableFull(const ShardedMemTable& mem) const {
    return mem.ApproximateBytes() >= options_.memtable_bytes ||
           mem.ArenaBytes() >= 2 * options_.memtable_bytes;
  }
  /// Replays surviving logs (WAL.imm first, then WAL) into the memtable at
  /// open. A torn final record (crash mid-append) is detected via the
  /// length+checksum framing and truncated away. When a frozen log
  /// survived (crash mid-flush), both logs are consolidated back into one
  /// fresh "WAL" so the next freeze cannot orphan acknowledged records.
  Status RecoverWal();
  /// Opens a streaming sink for new table `number`, writing to a temp
  /// name so a crash mid-build never leaves a partial table under a name
  /// the MANIFEST could reference.
  Result<std::unique_ptr<WritableFile>> NewTableSink(uint64_t number);
  /// Completes a streamed build: finalizes the builder, closes the sink,
  /// renames temp -> final, and fills `meta` from the builder.
  Status FinishTableSink(uint64_t number, SSTableBuilder* builder,
                         std::unique_ptr<WritableFile> sink,
                         FileMetaData* meta);
  /// Returns an open handle to table `number` through the LRU table cache.
  /// Requires versions_mu_.
  Result<std::shared_ptr<SSTableReader>> OpenTableLocked(uint64_t number);
  /// Drops `number` from the table cache (compaction removed the file).
  /// Requires versions_mu_.
  void EvictTableLocked(uint64_t number);

  // ---- Rotation / maintenance ----
  /// Swaps the active memtable into the frozen slot and rotates the WAL
  /// ("WAL" -> "WAL.imm"), stalling first if a frozen memtable is still
  /// being flushed. Returns whether a freeze happened (false when empty,
  /// or — with `only_if_over` — when a racing writer already rotated).
  Result<bool> FreezeActiveMemTable(bool only_if_over);
  /// Builds an L0 table from `imm`, installs it, deletes WAL.imm, and
  /// retires the frozen slot. Requires maintenance_mu_. Takes the caller's
  /// reference, so a table no reader pins gives its blocks back to the
  /// pool before a stalled writer can freeze the next one.
  Status FlushFrozenMemTable(std::shared_ptr<ShardedMemTable> imm);
  /// Streams `mem` into a new L0 table + manifest edit.
  Status WriteLevel0Table(const ShardedMemTable& mem);
  /// Runs one round of the leveling policy if a level is over its trigger;
  /// `*did_work` reports whether anything was compacted. Requires
  /// maintenance_mu_.
  Status CompactOnce(bool* did_work);
  /// Compacts `level` into `level + 1`. Requires maintenance_mu_.
  Status CompactLevel(int level);
  uint64_t MaxBytesForLevel(int level) const;
  /// Streams `inputs` through a k-way merge into files at `output_level`.
  /// Requires maintenance_mu_; takes versions_mu_ only to pick file
  /// numbers and to install the result.
  Status DoCompaction(const std::vector<std::pair<int, FileMetaData>>& inputs,
                      int output_level);
  /// Inline-mode maintenance: freeze (optional threshold check), flush,
  /// compact to quiescence — on the caller's thread. Requires
  /// maintenance_mu_.
  Status MaintainInline(bool only_if_over);
  /// Requests a background maintenance pass (coalesced while one is
  /// already queued).
  void ScheduleMaintenance();
  /// Background worker body: flush any frozen memtable, then compact until
  /// the leveling policy is satisfied. Errors become the sticky
  /// background error.
  void RunMaintenance();
  void BackgroundThreadLoop();
  void RecordBackgroundError(const Status& s);
  Status BackgroundError() const;

  Env* env_;
  std::string path_;
  Options options_;
  std::shared_ptr<BlockCache> block_cache_;

  /// Commits hold this shared across {WAL append + memtable apply};
  /// FreezeActiveMemTable holds it exclusive across {WAL rotation +
  /// memtable swap}. See the class comment for the full hierarchy.
  std::shared_mutex rotate_mu_;

  /// Guards the memtable pointers and the stall wait. Readers copy the two
  /// shared_ptrs under it and then probe without it.
  mutable std::mutex mem_mu_;
  std::condition_variable mem_cv_;
  std::shared_ptr<ShardedMemTable> mem_;  // active
  std::shared_ptr<ShardedMemTable> imm_;  // frozen, being flushed (or null)

  /// Guards the WAL append handle (created lazily, dropped at rotation)
  /// and the two fields below.
  std::mutex wal_mu_;
  std::unique_ptr<WritableFile> wal_file_;
  /// Size of the WAL as of its last acknowledged record.
  uint64_t wal_acked_ = 0;
  /// A commit failed after its append began: the log may hold bytes past
  /// `wal_acked_`, and the handle may buffer more; CutWalLocked is due.
  bool wal_cut_ = false;

  /// Guards versions_, the open-table LRU, and the MANIFEST log.
  mutable std::mutex versions_mu_;
  VersionSet versions_;
  /// LRU of open table handles: `table_lru_` front is most recent; the
  /// map holds the handle plus its list position. Bounded by
  /// Options::max_open_tables — the fix for the unbounded growth the old
  /// per-DB map exhibited across long compaction histories.
  struct OpenTableEntry {
    std::shared_ptr<SSTableReader> table;
    std::list<uint64_t>::iterator lru_pos;
  };
  std::list<uint64_t> table_lru_;
  std::unordered_map<uint64_t, OpenTableEntry> table_cache_;
  std::unique_ptr<WritableFile> manifest_file_;
  uint64_t manifest_edits_ = 0;  // edits appended since the last snapshot

  /// Serializes flush/compaction bodies regardless of which thread runs
  /// them; never held while blocking on another DB lock's condition.
  std::mutex maintenance_mu_;

  /// Global commit sequence; fetch_add gives each commit a contiguous
  /// range without holding any lock. Mirrored into versions_ at each
  /// manifest edit.
  std::atomic<uint64_t> last_seq_{0};

  std::atomic<bool> shutting_down_{false};

  /// Sticky background failure: checked (cheaply) at the top of every
  /// write, returned by the next one. `has_bg_error_` is the lock-free
  /// fast path; the Status itself lives under bg_error_mu_.
  std::atomic<bool> has_bg_error_{false};
  mutable std::mutex bg_error_mu_;
  Status bg_error_;

  /// Background scheduling state, under `mu`.
  struct BgState {
    std::mutex mu;
    std::condition_variable cv;
    bool pending = false;  // a pass is requested but not yet started
    int inflight = 0;      // passes currently executing
    bool exit = false;     // the worker's signal to return
  };
  BgState bg_;
  std::thread bg_thread_;  // started by the first ScheduleMaintenance

  // ---- Statistics (relaxed atomics; exact totals, unordered) ----
  std::atomic<uint64_t> manifest_rotations_{0};
  std::atomic<uint64_t> flush_count_{0};
  std::atomic<uint64_t> compaction_count_{0};
  std::atomic<uint64_t> wal_recovered_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> wal_appends_{0};
  std::atomic<uint64_t> wal_records_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> write_peak_buffer_bytes_{0};
  std::atomic<uint64_t> user_bytes_written_{0};
  std::atomic<uint64_t> user_bytes_read_{0};
  std::atomic<uint64_t> flush_bytes_{0};
  std::atomic<uint64_t> compaction_bytes_in_{0};
  std::atomic<uint64_t> compaction_bytes_out_{0};
  std::atomic<uint64_t> stall_micros_{0};
  std::atomic<uint64_t> write_stalls_{0};
  /// Physical block reads, charged by every SSTableReader this DB opens.
  mutable SSTableReader::ReadStats read_stats_;

  /// Hot-path metric handles (see BindMetrics).
  obs::Counter* puts_metric_ = nullptr;
  obs::Counter* deletes_metric_ = nullptr;
  obs::Counter* batch_commits_metric_ = nullptr;
  obs::Counter* commits_metric_ = nullptr;
  obs::Counter* wal_appends_metric_ = nullptr;
  obs::Counter* wal_bytes_metric_ = nullptr;
  obs::Counter* gets_metric_ = nullptr;
  obs::Counter* flushes_metric_ = nullptr;
  obs::Counter* flush_bytes_metric_ = nullptr;
  obs::Counter* compactions_metric_ = nullptr;
  obs::Counter* compaction_bytes_in_metric_ = nullptr;
  obs::Counter* compaction_bytes_out_metric_ = nullptr;
  obs::Counter* user_write_bytes_metric_ = nullptr;
  obs::Counter* user_read_bytes_metric_ = nullptr;
  obs::Counter* stall_micros_metric_ = nullptr;
  obs::Counter* stalls_metric_ = nullptr;
  obs::Counter* checkpoints_metric_ = nullptr;
  obs::Counter* checkpoint_bytes_metric_ = nullptr;
  obs::Counter* table_cache_hits_metric_ = nullptr;
  obs::Counter* table_cache_misses_metric_ = nullptr;
  obs::Counter* table_cache_evictions_metric_ = nullptr;
};

}  // namespace rhino::lsm
