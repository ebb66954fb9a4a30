#include "lsm/db.h"

#include <algorithm>

#include "common/logging.h"
#include "common/serde.h"
#include "lsm/log_format.h"

namespace rhino::lsm {

namespace {

/// MANIFEST record kinds (first payload byte of each framed record).
constexpr uint8_t kManifestSnapshot = 0;  // full VersionSet state
constexpr uint8_t kManifestEdit = 1;      // one VersionEdit

void AtomicMax(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t prev = slot->load(std::memory_order_relaxed);
  while (prev < value &&
         !slot->compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ----------------------------------------------------------- k-way merge --

/// Internal (named, not anonymous, so DB::Iterator::Rep can hold these
/// without subobject-linkage warnings) machinery for merging sorted entry
/// sources. A source yields entries in strictly increasing key order; the
/// merge yields, for each distinct user key across all sources, the entry
/// with the largest sequence number — tombstones included, so callers
/// decide whether to drop or keep them.
namespace merge_detail {

class MergeSource {
 public:
  virtual ~MergeSource() = default;
  virtual bool Valid() const = 0;
  virtual const Entry& Current() const = 0;
  virtual void Advance() = 0;
};

/// Snapshot of the (bounded) memtable: entries are copied at iterator
/// creation so a later Flush cannot invalidate them.
class MemSource : public MergeSource {
 public:
  explicit MemSource(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}
  bool Valid() const override { return pos_ < entries_.size(); }
  const Entry& Current() const override { return entries_[pos_]; }
  void Advance() override { ++pos_; }

 private:
  std::vector<Entry> entries_;
  size_t pos_ = 0;
};

/// One SSTable, streamed block by block. Holding the reader's shared_ptr
/// pins its RandomAccessFile, so a compaction deleting the file name does
/// not disturb the iteration.
class TableSource : public MergeSource {
 public:
  TableSource(std::shared_ptr<SSTableReader> table, std::string_view seek)
      : table_(std::move(table)), it_(table_->NewIterator(seek)) {}
  bool Valid() const override { return it_.Valid(); }
  const Entry& Current() const override { return it_.entry(); }
  void Advance() override { it_.Next(); }

 private:
  std::shared_ptr<SSTableReader> table_;
  SSTableReader::Iterator it_;
};

/// Binary min-heap of sources ordered by (key asc, seq desc): the top is
/// the smallest pending key, newest version first.
class KWayMerge {
 public:
  void AddSource(std::unique_ptr<MergeSource> source) {
    if (source->Valid()) sources_.push_back(std::move(source));
  }

  /// Builds the heap; call once after the last AddSource.
  void Finish() {
    heap_.resize(sources_.size());
    for (size_t i = 0; i < heap_.size(); ++i) heap_[i] = i;
    std::make_heap(heap_.begin(), heap_.end(), Before());
  }

  /// Yields the newest version of the next distinct key (tombstones
  /// included); false when every source is exhausted.
  bool NextVersion(Entry* out) {
    if (heap_.empty()) return false;
    size_t top = PopTop();
    *out = sources_[top]->Current();
    AdvanceAndRestore(top);
    // Drop shadowed versions of the same key from other sources.
    while (!heap_.empty()) {
      size_t idx = heap_.front();
      if (sources_[idx]->Current().key != out->key) break;
      PopTop();
      AdvanceAndRestore(idx);
    }
    return true;
  }

 private:
  /// Heap comparator ("less"): a sorts below b when its key is larger, or
  /// equal with an older sequence number — making the heap top the
  /// smallest key / newest version.
  struct Less {
    const KWayMerge* merge;
    bool operator()(size_t a, size_t b) const {
      const Entry& ea = merge->sources_[a]->Current();
      const Entry& eb = merge->sources_[b]->Current();
      if (ea.key != eb.key) return ea.key > eb.key;
      return ea.seq < eb.seq;
    }
  };
  Less Before() const { return Less{this}; }

  size_t PopTop() {
    std::pop_heap(heap_.begin(), heap_.end(), Before());
    size_t idx = heap_.back();
    heap_.pop_back();
    return idx;
  }

  void AdvanceAndRestore(size_t idx) {
    sources_[idx]->Advance();
    if (!sources_[idx]->Valid()) return;
    heap_.push_back(idx);
    std::push_heap(heap_.begin(), heap_.end(), Before());
  }

  std::vector<std::unique_ptr<MergeSource>> sources_;
  std::vector<size_t> heap_;
};

}  // namespace merge_detail

void DB::BindMetrics(obs::Observability* o) {
  obs::MetricsRegistry& m = o->metrics();
  puts_metric_ = m.GetCounter("rhino_lsm_puts_total");
  deletes_metric_ = m.GetCounter("rhino_lsm_deletes_total");
  batch_commits_metric_ = m.GetCounter("rhino_lsm_batch_commits_total");
  commits_metric_ = m.GetCounter("rhino_lsm_commits_total");
  wal_appends_metric_ = m.GetCounter("rhino_lsm_wal_appends_total");
  wal_bytes_metric_ = m.GetCounter("rhino_lsm_wal_bytes_total");
  gets_metric_ = m.GetCounter("rhino_lsm_gets_total");
  flushes_metric_ = m.GetCounter("rhino_lsm_flushes_total");
  flush_bytes_metric_ = m.GetCounter("rhino_lsm_flush_bytes_total");
  compactions_metric_ = m.GetCounter("rhino_lsm_compactions_total");
  compaction_bytes_in_metric_ =
      m.GetCounter("rhino_lsm_compaction_bytes_in_total");
  compaction_bytes_out_metric_ =
      m.GetCounter("rhino_lsm_compaction_bytes_out_total");
  user_write_bytes_metric_ = m.GetCounter("rhino_lsm_user_write_bytes_total");
  user_read_bytes_metric_ = m.GetCounter("rhino_lsm_user_read_bytes_total");
  stall_micros_metric_ = m.GetCounter("rhino_lsm_write_stall_micros_total");
  stalls_metric_ = m.GetCounter("rhino_lsm_write_stalls_total");
  checkpoints_metric_ = m.GetCounter("rhino_lsm_checkpoints_total");
  checkpoint_bytes_metric_ = m.GetCounter("rhino_lsm_checkpoint_bytes_total");
  table_cache_hits_metric_ = m.GetCounter("rhino_lsm_table_cache_hits_total");
  table_cache_misses_metric_ =
      m.GetCounter("rhino_lsm_table_cache_misses_total");
  table_cache_evictions_metric_ =
      m.GetCounter("rhino_lsm_table_cache_evictions_total");
  read_stats_.bytes_metric.store(
      m.GetCounter("rhino_lsm_sst_read_bytes_total"),
      std::memory_order_relaxed);
}

// ------------------------------------------------------------------ Open --

Result<std::unique_ptr<DB>> DB::Open(Env* env, std::string path,
                                     Options options) {
  auto db = std::unique_ptr<DB>(new DB(env, std::move(path), options));
  RHINO_RETURN_NOT_OK(env->CreateDir(db->path_));
  std::string manifest_path = db->FilePath(kManifestName);
  if (env->FileExists(manifest_path)) {
    std::string data;
    RHINO_RETURN_NOT_OK(env->ReadFile(manifest_path, &data));
    RHINO_RETURN_NOT_OK(db->LoadManifest(data));
    // Validate footers/indexes so corruption surfaces at open, not first
    // read; the LRU cap keeps this from pinning every handle.
    std::lock_guard<std::mutex> lock(db->versions_mu_);
    for (const auto& f : db->versions_.AllFiles()) {
      RHINO_ASSIGN_OR_RETURN(auto table, db->OpenTableLocked(f.number));
      (void)table;
    }
  }
  db->last_seq_.store(db->versions_.last_seq(), std::memory_order_relaxed);
  // Rotate at open: collapse any replayed edit log into one fresh
  // snapshot (bounding the next recovery) and leave an append handle
  // ready for edits.
  {
    std::lock_guard<std::mutex> lock(db->versions_mu_);
    RHINO_RETURN_NOT_OK(db->RotateManifestLocked());
  }
  if (db->options_.enable_wal) {
    RHINO_RETURN_NOT_OK(db->RecoverWal());
  }
  return db;
}

Result<std::unique_ptr<DB>> DB::OpenFromCheckpoint(
    Env* env, const std::string& checkpoint_dir, std::string path,
    Options options) {
  RHINO_RETURN_NOT_OK(env->CreateDir(path));
  RHINO_ASSIGN_OR_RETURN(auto names, env->ListDir(checkpoint_dir));
  for (const auto& name : names) {
    std::string dst = path + "/" + name;
    if (env->FileExists(dst)) continue;
    if (name == kManifestName) {
      std::string data;
      RHINO_RETURN_NOT_OK(env->ReadFile(checkpoint_dir + "/" + name, &data));
      RHINO_RETURN_NOT_OK(env->WriteFile(dst, data));
    } else {
      RHINO_RETURN_NOT_OK(env->LinkFile(checkpoint_dir + "/" + name, dst));
    }
  }
  return Open(env, std::move(path), std::move(options));
}

DB::~DB() {
  shutting_down_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(bg_.mu);
    bg_.exit = true;
  }
  bg_.cv.notify_all();
  // A pass in flight sees shutting_down_ and returns; join waits for it.
  if (bg_thread_.joinable()) bg_thread_.join();
  // The handle flushes its buffer as it closes: a failed commit's record
  // must be cut off first.
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_cut_) (void)CutWalLocked();
}

// -------------------------------------------------------------- Mutation --

Status DB::Put(std::string_view key, std::string_view value) {
  puts_metric_->Increment();
  std::string payload;
  BinaryWriter w(&payload);
  w.PutVarint(1);
  w.PutU8(static_cast<uint8_t>(ValueType::kValue));
  w.PutString(key);
  w.PutString(value);
  return CommitEntries(payload, 1);
}

Status DB::Delete(std::string_view key) {
  deletes_metric_->Increment();
  std::string payload;
  BinaryWriter w(&payload);
  w.PutVarint(1);
  w.PutU8(static_cast<uint8_t>(ValueType::kDeletion));
  w.PutString(key);
  w.PutString("");
  return CommitEntries(payload, 1);
}

Status DB::Write(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  puts_metric_->Increment(batch.num_puts());
  deletes_metric_->Increment(batch.num_deletes());
  batch_commits_metric_->Increment();
  return CommitEntries(batch.EncodePayload(), batch.num_entries());
}

Status DB::CommitEntries(std::string_view payload, uint64_t num_entries) {
  if (has_bg_error_.load(std::memory_order_acquire)) return BackgroundError();
  uint64_t count = 0;
  std::string_view entries;
  RHINO_RETURN_NOT_OK(WriteBatch::DecodePayload(payload, &count, &entries));
  std::shared_ptr<ShardedMemTable> mem;
  uint64_t payload_bytes = 0;
  {
    // Shared rotation lock across {WAL append, memtable apply}: a freeze
    // (exclusive) can never interleave, so an acknowledged commit's WAL
    // record and memtable entries always rotate together.
    std::shared_lock<std::shared_mutex> rotate(rotate_mu_);
    RHINO_RETURN_NOT_OK(CommitWal(payload, num_entries));
    uint64_t seq = last_seq_.fetch_add(num_entries, std::memory_order_relaxed);
    mem = mem_;  // stable while the rotation lock is held shared
    RHINO_RETURN_NOT_OK(WriteBatch::DecodeEntries(
        entries,
        [&](ValueType type, std::string_view key, std::string_view value) {
          payload_bytes += key.size() + value.size();
          mem->Add(key, ++seq, type, value);
          return Status::OK();
        }));
  }
  commits_.fetch_add(1, std::memory_order_relaxed);
  commits_metric_->Increment();
  user_bytes_written_.fetch_add(payload_bytes, std::memory_order_relaxed);
  user_write_bytes_metric_->Increment(payload_bytes);
  // Flush policy runs outside the commit critical section. `mem` may be a
  // just-frozen table by now; the freeze re-checks under its own locks.
  if (!MemTableFull(*mem)) return Status::OK();
  // The commit has landed in the WAL and the memtable; the maintenance it
  // triggers is not part of it. A failure there becomes the sticky
  // background error that the next write returns, so a failed commit
  // always means that none of it was applied.
  Status st;
  if (options_.background_maintenance) {
    Result<bool> frozen = FreezeActiveMemTable(true);
    st = frozen.status();
    if (st.ok() && *frozen) ScheduleMaintenance();
  } else {
    std::lock_guard<std::mutex> maint(maintenance_mu_);
    st = MaintainInline(true);
  }
  if (!st.ok()) RecordBackgroundError(st);
  return Status::OK();
}

Status DB::EnsureWalFileLocked() {
  if (wal_cut_) RHINO_RETURN_NOT_OK(CutWalLocked());
  if (wal_file_ != nullptr) return Status::OK();
  RHINO_ASSIGN_OR_RETURN(wal_file_,
                         env_->NewWritableFile(WalPath(), /*append=*/true));
  wal_acked_ = wal_file_->Size();
  return Status::OK();
}

Status DB::CutWalLocked() {
  std::string acked;
  Status st = env_->ReadFileRange(WalPath(), 0, wal_acked_, &acked);
  if (st.ok()) st = env_->WriteFile(WalPath(), acked);
  if (!st.ok()) {
    RecordBackgroundError(st);
    return st;
  }
  wal_file_.reset();
  wal_cut_ = false;
  return Status::OK();
}

Status DB::CommitWal(std::string_view payload, uint64_t num_entries) {
  if (!options_.enable_wal) return Status::OK();
  std::string record;
  record.reserve(payload.size() + 8);
  AppendLogRecord(&record, payload);
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    RHINO_RETURN_NOT_OK(EnsureWalFileLocked());
    // One flush per commit — regardless of how many entries it covers —
    // is the group-commit win over flushing per mutation.
    Status st = wal_file_->Append(record);
    if (st.ok()) st = wal_file_->Flush();
    if (!st.ok()) {
      // Unacknowledged: the record must not ride a later flush.
      wal_cut_ = true;
      return st;
    }
    wal_acked_ = wal_file_->Size();
  }
  wal_appends_.fetch_add(1, std::memory_order_relaxed);
  wal_records_.fetch_add(num_entries, std::memory_order_relaxed);
  wal_bytes_.fetch_add(record.size(), std::memory_order_relaxed);
  wal_appends_metric_->Increment();
  wal_bytes_metric_->Increment(record.size());
  return Status::OK();
}

Status DB::RecoverWal() {
  // A surviving WAL.imm means the process died after freezing a memtable
  // but before its flush retired the log. Replay it first (its entries are
  // older), then the active WAL. When both exist they are consolidated
  // back into one fresh "WAL": the next freeze renames "WAL" over
  // "WAL.imm", and acknowledged records must not be orphaned under a name
  // that rename would clobber.
  bool had_imm = env_->FileExists(ImmWalPath());
  std::string consolidated;
  uint64_t seq = last_seq_.load(std::memory_order_relaxed);
  auto replay = [&](const std::string& wal_path,
                    bool truncate_tail) -> Status {
    if (!env_->FileExists(wal_path)) return Status::OK();
    std::string data;
    RHINO_RETURN_NOT_OK(env_->ReadFile(wal_path, &data));
    size_t pos = 0;
    std::string_view payload;
    while (true) {
      LogRead got = ReadLogRecord(data, &pos, &payload);
      if (got == LogRead::kEnd) break;
      if (got == LogRead::kTorn) {
        // Crash mid-append: the framing pinpoints the torn record.
        // Truncate it away so later appends land after a clean prefix
        // (consolidation rewrites the file anyway).
        if (truncate_tail && !had_imm) {
          RHINO_RETURN_NOT_OK(env_->WriteFile(
              wal_path, std::string_view(data).substr(0, pos)));
        }
        break;
      }
      // Inside a checksummed record, a decode failure is real corruption,
      // not a torn tail — surface it.
      uint64_t count = 0;
      std::string_view entries;
      RHINO_RETURN_NOT_OK(
          WriteBatch::DecodePayload(payload, &count, &entries));
      RHINO_RETURN_NOT_OK(WriteBatch::DecodeEntries(
          entries,
          [&](ValueType type, std::string_view key, std::string_view value) {
            mem_->Add(key, ++seq, type, value);
            wal_recovered_.fetch_add(1, std::memory_order_relaxed);
            return Status::OK();
          }));
      if (had_imm) AppendLogRecord(&consolidated, payload);
    }
    return Status::OK();
  };
  RHINO_RETURN_NOT_OK(replay(ImmWalPath(), /*truncate_tail=*/false));
  RHINO_RETURN_NOT_OK(replay(WalPath(), /*truncate_tail=*/true));
  last_seq_.store(seq, std::memory_order_relaxed);
  if (had_imm) {
    RHINO_RETURN_NOT_OK(env_->WriteFile(WalPath(), consolidated));
    Status st = env_->DeleteFile(ImmWalPath());
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  return Status::OK();
}

// ----------------------------------------------------- Flush / rotation --

Result<bool> DB::FreezeActiveMemTable(bool only_if_over) {
  // Exclusive rotation lock: no commit is mid-flight across the swap.
  std::unique_lock<std::shared_mutex> rotate(rotate_mu_);
  std::unique_lock<std::mutex> lock(mem_mu_);
  if (only_if_over && !MemTableFull(*mem_)) {
    return false;  // a racing writer already rotated
  }
  if (mem_->Empty()) return false;
  if (imm_ != nullptr) {
    // At most one frozen memtable: stall until the background flush
    // retires it (the classic write stall; accounted, and surfaced in the
    // micro bench as stall_ms).
    write_stalls_.fetch_add(1, std::memory_order_relaxed);
    stalls_metric_->Increment();
    auto start = std::chrono::steady_clock::now();
    mem_cv_.wait(lock, [this] {
      return imm_ == nullptr || has_bg_error_.load(std::memory_order_acquire);
    });
    auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    stall_micros_.fetch_add(static_cast<uint64_t>(micros),
                            std::memory_order_relaxed);
    stall_micros_metric_->Increment(static_cast<uint64_t>(micros));
    if (has_bg_error_.load(std::memory_order_acquire)) {
      return BackgroundError();
    }
  }
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    if (wal_cut_) RHINO_RETURN_NOT_OK(CutWalLocked());
    wal_file_.reset();
    if (options_.enable_wal && env_->FileExists(WalPath())) {
      RHINO_RETURN_NOT_OK(env_->RenameFile(WalPath(), ImmWalPath()));
    }
  }
  imm_ = std::move(mem_);
  mem_ = std::make_shared<ShardedMemTable>(options_.memtable_shards);
  return true;
}

Status DB::FlushFrozenMemTable(std::shared_ptr<ShardedMemTable> imm) {
  RHINO_RETURN_NOT_OK(WriteLevel0Table(*imm));
  flush_count_.fetch_add(1, std::memory_order_relaxed);
  // Everything in the frozen log is now durable in an SST; drop it before
  // retiring the frozen slot so `imm_ == null` implies no WAL.imm file.
  if (options_.enable_wal) {
    Status st = env_->DeleteFile(ImmWalPath());
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    imm_.reset();
    imm.reset();  // parks the table's blocks unless a reader pins it
  }
  mem_cv_.notify_all();
  return Status::OK();
}

Status DB::MaintainInline(bool only_if_over) {
  RHINO_ASSIGN_OR_RETURN(bool frozen, FreezeActiveMemTable(only_if_over));
  if (!frozen) return Status::OK();
  std::shared_ptr<ShardedMemTable> imm;
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    imm = imm_;
  }
  RHINO_RETURN_NOT_OK(FlushFrozenMemTable(std::move(imm)));
  if (!options_.auto_compact) return Status::OK();
  bool did_work = true;
  while (did_work) {
    RHINO_RETURN_NOT_OK(CompactOnce(&did_work));
  }
  return Status::OK();
}

Status DB::Flush() {
  if (has_bg_error_.load(std::memory_order_acquire)) return BackgroundError();
  if (options_.background_maintenance) {
    RHINO_ASSIGN_OR_RETURN(bool frozen, FreezeActiveMemTable(false));
    if (frozen) ScheduleMaintenance();
    return WaitForBackgroundWork();
  }
  std::lock_guard<std::mutex> maint(maintenance_mu_);
  return MaintainInline(false);
}

Result<std::unique_ptr<WritableFile>> DB::NewTableSink(uint64_t number) {
  return env_->NewWritableFile(FilePath(TableFileName(number)) + ".tmp",
                               /*append=*/false);
}

Status DB::FinishTableSink(uint64_t number, SSTableBuilder* builder,
                           std::unique_ptr<WritableFile> sink,
                           FileMetaData* meta) {
  RHINO_RETURN_NOT_OK(builder->FinishStream());
  sink.reset();  // close before rename
  std::string final_path = FilePath(TableFileName(number));
  RHINO_RETURN_NOT_OK(env_->RenameFile(final_path + ".tmp", final_path));
  meta->number = number;
  meta->smallest = builder->smallest();
  meta->largest = builder->largest();
  meta->num_entries = builder->num_entries();
  meta->file_size = builder->file_size();
  AtomicMax(&write_peak_buffer_bytes_, builder->peak_buffer_bytes());
  return Status::OK();
}

Status DB::WriteLevel0Table(const ShardedMemTable& mem) {
  uint64_t number;
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    number = versions_.NewFileNumber();
  }
  RHINO_ASSIGN_OR_RETURN(auto sink, NewTableSink(number));
  SSTableBuilder builder(sink.get(), options_.block_bytes,
                         options_.bloom_bits_per_key);
  // The table is frozen (or the caller owns it exclusively), so the
  // merging cursor streams the shards lock-free in global key order —
  // identical bytes to what a single skiplist would have produced.
  for (auto it = mem.NewMergingIterator(); it.Valid(); it.Next()) {
    builder.Add(it.key(), it.seq(), it.type(), it.value());
  }
  FileMetaData meta;
  RHINO_RETURN_NOT_OK(
      FinishTableSink(number, &builder, std::move(sink), &meta));
  flushes_metric_->Increment();
  flush_bytes_metric_->Increment(meta.file_size);
  flush_bytes_.fetch_add(meta.file_size, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(versions_mu_);
  versions_.set_last_seq(last_seq_.load(std::memory_order_relaxed));
  VersionEdit edit;
  edit.next_file_number = versions_.next_file_number();
  edit.last_seq = versions_.last_seq();
  edit.added.emplace_back(0, meta);
  versions_.AddFile(0, std::move(meta));
  return AppendManifestEditLocked(edit);
}

// ---------------------------------------------------------------- Lookup --

Status DB::Get(std::string_view key, std::string* value) {
  gets_metric_->Increment();
  Entry entry;
  // Memtable snapshot: pin both buffers under a brief lock, probe without.
  std::shared_ptr<ShardedMemTable> mem, imm;
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    mem = mem_;
    imm = imm_;
  }
  bool found = mem->Get(key, &entry);
  if (!found && imm != nullptr) found = imm->Get(key, &entry);
  if (found) {
    if (entry.type == ValueType::kDeletion) return Status::NotFound("deleted");
    user_bytes_read_.fetch_add(entry.value.size(), std::memory_order_relaxed);
    user_read_bytes_metric_->Increment(entry.value.size());
    *value = std::move(entry.value);
    return Status::OK();
  }
  // Version snapshot: candidate files AND their pinned handles are
  // collected under versions_mu_ (opens are usually LRU hits), then the
  // bloom probes and block reads below run without any DB lock. Search
  // order — L0 newest first, then deeper levels — is preserved in the
  // flat candidate list. The range check reads the file metadata in
  // place: a miss, which the counter pays for every key new to the
  // state, copies no key or file list.
  std::vector<std::shared_ptr<SSTableReader>> tables;
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    for (int l = 0; l < versions_.num_levels(); ++l) {
      for (const auto& f : versions_.level(l)) {
        if (key < f.smallest || key > f.largest) continue;
        RHINO_ASSIGN_OR_RETURN(auto table, OpenTableLocked(f.number));
        tables.push_back(std::move(table));
      }
    }
  }
  for (const auto& table : tables) {
    Status st = table->Get(key, &entry);
    if (st.ok()) {
      if (entry.type == ValueType::kDeletion) {
        return Status::NotFound("deleted");
      }
      user_bytes_read_.fetch_add(entry.value.size(),
                                 std::memory_order_relaxed);
      user_read_bytes_metric_->Increment(entry.value.size());
      *value = std::move(entry.value);
      return Status::OK();
    }
    if (!st.IsNotFound()) return st;
  }
  return Status::NotFound(std::string(key));
}

// ---------------------------------------------------------- DB::Iterator --

struct DB::Iterator::Rep {
  merge_detail::KWayMerge merge;
  std::string end;
  Entry current;
  bool valid = false;
  bool done = false;

  /// Pulls merged versions until a live entry inside the bound appears.
  void FindNext() {
    valid = false;
    if (done) return;
    Entry e;
    while (merge.NextVersion(&e)) {
      if (!end.empty() && e.key >= end) {
        // Sources yield in key order: nothing below `end` can follow.
        done = true;
        return;
      }
      if (e.type == ValueType::kDeletion) continue;  // dropped on the fly
      current = std::move(e);
      valid = true;
      return;
    }
    done = true;
  }
};

DB::Iterator::Iterator() = default;
DB::Iterator::~Iterator() = default;
DB::Iterator::Iterator(Iterator&&) noexcept = default;
DB::Iterator& DB::Iterator::operator=(Iterator&&) noexcept = default;

bool DB::Iterator::Valid() const { return rep_ != nullptr && rep_->valid; }

void DB::Iterator::Next() {
  RHINO_DCHECK(Valid());
  rep_->FindNext();
}

const std::string& DB::Iterator::key() const { return rep_->current.key; }

const std::string& DB::Iterator::value() const { return rep_->current.value; }

Result<DB::Iterator> DB::NewIterator(std::string_view begin,
                                     std::string_view end) {
  Iterator it;
  it.rep_ = std::make_unique<Iterator::Rep>();
  it.rep_->end.assign(end);

  // Memtable snapshots first, table list second: an entry a concurrent
  // flush moves from memtable to L0 in between appears in both sources
  // with the same sequence number, and the merge de-duplicates it. The
  // reverse order could lose it entirely.
  std::shared_ptr<ShardedMemTable> mem, imm;
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    mem = mem_;
    imm = imm_;
  }
  it.rep_->merge.AddSource(std::make_unique<merge_detail::MemSource>(
      mem->SortedSnapshot(begin, end)));
  if (imm != nullptr) {
    it.rep_->merge.AddSource(std::make_unique<merge_detail::MemSource>(
        imm->SortedSnapshot(begin, end)));
  }

  // One block-streaming source per table overlapping the range. Handles
  // are opened under versions_mu_ (so a concurrent compaction cannot
  // delete a file before we pin it) but the sources — whose construction
  // reads blocks — are built after it is released. The sources hold the
  // reader handles, pinning file content for the life of the iterator.
  std::vector<std::shared_ptr<SSTableReader>> tables;
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    for (const auto& f : versions_.AllFiles()) {
      if (!end.empty() && f.smallest >= end) continue;
      if (!begin.empty() && f.largest < begin) continue;
      RHINO_ASSIGN_OR_RETURN(auto table, OpenTableLocked(f.number));
      tables.push_back(std::move(table));
    }
  }
  for (auto& table : tables) {
    it.rep_->merge.AddSource(
        std::make_unique<merge_detail::TableSource>(std::move(table), begin));
  }
  it.rep_->merge.Finish();
  it.rep_->FindNext();
  return it;
}

// ------------------------------------------------------------ Compaction --

uint64_t DB::MaxBytesForLevel(int level) const {
  double bytes = static_cast<double>(options_.level_base_bytes);
  for (int l = 1; l < level; ++l) bytes *= options_.level_multiplier;
  return static_cast<uint64_t>(bytes);
}

Status DB::CompactOnce(bool* did_work) {
  *did_work = false;
  int level = -1;
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    if (versions_.level(0).size() >=
        static_cast<size_t>(options_.l0_compaction_trigger)) {
      level = 0;
    } else {
      for (int l = 1; l < versions_.num_levels() - 1; ++l) {
        if (versions_.LevelBytes(l) > MaxBytesForLevel(l)) {
          level = l;
          break;
        }
      }
    }
  }
  if (level < 0) return Status::OK();
  *did_work = true;
  return CompactLevel(level);
}

Status DB::CompactLevel(int level) {
  std::vector<std::pair<int, FileMetaData>> inputs;
  int output_level = level + 1;
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    std::string smallest, largest;
    if (level == 0) {
      // All of L0 participates (files may overlap each other).
      for (const auto& f : versions_.level(0)) {
        if (inputs.empty() || f.smallest < smallest) smallest = f.smallest;
        if (inputs.empty() || f.largest > largest) largest = f.largest;
        inputs.emplace_back(0, f);
      }
    } else {
      // Pick the file after the last compacted key (round-robin cursor
      // keeps writes spread over the keyspace).
      const auto& files = versions_.level(level);
      RHINO_CHECK(!files.empty());
      const FileMetaData& f = files.front();
      smallest = f.smallest;
      largest = f.largest;
      inputs.emplace_back(level, f);
    }
    for (const auto& f :
         versions_.Overlapping(output_level, smallest, largest)) {
      inputs.emplace_back(output_level, f);
    }
  }
  return DoCompaction(inputs, output_level);
}

Status DB::CompactRange() {
  RHINO_RETURN_NOT_OK(Flush());
  std::lock_guard<std::mutex> maint(maintenance_mu_);
  // A writer may have frozen a fresh memtable between the flush above and
  // this lock; retire it so its entries participate too.
  std::shared_ptr<ShardedMemTable> imm;
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    imm = imm_;
  }
  if (imm != nullptr) RHINO_RETURN_NOT_OK(FlushFrozenMemTable(std::move(imm)));
  // Repeatedly push every populated level into the next one.
  for (int l = 0; l < options_.num_levels - 1; ++l) {
    while (true) {
      {
        std::lock_guard<std::mutex> lock(versions_mu_);
        if (versions_.level(l).empty()) break;
      }
      RHINO_RETURN_NOT_OK(CompactLevel(l));
    }
  }
  return Status::OK();
}

Status DB::DoCompaction(const std::vector<std::pair<int, FileMetaData>>& inputs,
                        int output_level) {
  // Stream the inputs through a k-way merge; the largest sequence number
  // per user key wins (sequence numbers are global and monotone). Peak
  // memory is one block per input plus the output block under
  // construction — not the merged key range. Only the input pinning, file
  // numbering, and the final install touch versions_mu_; the merge itself
  // runs lock-free, so readers proceed while data is rewritten.
  std::string smallest, largest;
  uint64_t bytes_in = 0;
  std::vector<std::shared_ptr<SSTableReader>> input_tables;
  bool drop_tombstones;
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    for (size_t i = 0; i < inputs.size(); ++i) {
      const auto& f = inputs[i].second;
      if (i == 0 || f.smallest < smallest) smallest = f.smallest;
      if (i == 0 || f.largest > largest) largest = f.largest;
      bytes_in += f.file_size;
      RHINO_ASSIGN_OR_RETURN(auto table, OpenTableLocked(f.number));
      input_tables.push_back(std::move(table));
    }
    drop_tombstones =
        versions_.IsBottomMostForRange(output_level, smallest, largest);
  }
  merge_detail::KWayMerge merge;
  for (auto& table : input_tables) {
    merge.AddSource(
        std::make_unique<merge_detail::TableSource>(std::move(table), ""));
  }
  merge.Finish();

  // Stream merged entries into output files split at target_file_bytes;
  // each output buffers ~one block, never the whole table.
  std::vector<FileMetaData> outputs;
  std::unique_ptr<SSTableBuilder> builder;
  std::unique_ptr<WritableFile> sink;
  uint64_t output_number = 0;
  auto finish_output = [&]() -> Status {
    if (!builder || builder->empty()) {
      builder.reset();
      sink.reset();
      return Status::OK();
    }
    FileMetaData meta;
    RHINO_RETURN_NOT_OK(
        FinishTableSink(output_number, builder.get(), std::move(sink), &meta));
    outputs.push_back(std::move(meta));
    builder.reset();
    return Status::OK();
  };

  Entry entry;
  while (merge.NextVersion(&entry)) {
    if (drop_tombstones && entry.type == ValueType::kDeletion) continue;
    if (!builder) {
      {
        std::lock_guard<std::mutex> lock(versions_mu_);
        output_number = versions_.NewFileNumber();
      }
      RHINO_ASSIGN_OR_RETURN(sink, NewTableSink(output_number));
      builder = std::make_unique<SSTableBuilder>(
          sink.get(), options_.block_bytes, options_.bloom_bits_per_key);
    }
    builder->Add(entry.key, entry.seq, entry.type, entry.value);
    if (builder->data_bytes() >= options_.target_file_bytes) {
      RHINO_RETURN_NOT_OK(finish_output());
    }
  }
  RHINO_RETURN_NOT_OK(finish_output());

  uint64_t bytes_out = 0;
  for (const auto& meta : outputs) bytes_out += meta.file_size;

  // Install outputs, drop inputs, delete obsolete files — all under
  // versions_mu_, so a reader either pins a handle before the swap or
  // never sees the old files. Checkpoint hard links keep any shared
  // content alive. One edit records the whole swap.
  std::lock_guard<std::mutex> lock(versions_mu_);
  versions_.set_last_seq(last_seq_.load(std::memory_order_relaxed));
  VersionEdit edit;
  edit.next_file_number = versions_.next_file_number();
  edit.last_seq = versions_.last_seq();
  for (const auto& [lvl, f] : inputs) {
    edit.removed.emplace_back(lvl, f.number);
    versions_.RemoveFile(lvl, f.number);
    EvictTableLocked(f.number);
    Status st = env_->DeleteFile(FilePath(TableFileName(f.number)));
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  for (auto& meta : outputs) {
    edit.added.emplace_back(output_level, meta);
    versions_.AddFile(output_level, std::move(meta));
  }
  compaction_count_.fetch_add(1, std::memory_order_relaxed);
  compaction_bytes_in_.fetch_add(bytes_in, std::memory_order_relaxed);
  compaction_bytes_out_.fetch_add(bytes_out, std::memory_order_relaxed);
  compactions_metric_->Increment();
  compaction_bytes_in_metric_->Increment(bytes_in);
  compaction_bytes_out_metric_->Increment(bytes_out);
  return AppendManifestEditLocked(edit);
}

// ----------------------------------------------------- Background worker --

void DB::ScheduleMaintenance() {
  std::lock_guard<std::mutex> lock(bg_.mu);
  if (bg_.exit || bg_.pending) return;
  bg_.pending = true;
  if (!bg_thread_.joinable()) {
    bg_thread_ = std::thread([this] { BackgroundThreadLoop(); });
  }
  bg_.cv.notify_all();
}

void DB::BackgroundThreadLoop() {
  std::unique_lock<std::mutex> lock(bg_.mu);
  while (true) {
    bg_.cv.wait(lock, [this] { return bg_.pending || bg_.exit; });
    if (bg_.exit) return;
    bg_.pending = false;
    ++bg_.inflight;
    lock.unlock();
    RunMaintenance();
    lock.lock();
    --bg_.inflight;
    bg_.cv.notify_all();
  }
}

void DB::RunMaintenance() {
  std::lock_guard<std::mutex> maint(maintenance_mu_);
  while (true) {
    if (shutting_down_.load(std::memory_order_acquire)) return;
    std::shared_ptr<ShardedMemTable> imm;
    {
      std::lock_guard<std::mutex> lock(mem_mu_);
      imm = imm_;
    }
    if (imm != nullptr) {
      Status st = FlushFrozenMemTable(std::move(imm));
      if (!st.ok()) {
        RecordBackgroundError(st);
        return;
      }
      continue;
    }
    if (!options_.auto_compact) return;
    bool did_work = false;
    Status st = CompactOnce(&did_work);
    if (!st.ok()) {
      RecordBackgroundError(st);
      return;
    }
    if (!did_work) return;
  }
}

void DB::RecordBackgroundError(const Status& s) {
  {
    std::lock_guard<std::mutex> lock(bg_error_mu_);
    if (bg_error_.ok()) bg_error_ = s;
  }
  has_bg_error_.store(true, std::memory_order_release);
  // Wake stalled writers; they surface the error instead of the stall.
  mem_cv_.notify_all();
}

Status DB::BackgroundError() const {
  if (!has_bg_error_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(bg_error_mu_);
  return bg_error_;
}

Status DB::WaitForBackgroundWork() {
  if (options_.background_maintenance) {
    std::unique_lock<std::mutex> lock(bg_.mu);
    bg_.cv.wait(lock, [this] {
      return (!bg_.pending && bg_.inflight == 0) || bg_.exit;
    });
  }
  return BackgroundError();
}

// ----------------------------------------------------------- Checkpoints --

Result<CheckpointInfo> DB::CreateCheckpoint(const std::string& dir) {
  RHINO_RETURN_NOT_OK(Flush());
  RHINO_RETURN_NOT_OK(env_->CreateDir(dir));
  CheckpointInfo info;
  info.directory = dir;
  // Links and the manifest snapshot in one versions_mu_ hold: the captured
  // file set and the manifest describing it cannot diverge.
  std::lock_guard<std::mutex> lock(versions_mu_);
  for (const auto& f : versions_.AllFiles()) {
    std::string name = TableFileName(f.number);
    Status st = env_->LinkFile(FilePath(name), dir + "/" + name);
    if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
    info.files.push_back(CheckpointFile{name, f.file_size});
    info.total_bytes += f.file_size;
  }
  // The checkpoint MANIFEST is a one-record log (a snapshot), the same
  // format Open's LoadManifest replays — no separate decode path.
  std::string snapshot;
  {
    std::string payload(1, static_cast<char>(kManifestSnapshot));
    payload += versions_.EncodeManifest();
    AppendLogRecord(&snapshot, payload);
  }
  RHINO_RETURN_NOT_OK(env_->WriteFile(dir + "/" + kManifestName, snapshot));
  checkpoints_metric_->Increment();
  checkpoint_bytes_metric_->Increment(info.total_bytes);
  return info;
}

// --------------------------------------------------------------- Support --

uint64_t DB::ApproximateSize() const {
  uint64_t mem_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mem_mu_);
    mem_bytes = mem_->ApproximateBytes();
    if (imm_ != nullptr) mem_bytes += imm_->ApproximateBytes();
  }
  std::lock_guard<std::mutex> lock(versions_mu_);
  return mem_bytes + versions_.TotalBytes();
}

uint64_t DB::MemTableArenaBytes() const {
  std::lock_guard<std::mutex> lock(mem_mu_);
  return mem_->ArenaBytes() + (imm_ != nullptr ? imm_->ArenaBytes() : 0);
}

Status DB::LoadManifest(std::string_view data) {
  size_t pos = 0;
  std::string_view payload;
  bool have_snapshot = false;
  while (true) {
    LogRead got = ReadLogRecord(data, &pos, &payload);
    if (got == LogRead::kEnd) break;
    if (got == LogRead::kTorn) {
      // A torn trailing edit is the un-acknowledged suffix of a crash:
      // the matching WAL entries were not yet deleted, so dropping it
      // loses nothing. A tear before any snapshot means no usable state.
      if (!have_snapshot) {
        return Status::Corruption("MANIFEST torn before snapshot record");
      }
      break;
    }
    BinaryReader r(payload);
    uint8_t kind = 0;
    RHINO_RETURN_NOT_OK(r.GetU8(&kind));
    std::string_view body = payload.substr(1);
    if (kind == kManifestSnapshot) {
      RHINO_RETURN_NOT_OK(versions_.DecodeManifest(body));
      have_snapshot = true;
    } else if (kind == kManifestEdit) {
      if (!have_snapshot) {
        return Status::Corruption("MANIFEST edit before snapshot record");
      }
      VersionEdit edit;
      RHINO_RETURN_NOT_OK(edit.Decode(body));
      versions_.ApplyEdit(edit);
    } else {
      return Status::Corruption("unknown MANIFEST record kind");
    }
  }
  if (!have_snapshot) {
    return Status::Corruption("MANIFEST missing snapshot record");
  }
  return Status::OK();
}

Status DB::RotateManifestLocked() {
  manifest_file_.reset();
  std::string payload(1, static_cast<char>(kManifestSnapshot));
  payload += versions_.EncodeManifest();
  std::string record;
  AppendLogRecord(&record, payload);
  // Temp + rename: a crash mid-rotation leaves the previous MANIFEST (or
  // an orphan .tmp) rather than a half-written snapshot.
  std::string path = FilePath(kManifestName);
  RHINO_RETURN_NOT_OK(env_->WriteFile(path + ".tmp", record));
  RHINO_RETURN_NOT_OK(env_->RenameFile(path + ".tmp", path));
  RHINO_ASSIGN_OR_RETURN(manifest_file_,
                         env_->NewWritableFile(path, /*append=*/true));
  manifest_edits_ = 0;
  manifest_rotations_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DB::AppendManifestEditLocked(const VersionEdit& edit) {
  RHINO_CHECK(manifest_file_ != nullptr);
  std::string payload(1, static_cast<char>(kManifestEdit));
  payload += edit.Encode();
  std::string record;
  AppendLogRecord(&record, payload);
  RHINO_RETURN_NOT_OK(manifest_file_->Append(record));
  RHINO_RETURN_NOT_OK(manifest_file_->Flush());
  ++manifest_edits_;
  if (manifest_edits_ >= options_.manifest_rotate_edits) {
    // versions_ already reflects the edit, so the fresh snapshot does too.
    return RotateManifestLocked();
  }
  return Status::OK();
}

Result<std::shared_ptr<SSTableReader>> DB::OpenTableLocked(uint64_t number) {
  auto it = table_cache_.find(number);
  if (it != table_cache_.end()) {
    table_cache_hits_metric_->Increment();
    table_lru_.splice(table_lru_.begin(), table_lru_, it->second.lru_pos);
    return it->second.table;
  }
  table_cache_misses_metric_->Increment();
  RHINO_ASSIGN_OR_RETURN(
      auto file, env_->NewRandomAccessFile(FilePath(TableFileName(number))));
  RHINO_ASSIGN_OR_RETURN(
      auto table,
      SSTableReader::Open(std::move(file), block_cache_.get(), &read_stats_));
  table_lru_.push_front(number);
  table_cache_[number] = OpenTableEntry{table, table_lru_.begin()};
  while (table_cache_.size() > options_.max_open_tables) {
    uint64_t victim = table_lru_.back();
    table_lru_.pop_back();
    table_cache_.erase(victim);
    table_cache_evictions_metric_->Increment();
  }
  return table;
}

void DB::EvictTableLocked(uint64_t number) {
  auto it = table_cache_.find(number);
  if (it == table_cache_.end()) return;
  table_lru_.erase(it->second.lru_pos);
  table_cache_.erase(it);
}

}  // namespace rhino::lsm
