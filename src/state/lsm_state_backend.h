#pragma once

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lsm/db.h"
#include "lsm/env.h"
#include "state/state_backend.h"

/// \file lsm_state_backend.h
/// Real state backend over the embedded LSM store (the RocksDB role).
///
/// Keys are prefixed with a fixed-width big-endian virtual-node id so each
/// virtual node occupies a contiguous key range, exactly how Flink scopes
/// RocksDB state by key group: reading a vnode's entry run is a range scan
/// that seeks to the vnode (memtable and tables alike), and vnode drop is
/// the same range scan writing one tombstone per live key.
/// The same store holds the replicas a node keeps of its peers' vnodes
/// ("held rows", state_backend.h): the LSM's own merge applies a key delta
/// to them, and taking a held vnode over sets its size, touching no key.

namespace rhino::state {

// ------------------------------------------------------- state entries --
//
// One entry format carries real state on every byte path: a whole
// vnode's run (`ReadVnodeEntries`) and the change runs of `TakeChanges`,
// and through them every `VnodeImage` — whole and key stream deltas,
// handovers, promotion, the simulator's checkpoints and restores — held
// rows and checkpoint chain records, whole or not. Each entry is
//
//   varint tag | [varint shared] | key suffix | [varint value length] |
//   value,    tag = unshared << 4 | vfield << 1 | same_length
//
// and its key is the first `shared` bytes of the previous key of the same
// vnode followed by the `unshared`-byte suffix (a vnode's first entry
// follows the empty key), as in an SST data block. `same_length` set
// means the key is as long as the previous one: `shared` is then that
// length minus `unshared`, and no shared field follows. `vfield` 0 is a
// tombstone, 1-6 a value of `vfield` - 1 bytes with no length field, and
// 7 a value whose varint length follows the suffix. A counter entry thus
// costs one tag byte, its suffix and its value. `shared` is always the
// longest common prefix, so a sequence of entries has exactly one
// encoding.

/// Appends the entries of one vnode, in strictly increasing key order.
class EntryWriter {
 public:
  explicit EntryWriter(std::string* out) : out_(out) {}

  void Put(std::string_view key, std::string_view value);
  void Delete(std::string_view key);

 private:
  void Append(std::string_view key, uint64_t vfield, std::string_view value);

  std::string* out_;
  std::string last_;
};

/// Decodes the entries of one vnode written by EntryWriter.
class EntryReader {
 public:
  explicit EntryReader(std::string_view data) : data_(data) {}

  bool AtEnd() const { return pos_ == data_.size(); }
  /// Offset of the first entry not decoded.
  size_t position() const { return pos_; }

  /// Decodes the next entry: `key()`, `is_tombstone()` and `value()`
  /// describe it. Corruption, changing nothing, on a truncated entry, a
  /// `shared` (implied or explicit) longer than the previous key, or a
  /// value that runs past the run.
  Status Next();

  /// The key of the last entry decoded (empty before the first).
  std::string_view key() const { return key_; }
  bool is_tombstone() const { return tombstone_; }
  std::string_view value() const { return value_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  std::string key_;
  bool tombstone_ = false;
  std::string_view value_;
};

/// LSM-backed implementation of StateBackend.
///
/// Thread safety: a backend-level mutex guards the nominal byte accounting,
/// change capture and checkpoint bookkeeping (the DB underneath is safe for
/// concurrent use on its own). In a networked node, one shard's backend is
/// reached by the RPC handler threads (one per connection: the driver's
/// batches and control verbs, peers' replication deltas) and by the
/// replicator thread, which reads the change capture to build deltas.
/// `NodeServer` serializes those under its own mutex; this lock keeps the
/// backend safe without relying on that. No method calls another while it
/// holds the mutex, so the mutex is a plain one.
class LsmStateBackend : public StateBackend {
 public:
  /// Opens (or creates) the backing DB under `dir`. Checkpoints are placed
  /// in sibling directories `dir-chk-<id>`.
  static Result<std::unique_ptr<LsmStateBackend>> Open(
      lsm::Env* env, std::string dir, std::string operator_name,
      uint32_t instance_id, lsm::Options options = lsm::Options());

  Status Get(uint32_t vnode, std::string_view key, std::string* value) override;
  /// Commits the run as one lsm::WriteBatch — a single WAL append covers
  /// every entry — and only then updates byte accounting and capture:
  /// all or nothing.
  Status ApplyBatch(const std::vector<StateWrite>& writes) override;
  Result<std::vector<std::pair<std::string, std::string>>> ScanPrefix(
      uint32_t vnode, std::string_view prefix) override;
  uint64_t SizeBytes() const override;
  uint64_t VnodeBytes(uint32_t vnode) const override;
  Result<CheckpointDescriptor> Checkpoint(uint64_t checkpoint_id) override;
  Status DropVnodes(const std::vector<uint32_t>& vnodes) override;
  void ForgetVnodes(const std::vector<uint32_t>& vnodes) override;
  /// Streams the vnode's range from a DB iterator into the run: live keys
  /// only, no tombstones.
  Status ReadVnodeEntries(uint32_t vnode, std::string* run) override;
  /// One lsm::WriteBatch of the run's entries, decoded before anything is
  /// written; the WAL covers held rows like any other write.
  Status WriteVnodeEntries(uint32_t vnode, std::string_view run) override;
  /// Every image's run is decoded before the first write, then each
  /// commits as one lsm::WriteBatch, and the sizes are set after the last
  /// commit. A commit that fails part-way (an IO error, not a malformed
  /// run) may leave the earlier vnodes' rows, with no size set. The
  /// durable flag is the modeled backend's: real bytes reach the next
  /// checkpoint through the store's own files.
  Status IngestImages(const std::vector<VnodeImage>& images,
                      bool already_durable) override;

  void SetChangeCapture(ChangeReader reader, bool on) override;
  /// The run is a sequence of entries, puts and tombstones, strictly
  /// increasing in key.
  std::optional<uint64_t> TakeChanges(ChangeReader reader, uint32_t vnode,
                                      std::string* run) override;
  void DiscardChanges(ChangeReader reader,
                      const std::vector<uint32_t>& vnodes) override;
  uint64_t CapturedKeys(ChangeReader reader) const override;

  /// The backing DB (exposed for tests).
  lsm::DB* db() { return db_.get(); }

 private:
  LsmStateBackend(lsm::Env* env, std::string dir, std::string operator_name,
                  uint32_t instance_id)
      : env_(env),
        dir_(std::move(dir)),
        operator_name_(std::move(operator_name)),
        instance_id_(instance_id) {}

  static std::string EncodeKey(uint32_t vnode, std::string_view key);

  /// Adds `run`'s entries, as rows of `vnode`, to `batch`. Corruption on a
  /// malformed run, which may leave part of it in `batch`.
  static Status AddRun(uint32_t vnode, std::string_view run,
                       lsm::WriteBatch* batch);

  /// Subtracts nominal bytes from a vnode's accounting, clamping at zero.
  void DiscountBytes(uint32_t vnode, uint64_t nominal_bytes);

  /// The latest write of one captured key.
  struct CapturedWrite {
    bool is_delete = false;
    std::string value;
  };
  /// What one reader captured: vnode -> key -> latest write since the
  /// reader's last take of the vnode.
  struct ReaderCapture {
    bool on = false;
    std::unordered_map<uint32_t, std::unordered_map<std::string, CapturedWrite>>
        vnodes;
    uint64_t keys = 0;

    void Record(uint32_t vnode, std::string_view key, bool is_delete,
                std::string_view value);
    /// Drops the captured keys of `vnode`.
    void Discard(uint32_t vnode);
  };

  /// Records a write of `key` in `vnode` for every reader whose capture
  /// is on.
  void Capture(uint32_t vnode, std::string_view key, bool is_delete,
               std::string_view value) {
    for (auto& capture : captures_) {
      if (capture.on) capture.Record(vnode, key, is_delete, value);
    }
  }

  lsm::Env* env_;
  std::string dir_;
  std::string operator_name_;
  uint32_t instance_id_;
  std::unique_ptr<lsm::DB> db_;
  mutable std::mutex mu_;
  /// Nominal byte accounting per vnode (adds minus deletes). Values are
  /// the caller-declared payload sizes, which is what the migration
  /// protocols budget with.
  std::map<uint32_t, uint64_t> vnode_bytes_;
  std::vector<StateFile> last_checkpoint_files_;
  /// One capture per ChangeReader.
  std::array<ReaderCapture, kChangeReaders> captures_;
};

}  // namespace rhino::state
