#pragma once

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/engine.h"
#include "dataflow/stateful.h"
#include "dfs/dfs.h"
#include "lsm/env.h"
#include "rhino/replication_runtime.h"

/// \file checkpoint_storage.h
/// The two checkpoint persistence strategies of the evaluation:
///
///  * `RhinoCheckpointStorage`  — local disk write + state-centric chain
///    replication of the incremental delta (Rhino);
///  * `DfsCheckpointStorage`    — delta upload into the block-centric DFS
///    (Flink and RhinoDFS).
///
/// Both capture a whole `state::VnodeImage` per owned vnode so recovery
/// can restore actual state (entries in real mode, sizes in modeled mode).
/// The networked runtime's per-vnode checkpoint chains (below) share this
/// file's role: durable checkpoint state.

namespace rhino::rhino {

/// Rhino: persist locally, replicate the delta down the replica chain.
///
/// A replication attempt that fails *transiently* (IOError / TimedOut —
/// e.g. an injected fault stalled the chain past its budget) is retried
/// with jittered backoff before the failure is surfaced to the checkpoint
/// coordinator; permanent failures (Aborted: a chain member fail-stopped)
/// propagate immediately — the next checkpoint re-replicates.
class RhinoCheckpointStorage : public dataflow::CheckpointStorage {
 public:
  RhinoCheckpointStorage(sim::Cluster* cluster, ReplicationRuntime* runtime,
                         runtime::RetryOptions retry = DefaultRetry())
      : cluster_(cluster), runtime_(runtime), retry_(retry) {}

  void Persist(dataflow::OperatorInstance* instance,
               const state::CheckpointDescriptor& desc,
               std::function<void(Status)> done) override;

  static runtime::RetryOptions DefaultRetry() {
    runtime::RetryOptions r;
    r.initial_backoff_us = 200 * kMillisecond;
    r.max_backoff_us = 2 * kSecond;
    r.max_attempts = 3;  // the periodic checkpoint cadence is the backstop
    return r;
  }

 private:
  /// One replication attempt; retries per `retry_` on transient failure.
  void ReplicateWithRetry(std::string op, uint32_t subtask, int node_id,
                          state::CheckpointDescriptor desc,
                          std::shared_ptr<runtime::Retrier> retrier,
                          std::shared_ptr<const std::map<uint32_t,
                                                         state::VnodeImage>>
                              images,
                          std::function<void(Status)> done);

  sim::Cluster* cluster_;
  ReplicationRuntime* runtime_;
  runtime::RetryOptions retry_;
  std::mutex mu_;  ///< guards disk_cursor_ (Persist runs on node strands)
  std::map<int, int> disk_cursor_;
};

/// Flink / RhinoDFS: upload the delta files into the DFS.
class DfsCheckpointStorage : public dataflow::CheckpointStorage {
 public:
  DfsCheckpointStorage(sim::Cluster* cluster, dfs::DistributedFileSystem* dfs)
      : cluster_(cluster), dfs_(dfs) {}

  void Persist(dataflow::OperatorInstance* instance,
               const state::CheckpointDescriptor& desc,
               std::function<void(Status)> done) override;

  /// Every DFS path holding state of the instance (all retained deltas —
  /// together they are the full state image a recovery must fetch).
  std::vector<std::string> PathsFor(const std::string& op,
                                    uint32_t subtask) const;

  /// Latest checkpoint content of the instance: the images of exactly the
  /// vnodes it owned at its last checkpoint.
  const ReplicaState* LatestFor(const std::string& op, uint32_t subtask) const;

  /// The latest image of every checkpointed vnode of `op`, from whichever
  /// instance's entry holds it: after a rebalance that is the instance
  /// that owned the vnode at the checkpoint, not its owner now. Where two
  /// entries hold a vnode, the newer checkpoint's image wins.
  std::map<uint32_t, state::VnodeImage> LatestImages(
      const std::string& op) const;

  /// Registers a pre-existing checkpoint without modeling the upload
  /// (experiment seeding).
  void SeedCheckpoint(const std::string& op, uint32_t subtask, int home_node,
                      const state::CheckpointDescriptor& desc,
                      std::map<uint32_t, state::VnodeImage> images);

  dfs::DistributedFileSystem* dfs() { return dfs_; }

 private:
  static std::string Key(const std::string& op, uint32_t subtask) {
    return op + "#" + std::to_string(subtask);
  }

  sim::Cluster* cluster_;
  dfs::DistributedFileSystem* dfs_;
  /// Guards the catalog below. `LatestFor` hands out stable map-node
  /// pointers; a later checkpoint of the same instance overwrites the
  /// entry's fields, so callers copy promptly.
  mutable std::mutex mu_;
  std::map<std::string, std::vector<std::string>> paths_;
  std::map<std::string, ReplicaState> latest_;
};

/// Whole images of every vnode `instance` owns, keyed by vnode: what a
/// checkpoint captures (shared by both storages and by experiment
/// seeding). One ranged read per vnode, so all of them together cost about
/// one scan of the backend.
std::map<uint32_t, state::VnodeImage> CaptureImages(
    dataflow::StatefulInstance* instance);

// ------------------------------------------------- checkpoint chains --
//
// The networked runtime persists each (operator, vnode) as one append-only
// chain file on an `lsm::Env` — the shared checkpoint directory standing
// in for a DFS. A chain starts with a whole record, the vnode's entries
// as `StateBackend::ReadVnodeEntries` reads them, and each later
// checkpoint appends a key record: the keys written since the previous
// record, as one change run of `StateBackend::TakeChanges`. Both bodies
// are entry runs (`state::EntryWriter`), the run a `state::VnodeImage`
// carries; a key record's may hold tombstones. Records carry the
// tag-packed entries of wire version 7, and no reader of older runs is
// kept: chain files live in one cluster's checkpoint directory and do
// not outlive it. Every record carries the
// vnode's nominal size and replay watermarks, so the chain restores to
// one consistent snapshot.
// A record's payload is `u8 kind | varint checkpoint id | varint nominal
// bytes | varint watermark count | (varint source | varint offset)... |
// body`. Records are framed (checksum + length, the WAL idiom): a torn
// append from a SIGKILL mid-checkpoint loses only the torn record, and
// the chain still restores to the state of its last complete one. The
// reader merges nothing: a restore writes the records' entries into a
// backend in order, and the store's own merge folds them.

/// One record of a vnode's checkpoint chain.
struct ChainRecord {
  enum class Kind : uint8_t { kWhole = 0, kKeys = 1 };
  Kind kind = Kind::kWhole;
  /// The checkpoint (or handover) that wrote the record.
  uint64_t checkpoint_id = 0;
  uint64_t nominal_bytes = 0;
  std::map<int, uint64_t> watermarks;
  /// kWhole: the vnode's entries; kKeys: the change run.
  std::string_view body;
};

/// Appends the framed encoding of `record` to `*out`.
void AppendChainRecord(const ChainRecord& record, std::string* out);

/// A chain read up to its last complete record.
struct VnodeChain {
  /// Each complete record's run, oldest first: the whole record's, then
  /// each key record's.
  std::vector<std::string> runs;
  /// The last complete record's size, replay watermarks and checkpoint.
  uint64_t nominal_bytes = 0;
  std::map<int, uint64_t> watermarks;
  uint64_t checkpoint_id = 0;
  /// Complete records read, and the bytes they span.
  uint64_t records = 0;
  uint64_t valid_bytes = 0;
};

/// Reads a chain up to its first torn record. Corruption when the chain
/// holds no complete record, starts with a key record, or a complete
/// record does not decode.
Result<VnodeChain> ParseChain(std::string_view chain);

/// Reads the chain at `path`; NotFound when there is none.
Result<VnodeChain> ReadChain(lsm::Env* env, const std::string& path);

/// Writes `chain`'s runs into `backend` as rows of `vnode`, oldest first
/// (one `StateBackend::WriteVnodeEntries` each). The caller drops any
/// earlier rows first, and takes the vnode over with the chain's size and
/// watermarks.
Status RestoreChain(const VnodeChain& chain, uint32_t vnode,
                    state::StateBackend* backend);

/// Framed bytes of the first record of the chain at `path` (its base),
/// read from the record's frame header alone.
Result<uint64_t> ChainBaseBytes(lsm::Env* env, const std::string& path);

/// Name of the chain of `vnode` of `op` inside the checkpoint directory.
/// Writers and recovering readers must agree, so it lives here.
std::string ChainFileName(const std::string& op, uint32_t vnode);

}  // namespace rhino::rhino
