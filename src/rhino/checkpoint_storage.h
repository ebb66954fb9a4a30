#pragma once

#include <map>
#include <mutex>
#include <string>
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
/// Both capture per-vnode content blobs so recovery can restore actual
/// state (values in real mode, byte counters in modeled mode).

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
                          std::shared_ptr<const std::map<uint32_t, std::string>>
                              blobs,
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

  /// Latest checkpoint content of the instance (for state restoration).
  const ReplicaState* LatestFor(const std::string& op, uint32_t subtask) const;

  /// Registers a pre-existing checkpoint without modeling the upload
  /// (experiment seeding).
  void SeedCheckpoint(const std::string& op, uint32_t subtask, int home_node,
                      const state::CheckpointDescriptor& desc,
                      std::map<uint32_t, std::string> blobs);

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

/// Captures the per-vnode content blobs of a stateful instance (shared by
/// both storages and by experiment seeding).
std::map<uint32_t, std::string> CaptureVnodeBlobs(
    dataflow::StatefulInstance* instance);

// ------------------------------------------------- durable image helpers --
//
// The networked runtime persists whole replica images (descriptor +
// blobs) as single files on an `lsm::Env` — the node's "local disk" and
// the shared checkpoint directory standing in for a DFS. The image is one
// framed record (len + checksum, the WAL idiom), so a torn write from a
// SIGKILL mid-checkpoint is detected on load and the image is discarded
// rather than half-restored.

/// Atomically writes the framed image of `rs` at `path` (parent directory
/// is created if missing). Returns the size of the encoded image, frame
/// header excluded.
Result<uint64_t> WriteCheckpointImage(lsm::Env* env, const std::string& path,
                                      const ReplicaState& rs);

/// Loads and validates an image written by `WriteCheckpointImage`. A torn
/// or checksum-corrupt file is `Corruption`; a missing file is the Env's
/// read error.
Result<ReplicaState> ReadCheckpointImage(lsm::Env* env,
                                         const std::string& path);

}  // namespace rhino::rhino
