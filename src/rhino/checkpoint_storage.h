#pragma once

#include <map>
#include <string>
#include <vector>

#include "dataflow/engine.h"
#include "dataflow/stateful.h"
#include "dfs/dfs.h"
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
/// The networked runtime keeps its durable checkpoint state apart, in
/// per-vnode chains (net/checkpoint_chain.h).

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
  /// `LatestFor` hands out stable map-node pointers; a later checkpoint of
  /// the same instance overwrites the entry's fields, so callers copy
  /// promptly.
  std::map<std::string, std::vector<std::string>> paths_;
  std::map<std::string, ReplicaState> latest_;
};

/// Whole images of every vnode `instance` owns, keyed by vnode: what a
/// checkpoint captures (shared by both storages and by experiment
/// seeding). One ranged read per vnode, so all of them together cost about
/// one scan of the backend.
std::map<uint32_t, state::VnodeImage> CaptureImages(
    dataflow::StatefulInstance* instance);

}  // namespace rhino::rhino
