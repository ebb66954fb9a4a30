#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/observability.h"
#include "rhino/replication_manager.h"
#include "sim/retry.h"
#include "sim/cluster.h"
#include "state/checkpoint.h"
#include "state/state_backend.h"

/// \file replication_runtime.h
/// Rhino's distributed replication runtime (paper §4.2.2 phase 2).
///
/// State-centric, primary/secondary replication with **chain replication**
/// and **credit-based flow control**: the primary cuts the incremental
/// checkpoint into chunks and streams them down its replica chain. A chunk
/// occupies one credit from send until the receiving worker has spooled it
/// to disk, bounding the memory the protocol can pin on any worker. The
/// tail acknowledges up the chain once every chunk is durable; when the
/// head receives the ack the checkpoint is marked complete.
///
/// The runtime doubles as the replica catalog: which node holds which
/// instance's checkpoints (descriptors and per-vnode images: sizes, replay
/// watermarks and entries) — what the Handover Manager consults to pick
/// targets whose state fetch is purely local.
///
/// Failure handling (paper §4.2.3): a fail-stop of any chain member aborts
/// the transfer with an error `Status` (the chain is only as durable as
/// its weakest member; the next checkpoint re-replicates), the catalog
/// never advertises copies on dead nodes, and `CatchUpReplicas` restores
/// the replication factor after `ReplicationManager::HandleWorkerFailure`
/// substitutes a new group member.

namespace rhino::rhino {

struct ReplicationOptions {
  uint64_t chunk_bytes = 8 * kMiB;
  /// Credits per hop: max chunks in flight towards one receiver.
  int credit_window = 4;
};

/// Stall recovery: a per-transfer watchdog retransmits unacknowledged
/// chunks when the chain makes no forward progress for one (jittered,
/// exponentially growing) backoff interval — e.g. chunks dropped by an
/// injected network partition. The deadline measures *stall* time, not
/// total transfer time: it re-arms on every chunk arrival or durability
/// ack, so a slow-but-progressing transfer never times out, while a fully
/// stalled one aborts with TimedOut once the budget runs out. Catch-up
/// copies and the handover's bulk state shipments retry the same way.
inline constexpr sim::RetryOptions kReplicationRetry{
    .initial_backoff_us = 100 * kMillisecond,
    .max_backoff_us = kSecond,
    .max_attempts = 0,             // deadline-governed
    .deadline_us = 120 * kSecond,  // of continuous stall
};

/// Everything the replicas know about one instance's latest state.
struct ReplicaState {
  uint64_t latest_checkpoint_id = 0;
  state::CheckpointDescriptor latest_descriptor;
  /// Whole image of each vnode the instance owned at the checkpoint (real
  /// mode carries entries; modeled mode sizes alone). Keyed by vnode.
  std::map<uint32_t, state::VnodeImage> images;
};

/// Chain-replication engine + replica catalog.
class ReplicationRuntime {
 public:
  ReplicationRuntime(sim::Cluster* cluster, ReplicationManager* manager,
                     ReplicationOptions options = ReplicationOptions())
      : cluster_(cluster), manager_(manager), options_(options) {
    SetObservability(obs_);
  }

  /// Asynchronously replicates the *delta* of `desc` from `primary_node`
  /// through the instance's replica chain. `images` is the per-vnode
  /// snapshot stored at the replicas for recovery. `done` fires
  /// exactly once: with OK when the head receives the tail's
  /// acknowledgment, or with an error `Status` when a chain member (or the
  /// primary) fail-stops mid-transfer.
  void ReplicateCheckpoint(const std::string& op, uint32_t subtask,
                           int primary_node,
                           const state::CheckpointDescriptor& desc,
                           std::map<uint32_t, state::VnodeImage> images,
                           std::function<void(Status)> done);

  /// Latest state fully replicated on `node` for the instance, or nullptr
  /// when that node holds no (complete) copy. Dead nodes never advertise
  /// replicas, whatever the catalog remembers.
  ///
  /// Catalog lookups return pointers to stable map nodes; a concurrent
  /// re-replication of the *same* instance may overwrite the entry's
  /// fields, so callers copy what they need promptly after the lookup.
  const ReplicaState* ReplicaOn(const std::string& op, uint32_t subtask,
                                int node) const;

  /// The live node holding the newest complete copy of the instance's
  /// state, or -1 when no live replica exists.
  int LiveReplicaNode(const std::string& op, uint32_t subtask) const;

  /// Newest live copy of one *vnode* across every instance of `op` (the
  /// vnode may have been checkpointed under a different instance than the
  /// one now losing it — e.g. a move chain interrupted by failures).
  /// Prefers `preferred_node` among equally fresh copies; sets *holder to
  /// the node found (-1 when none). Returns nullptr when no live node
  /// holds the vnode.
  const ReplicaState* FindVnodeReplica(const std::string& op, uint32_t vnode,
                                       int preferred_node, int* holder) const;

  /// Drops every catalog entry hosted on `node` (fail-stop cleanup: the
  /// copies died with the node's disks).
  void PurgeNode(int node);

  /// Restores the replication factor after a group repair: every live
  /// member of the instance's *current* group that lags the newest live
  /// copy receives a full catch-up transfer from the node holding it
  /// (paper §4.2.3 — the substitute "fetches the respective state").
  /// `done` fires once all catch-up copies are durable (OK) or a target
  /// died mid-copy (error).
  void CatchUpReplicas(const std::string& op, uint32_t subtask,
                       std::function<void(Status)> done);

  /// Seeds a fully-replicated checkpoint without modeling any transfer
  /// (pre-experiment state, "previous checkpoints already replicated").
  void SeedReplica(const std::string& op, uint32_t subtask,
                   const state::CheckpointDescriptor& desc,
                   std::map<uint32_t, state::VnodeImage> images);

  /// Fault-injection probe: called with a named protocol event
  /// ("replication_transfer", "replication_chunk") at each occurrence —
  /// wire it to `sim::FaultInjector::Notify` to crash mid-chain.
  void SetFaultProbe(std::function<void(const std::string& event)> probe) {
    probe_ = std::move(probe);
  }

  /// Installs the observability context (defaults to the process-wide one).
  /// Must be called before any transfer starts: the per-chunk counters are
  /// resolved here, eagerly, so the hot chunk path never looks them up.
  void SetObservability(obs::Observability* o) {
    obs_ = o;
    chunks_metric_ = obs_->metrics().GetCounter("rhino_replication_chunks_total");
    chunk_bytes_metric_ =
        obs_->metrics().GetCounter("rhino_replication_bytes_total");
  }

  // ---- diagnostics ----
  uint64_t bytes_replicated() const { return bytes_replicated_; }
  int max_in_flight_chunks() const { return max_in_flight_; }
  uint64_t checkpoints_replicated() const { return checkpoints_replicated_; }
  uint64_t transfers_aborted() const { return transfers_aborted_; }
  uint64_t catchup_transfers() const { return catchup_transfers_; }
  uint64_t catchup_bytes() const { return catchup_bytes_; }
  /// Chunk retransmission rounds triggered by the stall watchdog.
  uint64_t retransmit_rounds() const { return retransmit_rounds_; }

 private:
  struct Transfer;
  struct CatchUp;
  void PumpHop(std::shared_ptr<Transfer> transfer, size_t hop);
  /// Completes `transfer` with an error exactly once.
  void AbortTransfer(const std::shared_ptr<Transfer>& transfer, Status status);
  /// Schedules the next stall check `delay` from now.
  void ArmWatchdog(std::shared_ptr<Transfer> transfer, SimTime delay);
  /// Runs one catch-up copy attempt (with its timeout/retry guard).
  void AttemptCatchUp(std::shared_ptr<CatchUp> ctl);

  static std::string Key(const std::string& op, uint32_t subtask) {
    return op + "#" + std::to_string(subtask);
  }

  sim::Cluster* cluster_;
  ReplicationManager* manager_;
  ReplicationOptions options_;
  std::function<void(const std::string&)> probe_;
  obs::Observability* obs_ = obs::Observability::Default();
  /// Per-chunk counter handles, fetched once per registry (chunk sends are
  /// the runtime's hot path).
  obs::Counter* chunks_metric_ = nullptr;
  obs::Counter* chunk_bytes_metric_ = nullptr;

  /// replica catalog: instance key -> node -> state
  std::map<std::string, std::map<int, ReplicaState>> replicas_;
  std::map<int, int> disk_cursor_;

  uint64_t bytes_replicated_ = 0;
  uint64_t checkpoints_replicated_ = 0;
  int max_in_flight_ = 0;
  uint64_t transfers_aborted_ = 0;
  uint64_t catchup_transfers_ = 0;
  uint64_t catchup_bytes_ = 0;
  uint64_t retransmit_rounds_ = 0;
};

}  // namespace rhino::rhino
