#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/engine.h"
#include "dataflow/graph.h"
#include "dfs/dfs.h"
#include "rhino/replication_manager.h"
#include "rhino/replication_runtime.h"

/// \file handover_manager.h
/// Rhino's Handover Manager (paper §3.3) and the state-transfer side of
/// the handover protocol (paper §4.1.2 step 3).
///
/// The HM triggers reconfigurations (load balancing, rescaling, failure
/// recovery), monitors their completion, and — as the engine's
/// `HandoverDelegate` — performs the state movement at each origin's
/// alignment point:
///
///  * live origin: take an incremental checkpoint; ship only the tail
///    delta when the target's worker already holds the replicated state
///    (Rhino), or fetch through the DFS (the RhinoDFS variant);
///  * failed origin: the target restores the moved virtual nodes from the
///    secondary copy on its own disks (local hard links, no network).

namespace rhino::rhino {

struct HandoverOptions {
  enum class FetchMode {
    kLocalReplica,  ///< Rhino: state-centric replicas, local fetch
    kDfs,           ///< RhinoDFS: block-centric fetch through the DFS
  };
  FetchMode fetch_mode = FetchMode::kLocalReplica;
  /// Required for kDfs.
  dfs::DistributedFileSystem* dfs = nullptr;
  /// Catalog of DFS paths per instance (filled by DfsCheckpointStorage).
  std::function<std::vector<std::string>(const std::string& op,
                                         uint32_t subtask)>
      dfs_paths;
  /// Latest checkpoint content per instance when fetching through the DFS
  /// (the data-plane complement of dfs_paths).
  std::function<const ReplicaState*(const std::string& op, uint32_t subtask)>
      dfs_replica_lookup;

  /// Local-fetch cost: hard links + metadata only (paper ~0.2 s).
  SimTime local_fetch_us = 200 * kMillisecond;
  /// RocksDB-style state loading: open files + read metadata
  /// (paper: 1.3-1.5 s regardless of size).
  SimTime load_fixed_us = 1300 * kMillisecond;
  SimTime load_per_file_us = 2 * kMillisecond;
  /// Failure-detection + planning delay before a recovery handover.
  SimTime recovery_scheduling_us = 2500 * kMillisecond;

  /// Retry policy of the bulk state shipments (migration tail, remote
  /// replica fetch): a shipment that is not durable at the target within a
  /// generous multiple of its fault-free duration is resent with jittered
  /// backoff (injected partitions drop state transfers). The deadline
  /// bounds continuous failure, not total shipment time; exhaustion
  /// abandons the move / degrades the restore to upstream replay.
  runtime::RetryOptions retry = ReplicationOptions::DefaultRetry();
};

/// Per-handover observability (drives Table 1's time breakdown).
struct HandoverStats {
  uint64_t handover_id = 0;
  SimTime triggered_at = 0;
  /// Time spent fetching state (max across moves).
  SimTime state_fetch_us = 0;
  /// Time spent loading state into the backend (max across moves).
  SimTime state_load_us = 0;
  uint64_t bytes_transferred = 0;
  bool local_fetch = false;
  int moves = 0;
};

/// Coordinator for on-the-fly reconfigurations.
class HandoverManager : public dataflow::HandoverDelegate {
 public:
  HandoverManager(dataflow::Engine* engine, ReplicationManager* manager,
                  ReplicationRuntime* runtime,
                  HandoverOptions options = HandoverOptions())
      : engine_(engine),
        manager_(manager),
        runtime_(runtime),
        options_(options) {
    engine_->SetHandoverDelegate(this);
  }

  /// Starts a handover moving `moves` within `op` (paper §3.5.1/§3.5.2:
  /// load balancing and rescaling are the same mechanism). Returns the
  /// handover id, or 0 when the engine refused it because an uncompleted
  /// handover still moves one of its vnodes.
  uint64_t TriggerReconfiguration(const std::string& op,
                                  std::vector<dataflow::HandoverMove> moves);

  /// Load balancing helper: moves `fraction` of the origin's virtual
  /// nodes to the target instance.
  uint64_t TriggerLoadBalance(const std::string& op, uint32_t origin,
                              uint32_t target, double fraction = 0.5);

  /// Fail-stop recovery (paper §3.5.3): purges the dead node's catalog
  /// entries, restarts its sources and sinks on live workers, rewinds all
  /// sources of affected topics to the last completed checkpoint, hands
  /// every virtual node *effectively* owned by a dead instance (routing
  /// table plus in-flight handovers) to a live target — preferring workers
  /// that hold the replicated state — and repairs the replica groups,
  /// catching substitutes up to the newest replicated checkpoint. Returns
  /// the ids of the recovery handovers (one per stateful op). Degrades
  /// gracefully (empty result, warning) when no live capacity remains.
  std::vector<uint64_t> RecoverFailedNode(int node);

  // HandoverDelegate:
  void TransferState(const dataflow::HandoverSpec& spec,
                     const dataflow::HandoverMove& move,
                     dataflow::StatefulInstance* origin,
                     dataflow::StatefulInstance* target,
                     std::function<void()> done) override;

  const HandoverStats* StatsFor(uint64_t handover_id) const;
  const HandoverOptions& options() const { return options_; }

  // ---- diagnostics ----
  /// Moves abandoned because the target's worker fail-stopped mid-handover
  /// (the origin kept its state).
  uint64_t abandoned_moves() const { return abandoned_moves_; }
  /// Failed-origin restores that found no live copy for ≥1 vnode and fell
  /// back to upstream replay only.
  uint64_t degraded_restores() const { return degraded_restores_; }

 private:
  uint64_t NextHandoverId() { return next_handover_id_++; }

  /// Ships `bytes` from `src` to `dst` and spools them to the target's
  /// disk, retrying per `options_.retry` when an injected fault swallows
  /// the shipment. Exactly one of `deliver` (durable at the target) or
  /// `give_up` (a chain member died, or the retry budget ran out) fires.
  void ShipStateWithRetry(int src, int dst, uint64_t bytes,
                          uint64_t handover_id,
                          std::function<void()> deliver,
                          std::function<void(Status)> give_up);

  /// Applies `fn` to the stats row of `id`.
  template <typename Fn>
  void UpdateStats(uint64_t id, Fn&& fn) {
    fn(stats_[id]);
  }

  dataflow::Engine* engine_;
  ReplicationManager* manager_;
  ReplicationRuntime* runtime_;
  HandoverOptions options_;
  uint64_t next_handover_id_ = 1;
  uint64_t next_mini_checkpoint_ = 1ull << 32;  // disjoint ids
  /// Map nodes are stable: StatsFor hands out pointers that outlive later
  /// insertions; read their fields only once the handover resolved.
  std::map<uint64_t, HandoverStats> stats_;
  uint64_t abandoned_moves_ = 0;
  uint64_t degraded_restores_ = 0;
};

}  // namespace rhino::rhino
