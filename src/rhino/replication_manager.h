#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/observability.h"

/// \file replication_manager.h
/// Rhino's Replication Manager (paper §3.3, §4.2.2 phase 1).
///
/// Runs on the coordinator. For every stateful instance it builds a
/// *replica group*: a chain of `r` distinct workers (never the instance's
/// home worker) that will hold the secondary copies of the instance's
/// checkpointed state. Groups are assigned with a greedy bin-packing
/// heuristic that balances the expected replicated bytes per worker, so a
/// failure of any one worker spreads its recovery across the cluster.

namespace rhino::rhino {

/// Identity and placement weight of one stateful instance.
struct InstanceInfo {
  std::string op_name;
  uint32_t subtask = 0;
  int home_node = 0;
  /// Expected state size (bytes); drives the bin packing.
  uint64_t weight = 1;
};

/// One group rewritten by `HandleWorkerFailure`: the instance that lost a
/// replica holder and the worker substituted in (-1 when no eligible live
/// worker remained and the group shrank instead). The caller runs a
/// catch-up re-replication towards the substitute to restore factor r.
struct GroupRepair {
  std::string op_name;
  uint32_t subtask = 0;
  int substitute = -1;
};

/// Coordinator-side replica-group construction and repair.
class ReplicationManager {
 public:
  /// `workers`: nodes eligible to host secondary copies.
  /// `replication_factor`: r, the number of secondary copies per instance
  /// (the paper evaluates r=1: one local primary + one remote secondary,
  /// mirroring HDFS replication 2).
  ReplicationManager(std::vector<int> workers, int replication_factor)
      : workers_(std::move(workers)), replication_factor_(replication_factor) {
    RHINO_CHECK_GE(static_cast<int>(workers_.size()), replication_factor_ + 1)
        << "need at least r+1 workers";
  }

  /// (Re)builds every replica group with greedy bin packing: instances in
  /// descending weight order each take the `r` least-loaded live workers
  /// other than their home. When fewer than `r` eligible workers exist the
  /// group is built smaller (degraded) with a warning instead of aborting —
  /// the job keeps running at a reduced replication factor.
  void BuildGroups(std::vector<InstanceInfo> instances);

  /// Instance keys ("op#subtask") whose current group is smaller than the
  /// requested replication factor.
  std::vector<std::string> degraded_groups() const;

  /// The replica chain of an instance (ordered: head first). Returned by
  /// value: `HandleWorkerFailure` rewrites groups in place.
  std::vector<int> Group(const std::string& op, uint32_t subtask) const;

  bool HasGroup(const std::string& op, uint32_t subtask) const {
    return groups_.count(Key(op, subtask)) > 0;
  }

  /// Fail-stop repair (paper §4.2.3): removes `failed` from every group and
  /// substitutes the least-loaded surviving worker. Returns one entry per
  /// rewritten group so the replication runtime can catch the substitute up
  /// to the newest replicated checkpoint.
  std::vector<GroupRepair> HandleWorkerFailure(int failed);

  /// Replicated-bytes load currently assigned to a worker.
  uint64_t WorkerLoad(int node) const;

  int replication_factor() const { return replication_factor_; }
  const std::vector<int>& workers() const { return workers_; }

  /// Installs the observability context (defaults to the process-wide one).
  void SetObservability(obs::Observability* o) { obs_ = o; }

 private:
  static std::string Key(const std::string& op, uint32_t subtask) {
    return op + "#" + std::to_string(subtask);
  }

  std::vector<int> workers_;
  int replication_factor_;
  obs::Observability* obs_ = obs::Observability::Default();
  std::map<std::string, std::vector<int>> groups_;
  std::map<std::string, InstanceInfo> infos_;
  std::map<int, uint64_t> load_;
};

}  // namespace rhino::rhino
