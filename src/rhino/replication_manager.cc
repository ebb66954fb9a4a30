#include "rhino/replication_manager.h"

#include <algorithm>

namespace rhino::rhino {

void ReplicationManager::BuildGroups(std::vector<InstanceInfo> instances) {
  groups_.clear();
  infos_.clear();
  load_.clear();
  for (int w : workers_) load_[w] = 0;

  // Heaviest instances first so big replicas land before bins fill up.
  std::stable_sort(instances.begin(), instances.end(),
                   [](const InstanceInfo& a, const InstanceInfo& b) {
                     return a.weight > b.weight;
                   });

  for (const InstanceInfo& info : instances) {
    // Candidates: all workers except the home node, least-loaded first.
    std::vector<int> candidates;
    for (int w : workers_) {
      if (w != info.home_node) candidates.push_back(w);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [this](int a, int b) { return load_[a] < load_[b]; });

    std::vector<int> group;
    for (int w : candidates) {
      if (static_cast<int>(group.size()) == replication_factor_) break;
      group.push_back(w);
      load_[w] += info.weight;
    }
    if (static_cast<int>(group.size()) < replication_factor_) {
      // Graceful degradation: too few eligible workers (e.g. after
      // cascading failures). Run with fewer copies rather than aborting;
      // degraded_groups() surfaces the shortfall.
      RHINO_LOG(Warn) << "degraded replica group for " << info.op_name << "#"
                      << info.subtask << ": " << group.size() << "/"
                      << replication_factor_ << " copies";
    }
    std::string key = Key(info.op_name, info.subtask);
    groups_[key] = std::move(group);
    infos_[key] = info;
  }
  obs_->metrics()
      .GetGauge("rhino_replication_degraded_groups")
      ->Set(static_cast<double>(degraded_groups().size()));
}

std::vector<int> ReplicationManager::Group(const std::string& op,
                                           uint32_t subtask) const {
  auto it = groups_.find(Key(op, subtask));
  RHINO_CHECK(it != groups_.end())
      << "no replica group for " << op << "#" << subtask;
  return it->second;
}

std::vector<GroupRepair> ReplicationManager::HandleWorkerFailure(int failed) {
  std::vector<GroupRepair> repairs;
  workers_.erase(std::remove(workers_.begin(), workers_.end(), failed),
                 workers_.end());
  load_.erase(failed);
  for (auto& [key, group] : groups_) {
    auto pos = std::find(group.begin(), group.end(), failed);
    if (pos == group.end()) continue;
    const InstanceInfo& info = infos_[key];
    // Substitute: least-loaded live worker not already in the group and
    // not the home node.
    int best = -1;
    for (int w : workers_) {
      if (w == info.home_node) continue;
      if (std::find(group.begin(), group.end(), w) != group.end()) continue;
      if (best < 0 || load_[w] < load_[best]) best = w;
    }
    if (best < 0) {
      // Degraded group: fewer copies than requested.
      group.erase(pos);
      RHINO_LOG(Warn) << "replica group of " << key
                      << " degraded to " << group.size() << " copies";
    } else {
      *pos = best;
      load_[best] += info.weight;
    }
    repairs.push_back(GroupRepair{info.op_name, info.subtask, best});
    obs_->trace().Emit("replication", "group_repair", key, 0,
                       {{"substitute", best}});
  }
  obs_->metrics()
      .GetCounter("rhino_replication_group_repairs_total")
      ->Increment(repairs.size());
  obs_->metrics()
      .GetGauge("rhino_replication_degraded_groups")
      ->Set(static_cast<double>(degraded_groups().size()));
  return repairs;
}

std::vector<std::string> ReplicationManager::degraded_groups() const {
  std::vector<std::string> degraded;
  for (const auto& [key, group] : groups_) {
    if (static_cast<int>(group.size()) < replication_factor_) {
      degraded.push_back(key);
    }
  }
  return degraded;
}

uint64_t ReplicationManager::WorkerLoad(int node) const {
  auto it = load_.find(node);
  return it == load_.end() ? 0 : it->second;
}

}  // namespace rhino::rhino
