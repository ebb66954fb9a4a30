#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "sim/cluster.h"

/// \file resource_monitor.h
/// Periodic sampling of cluster resource utilization (Figure 5): CPU,
/// network, disk utilization plus memory/state footprint, aggregated over
/// a set of nodes.

namespace rhino::metrics {

/// One utilization sample across the monitored nodes.
struct ResourceSample {
  SimTime time = 0;
  double cpu_util = 0;   ///< busy core-time / (cores * interval), 0..1
  double net_util = 0;   ///< (tx+rx busy) / (2 * interval), 0..1
  double disk_util = 0;  ///< disk busy / (disks * interval), 0..1
  uint64_t net_bytes = 0;   ///< bytes through NICs in the interval
  uint64_t disk_bytes = 0;  ///< bytes through disks in the interval
  uint64_t memory_bytes = 0;
};

/// Samples utilization deltas every `interval` of simulated time.
class ResourceMonitor {
 public:
  ResourceMonitor(sim::Cluster* cluster, std::vector<int> nodes,
                  SimTime interval = kSecond)
      : cluster_(cluster), nodes_(std::move(nodes)), interval_(interval) {}

  /// Extra memory to report (e.g. modeled operator state), queried at each
  /// sample.
  void SetMemoryProbe(std::function<uint64_t()> probe) {
    memory_probe_ = std::move(probe);
  }

  void Start() {
    running_ = true;
    Snapshot(&prev_);
    Tick();
  }
  void Stop() { running_ = false; }

  const std::vector<ResourceSample>& samples() const { return samples_; }

 private:
  struct Counters {
    SimTime cpu_busy = 0;
    SimTime net_busy = 0;
    SimTime disk_busy = 0;
    uint64_t net_bytes = 0;
    uint64_t disk_bytes = 0;
  };

  void Snapshot(Counters* out) const {
    *out = Counters();
    for (int id : nodes_) {
      sim::Node& node = cluster_->node(id);
      out->cpu_busy += node.cpu_busy_us();
      out->net_busy += node.tx().busy_us() + node.rx().busy_us();
      out->net_bytes += node.tx().bytes_served() + node.rx().bytes_served();
      for (int d = 0; d < node.num_disks(); ++d) {
        out->disk_busy += node.disk(d).read_queue().busy_us() +
                          node.disk(d).write_queue().busy_us();
        out->disk_bytes += node.disk(d).read_queue().bytes_served() +
                           node.disk(d).write_queue().bytes_served();
      }
    }
  }

  void Tick() {
    if (!running_) return;
    cluster_->sim()->Schedule(interval_, [this] {
      if (!running_) return;
      Counters now;
      Snapshot(&now);
      ResourceSample sample;
      sample.time = cluster_->sim()->Now();
      double n = static_cast<double>(nodes_.size());
      double interval = static_cast<double>(interval_);
      int cores = cluster_->node(nodes_[0]).spec().cores;
      int disks = cluster_->node(nodes_[0]).spec().num_disks;
      sample.cpu_util = static_cast<double>(now.cpu_busy - prev_.cpu_busy) /
                        (interval * n * cores);
      sample.net_util = static_cast<double>(now.net_busy - prev_.net_busy) /
                        (interval * n * 2);
      sample.disk_util = static_cast<double>(now.disk_busy - prev_.disk_busy) /
                         (interval * n * disks * 2);
      sample.net_bytes = now.net_bytes - prev_.net_bytes;
      sample.disk_bytes = now.disk_bytes - prev_.disk_bytes;
      for (int id : nodes_) {
        sample.memory_bytes += cluster_->node(id).memory_used();
      }
      if (memory_probe_) sample.memory_bytes += memory_probe_();
      samples_.push_back(sample);
      prev_ = now;
      Tick();
    });
  }

  sim::Cluster* cluster_;
  std::vector<int> nodes_;
  SimTime interval_;
  bool running_ = false;
  Counters prev_;
  std::vector<ResourceSample> samples_;
  std::function<uint64_t()> memory_probe_;
};

}  // namespace rhino::metrics
