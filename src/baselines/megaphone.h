#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "sim/cluster.h"

/// \file megaphone.h
/// Megaphone baseline (paper §2.2.2, §3.1).
///
/// Megaphone performs fine-grained state migration on Timely Dataflow:
/// state is kept **entirely in memory**, and a planned migration moves
/// key bins in batches — serialize into buffers, write to the network,
/// deserialize, restore. Two properties drive its behaviour in the
/// paper's evaluation and are reproduced mechanistically here:
///
///  1. migration throughput is bounded by per-node serialization plus the
///     network, so migration time grows linearly with state size;
///  2. there is no out-of-core state and no memory management for
///     migration buffers, so a workload whose state (plus in-flight
///     migration buffers) exceeds the cluster's memory dies with
///     out-of-memory — the paper observes this for > 500 GB on
///     8 x 64 GB workers.

namespace rhino::baselines {

/// Per-node serialization/deserialization throughput. Timely's Rust
/// pipelines serialize at several hundred MB/s per worker.
inline constexpr double kMegaphoneSerializeBytesPerSec = 900e6;

/// Outcome of one planned migration.
struct MegaphoneResult {
  bool oom = false;
  SimTime duration_us = 0;
  uint64_t bytes_moved = 0;
};

/// Analytic-plus-simulated model of Megaphone's migration path.
class MegaphoneModel {
 public:
  MegaphoneModel(sim::Cluster* cluster, std::vector<int> workers)
      : cluster_(cluster), workers_(std::move(workers)) {}

  /// Can a workload with this much operator state run at all? Timely
  /// keeps all state on the heap, so it must fit the aggregate memory.
  bool FitsMemory(uint64_t total_state_bytes) const;

  /// Migrates `bytes_per_origin[node]` away from each origin node, spread
  /// over the other workers; `num_bins` bins are moved (2^15 in the
  /// paper's setup). Fails fast with OOM when state + buffers exceed
  /// memory. `done` fires at completion with the result.
  void Migrate(const std::map<int, uint64_t>& bytes_per_origin,
               uint64_t total_state_bytes, int num_bins,
               std::function<void(MegaphoneResult)> done);

 private:
  sim::Cluster* cluster_;
  std::vector<int> workers_;
};

}  // namespace rhino::baselines
