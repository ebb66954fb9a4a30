#pragma once

#include <functional>
#include <memory>
#include <string>

#include "dataflow/engine.h"
#include "dataflow/graph.h"
#include "rhino/checkpoint_storage.h"

/// \file flink_restart.h
/// The Flink baseline: restart-based reconfiguration (paper §2.2.1, §3.1).
///
/// Flink reconfigures (after a failure or for rescaling) by cancelling the
/// whole job, redeploying every task, materializing each instance's state
/// from the last global checkpoint in the DFS — local blocks off disk,
/// remote blocks over the network — and resuming from the checkpointed
/// source offsets, replaying the backlog from the upstream backup. The
/// latency spikes of Figures 1/4/6 and the Flink rows of Table 1 come
/// from exactly this path.

namespace rhino::baselines {

/// Builds a fresh state backend for an instance during restore.
using BackendFactory = std::function<std::unique_ptr<state::StateBackend>(
    const std::string& op, uint32_t subtask)>;

/// Time breakdown of one restart (Table 1 columns).
struct RestartBreakdown {
  SimTime scheduling_us = 0;
  SimTime state_fetch_us = 0;
  SimTime state_load_us = 0;
  SimTime Total() const {
    return scheduling_us + state_fetch_us + state_load_us;
  }
};

/// Stop-the-world restart controller.
class FlinkRestartController {
 public:
  FlinkRestartController(dataflow::Engine* engine,
                         rhino::DfsCheckpointStorage* storage,
                         BackendFactory backend_factory)
      : engine_(engine),
        storage_(storage),
        backend_factory_(std::move(backend_factory)) {}

  /// Full restart from the last completed checkpoint. `failed_node >= 0`
  /// reassigns that node's instances to live workers first. `done`
  /// receives the per-phase breakdown once processing has resumed.
  void RestartFromLastCheckpoint(int failed_node,
                                 std::function<void(RestartBreakdown)> done);

 private:
  void RestoreStateAndResume(std::function<void()> resumed);

  dataflow::Engine* engine_;
  rhino::DfsCheckpointStorage* storage_;
  BackendFactory backend_factory_;
};

}  // namespace rhino::baselines
