#pragma once

#include <algorithm>

#include "dataflow/engine.h"

/// \file adaptive_scheduler.h
/// Adaptive checkpoint scheduling — the paper's §5.6 future-work item.
///
/// Rhino's replication runtime becomes a bottleneck when an incremental
/// checkpoint grows large (the paper estimates trouble above ~50 GB per
/// instance). A fixed interval cannot track a varying ingest rate: too
/// long and the deltas (and the tail a handover must ship) balloon; too
/// short and the constant alignment/replication overhead hurts steady
/// processing. This scheduler closes the loop: after every completed
/// checkpoint it rescales the interval so the *observed* delta per
/// checkpoint approaches a byte target.

namespace rhino::rhino {

struct AdaptiveSchedulerOptions {
  /// Desired aggregate delta per checkpoint (across all instances).
  uint64_t target_delta_bytes = 32ull * 1024 * 1024 * 1024;
  SimTime min_interval = 15 * kSecond;
  SimTime max_interval = 10 * kMinute;
  SimTime initial_interval = 2 * kMinute;
  /// Damping: fraction of the computed correction applied per step (1 =
  /// jump straight to the estimate; lower = smoother convergence).
  double gain = 0.5;
};

/// Drives Engine::TriggerCheckpoint at a self-tuned cadence.
class AdaptiveCheckpointScheduler {
 public:
  AdaptiveCheckpointScheduler(dataflow::Engine* engine,
                              AdaptiveSchedulerOptions options = {})
      : engine_(engine),
        options_(options),
        interval_(options.initial_interval) {}

  /// Starts the loop. Replaces any fixed periodic checkpointing — do not
  /// also call Engine::StartPeriodicCheckpoints.
  void Start() {
    running_ = true;
    Tick();
  }
  void Stop() { running_ = false; }

  SimTime current_interval() const { return interval_; }
  uint64_t last_delta_bytes() const { return last_delta_; }

 private:
  // Tick and the completion observer are events of the simulation kernel.
  void Tick() {
    if (!running_) return;
    engine_->sim()->Schedule(interval_, [this] {
      if (!running_) return;
      if (!engine_->checkpoint_in_flight()) {
        uint64_t id = engine_->TriggerCheckpoint();
        ObserveWhenComplete(id);
      }
      Tick();
    });
  }

  void ObserveWhenComplete(uint64_t id) {
    // Poll cheaply on the simulated clock; the checkpoint completes within
    // a few seconds of simulated time.
    engine_->sim()->Schedule(kSecond, [this, id] {
      const dataflow::CheckpointRecord* record = engine_->FindCheckpoint(id);
      if (record == nullptr || record->aborted) return;
      if (!record->completed) {
        ObserveWhenComplete(id);
        return;
      }
      uint64_t delta = 0;
      for (const auto& [_, desc] : record->descriptors) {
        delta += desc.DeltaBytes();
      }
      last_delta_ = delta;
      if (delta == 0) return;  // idle stream: keep the current cadence
      // interval' = interval * (target / delta), damped and clamped.
      double scale = static_cast<double>(options_.target_delta_bytes) /
                     static_cast<double>(delta);
      double damped = 1.0 + options_.gain * (scale - 1.0);
      auto next = static_cast<SimTime>(static_cast<double>(interval_) * damped);
      interval_ = std::clamp(next, options_.min_interval, options_.max_interval);
    });
  }

  dataflow::Engine* engine_;
  AdaptiveSchedulerOptions options_;
  SimTime interval_;
  uint64_t last_delta_ = 0;
  bool running_ = false;
};

}  // namespace rhino::rhino
