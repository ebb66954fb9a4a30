#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/executor.h"
#include "sim/simulation.h"

/// \file sim_executor.h
/// Deterministic executor backend: a thin adapter over the discrete-event
/// kernel. Every `Schedule`/`ScheduleAt`/`Post*` call forwards straight to
/// `sim::Simulation`, allocating kernel sequence numbers in the exact order
/// the calls are made — so a program ported from raw `sim::Simulation` to
/// `SimExecutor` keeps bit-identical event ordering. Serial queues need no
/// extra machinery here: the kernel runs one event at a time, which already
/// satisfies the TaskQueue contract.
///
/// The kernel conveniences (`Run`, `Step`, `PendingEvents`) are re-exposed
/// so tests and benches that drove a `sim::Simulation` directly port with a
/// type change only.

namespace rhino::runtime {

class SimExecutor final : public Executor {
 public:
  SimExecutor() = default;

  // ---- Executor contract ----
  SimTime Now() const override { return sim_.Now(); }
  void ScheduleAt(SimTime when, Callback fn) override {
    sim_.ScheduleAt(when, std::move(fn));
  }
  TaskQueue* CreateQueue(const std::string& name) override {
    queues_.push_back(std::make_unique<SimTaskQueue>(this, name));
    return queues_.back().get();
  }
  void RunUntil(SimTime t) override { sim_.RunUntil(t); }
  void Drain() override { sim_.Run(); }
  uint64_t clamped_schedules() const override {
    return sim_.clamped_schedules();
  }

  // ---- kernel conveniences ----
  /// Runs until the event queue drains.
  void Run() { sim_.Run(); }
  /// Runs one event; returns false when the queue is empty.
  bool Step() { return sim_.Step(); }
  /// Number of pending events.
  size_t PendingEvents() const { return sim_.PendingEvents(); }
  /// The underlying kernel.
  sim::Simulation& kernel() { return sim_; }
  const sim::Simulation& kernel() const { return sim_; }

 private:
  /// All queues forward to the kernel: one global event order, FIFO within
  /// a timestamp — a strict refinement of the per-queue serial contract.
  class SimTaskQueue final : public TaskQueue {
   public:
    using TaskQueue::TaskQueue;
    void PostAt(SimTime when, Callback fn) override {
      executor_->ScheduleAt(when, std::move(fn));
    }
  };

  sim::Simulation sim_;
  std::vector<std::unique_ptr<SimTaskQueue>> queues_;
};

}  // namespace rhino::runtime
