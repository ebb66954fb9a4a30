#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/units.h"

/// \file executor.h
/// The simulator's clock + scheduler seam: the in-process engine, the
/// replication chains, the handover protocol, the DFS and the bench
/// harness schedule through it instead of naming the discrete-event
/// kernel.
///
/// One backend implements the contract: `SimExecutor`, a thin adapter over
/// the deterministic simulation kernel (`sim::Simulation`). It is
/// single-threaded; events run in strict (time, submission-order)
/// sequence, so every experiment is exactly reproducible. The networked
/// runtime (`net/`) runs on OS threads and sockets and uses no executor.
///
/// ## Contract
///
///  * `Now()` is monotonically non-decreasing (microseconds).
///  * `Schedule(delay, fn)` == `ScheduleAt(Now() + delay, fn)`.
///  * `ScheduleAt` with a past deadline clamps to `Now()` and counts the
///    clamp in `clamped_schedules()` — misuse of the clock is observable.
///  * Two tasks posted to the same `TaskQueue` with equal deadlines run in
///    submission order (FIFO). Tasks on *different* queues with equal
///    deadlines run in submission order too.
///  * `Schedule`/`ScheduleAt` on the executor itself post to a default
///    serial queue, so directly scheduled callbacks never race each other.
///  * A callback may re-enter `Schedule`/`Post*` (including on its own
///    queue); the new task becomes eligible after the current one returns.
///  * `Drain()` runs until no task is queued or running — including timers
///    scheduled in the future. Must not be called from inside a callback.

namespace rhino::runtime {

class Executor;

/// A serial ("strand") queue: tasks posted to one queue execute in
/// deadline-then-FIFO order. Components of one worker node share that
/// node's queue, preserving intra-node ordering.
class TaskQueue {
 public:
  using Callback = std::function<void()>;

  TaskQueue(Executor* executor, std::string name)
      : executor_(executor), name_(std::move(name)) {}
  virtual ~TaskQueue() = default;

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Schedules `fn` on this queue at absolute time `when` (clamped to
  /// `Now()` if already past).
  virtual void PostAt(SimTime when, Callback fn) = 0;

  /// Schedules `fn` on this queue `delay` microseconds from now.
  void PostDelayed(SimTime delay, Callback fn);

  /// Schedules `fn` on this queue as soon as possible.
  void Post(Callback fn) { PostDelayed(0, std::move(fn)); }

  Executor* executor() const { return executor_; }
  const std::string& name() const { return name_; }

 protected:
  Executor* executor_;
  std::string name_;
};

/// Clock + scheduler interface.
class Executor {
 public:
  using Callback = std::function<void()>;

  virtual ~Executor() = default;

  /// Current (simulated) time in microseconds.
  virtual SimTime Now() const = 0;

  /// Schedules `fn` to run `delay` microseconds from now (delay >= 0) on
  /// the default serial queue.
  void Schedule(SimTime delay, Callback fn) {
    ScheduleAt(Now() + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `when` on the default serial queue
  /// (clamped to now; clamps are counted).
  virtual void ScheduleAt(SimTime when, Callback fn) = 0;

  /// Creates a serial queue owned by the executor. Queues live as long as
  /// the executor; components keep raw pointers.
  virtual TaskQueue* CreateQueue(const std::string& name) = 0;

  /// Advances to time `t`: runs all events with deadline <= t and sets
  /// the clock to t.
  virtual void RunUntil(SimTime t) = 0;

  /// Runs until no task is queued or running (timers included).
  virtual void Drain() = 0;

  /// Number of ScheduleAt/PostAt calls whose deadline was already in the
  /// past and got clamped to Now().
  virtual uint64_t clamped_schedules() const = 0;
};

inline void TaskQueue::PostDelayed(SimTime delay, Callback fn) {
  PostAt(executor_->Now() + delay, std::move(fn));
}

}  // namespace rhino::runtime
