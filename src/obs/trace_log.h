#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/units.h"

/// \file trace_log.h
/// Structured log of protocol events on the simulated clock.
///
/// Every interesting protocol transition — handover phases (marker
/// injection, alignment, buffering hold/release, state fetch/load, gate
/// rewires), chain replication (transfer start/ack/abort, catch-up),
/// checkpoints (trigger/ship/complete/abort), and fault-injector crashes —
/// is recorded as a `TraceEvent` with the simulated-time stamp and, for
/// spans, a duration. Tests query the log to assert protocol *shape*
/// ("no record delivered inside a buffering hold") instead of only end
/// state; exporters turn it into Chrome `trace_event` JSON for visual
/// timeline debugging (see exporters.h).
///
/// Thread safety: recording (Emit/BeginSpan/EndSpan/EmitSpan) serializes
/// on an internal mutex so a networked node's handler, replicator and
/// transport threads can trace concurrently; the enabled flags are
/// lock-free so a disabled log costs one relaxed load. Queries (`events`,
/// `Select`, `Spans`) read without the lock and are only valid once
/// writers are quiescent — which is when tests and exporters run.

namespace rhino::obs {

/// One protocol event. `duration_us < 0` means an instant event; open
/// spans carry `duration_us == kOpenSpan` until ended.
struct TraceEvent {
  static constexpr SimTime kInstant = -1;
  static constexpr SimTime kOpenSpan = -2;

  SimTime time_us = 0;
  SimTime duration_us = kInstant;
  std::string category;  ///< "handover" | "checkpoint" | "replication" | ...
  std::string name;      ///< "buffering_hold", "transfer", "crash", ...
  std::string scope;     ///< instance key "op#subtask", "node3", or "engine"
  uint64_t id = 0;       ///< correlation id (handover id, checkpoint id, ...)
  std::map<std::string, int64_t> args;

  bool is_span() const { return duration_us >= 0 || duration_us == kOpenSpan; }
  bool is_open() const { return duration_us == kOpenSpan; }
  SimTime end_us() const { return time_us + (duration_us > 0 ? duration_us : 0); }
};

/// Append-only event log with span bookkeeping and query helpers.
class TraceLog {
 public:
  /// Timestamps come from this clock (wire it to `sim::Simulation::Now`).
  /// Without a clock every event is stamped 0.
  void SetClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  /// Runtime toggle: when disabled, Emit/BeginSpan/EndSpan are no-ops
  /// (one branch on the hot path, no allocation).
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opt-in firehose: per-batch data events (used by protocol-shape tests;
  /// too hot for TB-scale benches). Off by default.
  void set_data_events(bool on) {
    data_events_.store(on, std::memory_order_relaxed);
  }
  bool data_events() const {
    return enabled() && data_events_.load(std::memory_order_relaxed);
  }

  /// Records an instant event.
  void Emit(std::string category, std::string name, std::string scope,
            uint64_t id = 0, std::map<std::string, int64_t> args = {});

  /// Opens a span; returns a handle for EndSpan (0 when disabled).
  uint64_t BeginSpan(std::string category, std::string name, std::string scope,
                     uint64_t id = 0, std::map<std::string, int64_t> args = {});

  /// Closes a span: duration = now - begin. Extra args are merged in.
  /// Unknown/zero handles are ignored (the log may have been disabled or
  /// cleared mid-span).
  void EndSpan(uint64_t span, std::map<std::string, int64_t> extra_args = {});

  /// Records a completed span in one call (for code that already knows the
  /// start time, e.g. the engine completing a handover it triggered).
  void EmitSpan(std::string category, std::string name, std::string scope,
                SimTime start_us, SimTime end_us, uint64_t id = 0,
                std::map<std::string, int64_t> args = {});

  // ------------------------------------------------------------- queries --

  const std::deque<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  void Clear();

  /// Events matching category (and name, unless empty), in time order.
  std::vector<const TraceEvent*> Select(const std::string& category,
                                        const std::string& name = "") const;

  /// Completed + still-open spans matching category/name.
  std::vector<const TraceEvent*> Spans(const std::string& category,
                                       const std::string& name = "") const;

  size_t Count(const std::string& category, const std::string& name = "") const {
    return Select(category, name).size();
  }

 private:
  SimTime Now() const { return clock_ ? clock_() : 0; }

  std::atomic<bool> enabled_{true};
  std::atomic<bool> data_events_{false};
  std::function<SimTime()> clock_;
  mutable std::mutex mu_;
  std::deque<TraceEvent> events_;
  uint64_t next_span_ = 1;
  std::map<uint64_t, size_t> open_spans_;  ///< handle -> index into events_
};

}  // namespace rhino::obs
