#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/observability.h"

/// \file retry.h
/// Shared retry-with-backoff and deadline policy for protocol steps of
/// both runtimes: the simulator's replication chunks, catch-up copies,
/// handover state fetches, checkpoint persistence and DFS block shipments,
/// and the networked runtime's reconnects (`net::PipelinedChannel`).
///
/// Transient faults — injected I/O errors, dropped state transfers during
/// a network partition, slow devices — must degrade into bounded extra
/// latency, not a wedged protocol. Permanent faults (a fail-stopped chain
/// member) must keep surfacing as an error `Status` promptly. `Retrier`
/// encodes the boundary: each retry waits a jittered exponentially-growing
/// backoff, and the attempt budget / overall deadline decide when to stop
/// retrying and report the last error.
///
/// The ladder reads no clock: every call that needs the time takes it.
/// Simulator paths pass the kernel's clock, so retry timing is
/// deterministic for a fixed seed; the networked runtime passes
/// steady-clock microseconds and sleeps the delay itself. A `Retrier`
/// belongs to one logical operation on one thread and holds no lock.
///
/// Attempts are observable: every backoff increments the
/// `rhino_retry_attempts_total{what=...}` counter of the registry the
/// owning component passes in, so a chaos run shows which paths absorbed
/// faults (and a production-style dashboard would show retry storms).

namespace rhino::runtime {

struct RetryOptions {
  /// Backoff before the first retry; doubles after each subsequent
  /// failure, capped at `max_backoff_us`. Each wait is drawn within +-20%
  /// of that nominal step.
  SimTime initial_backoff_us = 10 * kMillisecond;
  SimTime max_backoff_us = 500 * kMillisecond;
  /// Total tries including the first; <= 0 means unbounded (deadline-only).
  int max_attempts = 6;
  /// Overall budget measured from `Arm()`; 0 = no deadline.
  SimTime deadline_us = 0;
};

/// Is this failure worth retrying? I/O errors and timeouts are transient
/// by convention; everything else (Aborted = fail-stop, NotFound,
/// InvalidArgument, ...) is permanent and must propagate.
inline bool IsTransientStatus(const Status& s) {
  return s.code() == StatusCode::kIOError ||
         s.code() == StatusCode::kTimedOut;
}

/// Backoff/deadline bookkeeping for one logical operation.
class Retrier {
 public:
  /// `now` arms the ladder (see `Arm`); `what` labels the attempt counter
  /// (e.g. "replication_chunk") in `obs`'s registry.
  Retrier(SimTime now, RetryOptions options, uint64_t seed, std::string what,
          obs::Observability* obs)
      : options_(options), rng_(seed), what_(std::move(what)) {
    attempts_metric_ = obs->metrics().GetCounter(
        "rhino_retry_attempts_total", {{"what", what_}});
    Arm(now);
  }

  /// (Re)starts the deadline clock at `now` and resets the backoff
  /// ladder — call when the operation begins, or after genuine forward
  /// progress.
  void Arm(SimTime now) {
    started_at_ = now;
    next_backoff_ = options_.initial_backoff_us;
    retries_ = 0;
  }

  /// Decides at `now` whether one more retry is allowed. On true, `*delay`
  /// holds the jittered backoff to wait and the attempt has been recorded
  /// (and counted in `rhino_retry_attempts_total`). On false the budget is
  /// exhausted; report the last error via `Exhausted()`.
  bool NextBackoff(SimTime now, SimTime* delay) {
    if (options_.max_attempts > 0 && retries_ + 1 >= options_.max_attempts) {
      return false;
    }
    if (DeadlinePassed(now)) return false;
    ++retries_;
    attempts_metric_->Increment();
    double base = static_cast<double>(next_backoff_);
    double lo = base * (1.0 - kJitter);
    double hi = base * (1.0 + kJitter);
    *delay = std::max<SimTime>(
        1, static_cast<SimTime>(lo + (hi - lo) * rng_.NextDouble()));
    next_backoff_ = std::min<SimTime>(
        options_.max_backoff_us, static_cast<SimTime>(base * kMultiplier));
    return true;
  }

  /// Retries since the last `Arm()`.
  int retries() const { return retries_; }

  /// The error to surface when the budget ran out at `now`: wraps `last`
  /// with the attempt history so the failure is diagnosable. TimedOut once
  /// the deadline has passed (or without a last error), else `last`'s code.
  Status Exhausted(SimTime now, const Status& last) const {
    std::string msg = what_ + " gave up after " +
                      std::to_string(retries_ + 1) + " attempts: " +
                      (last.ok() ? "no completion before deadline"
                                 : last.ToString());
    if (DeadlinePassed(now) || last.ok()) {
      return Status::TimedOut(std::move(msg));
    }
    return Status(last.code(), std::move(msg));
  }

 private:
  /// Each backoff doubles the last one, and is drawn uniform in
  /// [b*(1-kJitter), b*(1+kJitter)] to de-synchronize retry storms.
  static constexpr double kMultiplier = 2.0;
  static constexpr double kJitter = 0.2;

  bool DeadlinePassed(SimTime now) const {
    return options_.deadline_us > 0 &&
           now - started_at_ >= options_.deadline_us;
  }

  RetryOptions options_;
  Random rng_;
  std::string what_;
  obs::Counter* attempts_metric_ = nullptr;
  SimTime started_at_ = 0;
  SimTime next_backoff_ = 0;
  int retries_ = 0;
};

}  // namespace rhino::runtime
