#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/observability.h"
#include "runtime/executor.h"

/// \file retry.h
/// Shared retry-with-backoff and deadline policy for asynchronous protocol
/// steps (replication chunks, catch-up copies, handover state fetches,
/// checkpoint persistence).
///
/// Transient faults — injected I/O errors, dropped state transfers during
/// a network partition, slow devices — must degrade into bounded extra
/// latency, not a wedged protocol. Permanent faults (a fail-stopped chain
/// member) must keep surfacing as an error `Status` promptly. `Retrier`
/// encodes the boundary: each retry waits a jittered exponentially-growing
/// backoff, and the attempt budget / overall deadline decide when to stop
/// retrying and report the last error.
///
/// Attempts are observable: every backoff increments the
/// `rhino_retry_attempts_total{what=...}` counter, so a chaos run shows
/// which paths absorbed faults (and a production-style dashboard would
/// show retry storms).
///
/// Thread safety: a `Retrier` may be consulted from completion callbacks
/// on different node strands; its bookkeeping is guarded by an internal
/// mutex. Jitter draws from a seeded `Random`, so retry timing is
/// deterministic under `SimExecutor` for a fixed seed.

namespace rhino::runtime {

struct RetryOptions {
  /// Backoff before the first retry; doubles (times `multiplier`) after
  /// each subsequent failure, capped at `max_backoff_us`.
  SimTime initial_backoff_us = 10 * kMillisecond;
  double multiplier = 2.0;
  SimTime max_backoff_us = 500 * kMillisecond;
  /// Each backoff is drawn uniform in [b*(1-jitter), b*(1+jitter)] to
  /// de-synchronize retry storms.
  double jitter = 0.2;
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
  /// `what` labels the attempt counter (e.g. "replication_chunk").
  Retrier(Executor* executor, RetryOptions options, uint64_t seed,
          std::string what, obs::Observability* obs = nullptr)
      : executor_(executor),
        options_(options),
        rng_(seed),
        what_(std::move(what)) {
    if (obs == nullptr) obs = obs::Observability::Default();
    attempts_metric_ = obs->metrics().GetCounter(
        "rhino_retry_attempts_total", {{"what", what_}});
    Arm();
  }

  /// (Re)starts the deadline clock and resets the backoff ladder — call
  /// when the operation begins, or after genuine forward progress.
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    started_at_ = executor_->Now();
    next_backoff_ = options_.initial_backoff_us;
    retries_ = 0;
  }

  /// Decides whether one more retry is allowed. On true, `*delay` holds
  /// the jittered backoff to wait and the attempt has been recorded (and
  /// counted in `rhino_retry_attempts_total`). On false the budget is
  /// exhausted; report the last error via `Exhausted()`.
  bool NextBackoff(SimTime* delay) {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_attempts > 0 && retries_ + 1 >= options_.max_attempts) {
      return false;
    }
    if (options_.deadline_us > 0 &&
        executor_->Now() - started_at_ >= options_.deadline_us) {
      return false;
    }
    ++retries_;
    total_retries_ += 1;
    attempts_metric_->Increment();
    double base = static_cast<double>(next_backoff_);
    double lo = base * (1.0 - options_.jitter);
    double hi = base * (1.0 + options_.jitter);
    *delay = std::max<SimTime>(
        1, static_cast<SimTime>(lo + (hi - lo) * rng_.NextDouble()));
    next_backoff_ = std::min<SimTime>(
        options_.max_backoff_us,
        static_cast<SimTime>(base * options_.multiplier));
    return true;
  }

  /// True once the overall deadline has passed (always false without one).
  bool DeadlineExpired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return options_.deadline_us > 0 &&
           executor_->Now() - started_at_ >= options_.deadline_us;
  }

  /// Retries since the last `Arm()`.
  int retries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return retries_;
  }
  /// Retries over the Retrier's lifetime (across `Arm()` resets).
  uint64_t total_retries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_retries_;
  }

  /// The error to surface when the budget ran out: wraps `last` with the
  /// attempt history so the failure is diagnosable.
  Status Exhausted(const Status& last) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string msg = what_ + " gave up after " +
                      std::to_string(retries_ + 1) + " attempts: " +
                      (last.ok() ? "no completion before deadline"
                                 : last.ToString());
    if (options_.deadline_us > 0 &&
        executor_->Now() - started_at_ >= options_.deadline_us) {
      return Status::TimedOut(std::move(msg));
    }
    return last.ok() ? Status::TimedOut(std::move(msg))
                     : Status(last.code(), std::move(msg));
  }

  const RetryOptions& options() const { return options_; }

 private:
  Executor* executor_;
  RetryOptions options_;
  mutable std::mutex mu_;
  Random rng_;
  std::string what_;
  obs::Counter* attempts_metric_ = nullptr;
  SimTime started_at_ = 0;
  SimTime next_backoff_ = 0;
  int retries_ = 0;
  uint64_t total_retries_ = 0;
};

/// Synchronous counterpart of `Retrier` for blocking client paths — the
/// TCP RPC client reconnecting to a node process, where there is no
/// executor to schedule continuations on. Same jittered-backoff /
/// attempt-budget / deadline policy and the same
/// `rhino_retry_attempts_total{what=...}` accounting, but measured on
/// `steady_clock` and slept on the calling thread.
///
/// Not for use under `SimExecutor`: real sleeps would desynchronize the
/// simulated clock. The networked runtime runs in wall-clock time.
class BlockingRetrier {
 public:
  BlockingRetrier(RetryOptions options, uint64_t seed, std::string what,
                  obs::Observability* obs = nullptr)
      : options_(options), rng_(seed), what_(std::move(what)) {
    if (obs == nullptr) obs = obs::Observability::Default();
    attempts_metric_ = obs->metrics().GetCounter(
        "rhino_retry_attempts_total", {{"what", what_}});
    started_at_ = std::chrono::steady_clock::now();
    next_backoff_ = options_.initial_backoff_us;
  }

  /// Decides whether one more retry is allowed and, if so, sleeps the
  /// jittered backoff before returning true. On false the budget is
  /// exhausted; surface the last error via `Exhausted()`.
  bool BackoffAndRetry() {
    if (options_.max_attempts > 0 && retries_ + 1 >= options_.max_attempts) {
      return false;
    }
    if (DeadlineExpired()) return false;
    ++retries_;
    attempts_metric_->Increment();
    double base = static_cast<double>(next_backoff_);
    double lo = base * (1.0 - options_.jitter);
    double hi = base * (1.0 + options_.jitter);
    auto delay = std::max<SimTime>(
        1, static_cast<SimTime>(lo + (hi - lo) * rng_.NextDouble()));
    next_backoff_ = std::min<SimTime>(
        options_.max_backoff_us,
        static_cast<SimTime>(base * options_.multiplier));
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
    return true;
  }

  bool DeadlineExpired() const {
    if (options_.deadline_us <= 0) return false;
    auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - started_at_)
                       .count();
    return elapsed >= static_cast<int64_t>(options_.deadline_us);
  }

  int retries() const { return retries_; }

  /// The error to surface when the budget ran out.
  Status Exhausted(const Status& last) const {
    std::string msg = what_ + " gave up after " +
                      std::to_string(retries_ + 1) + " attempts: " +
                      (last.ok() ? "no completion before deadline"
                                 : last.ToString());
    if (DeadlineExpired() || last.ok()) {
      return Status::TimedOut(std::move(msg));
    }
    return Status(last.code(), std::move(msg));
  }

 private:
  RetryOptions options_;
  Random rng_;
  std::string what_;
  obs::Counter* attempts_metric_ = nullptr;
  std::chrono::steady_clock::time_point started_at_;
  SimTime next_backoff_ = 0;
  int retries_ = 0;
};

}  // namespace rhino::runtime
