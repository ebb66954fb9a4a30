#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/units.h"
#include "sim/simulation.h"

/// \file resource.h
/// Modeled bandwidth resources (NIC queues, disks, per-instance CPU).
///
/// A `QueueResource` is a FIFO serialization point with a fixed service
/// bandwidth: a request of `bytes` occupies the resource for
/// `bytes / bandwidth` starting when all earlier requests finished. This is
/// the standard M/G/1-style model for links and disks in cluster
/// simulators; it preserves the transfer-time ratios the paper's evaluation
/// depends on. Busy time is accumulated for utilization reporting (Fig. 5).

namespace rhino::sim {

/// FIFO bandwidth resource.
class QueueResource {
 public:
  QueueResource(Simulation* sim, std::string name, double bytes_per_sec)
      : sim_(sim), name_(std::move(name)), bytes_per_sec_(bytes_per_sec) {}

  /// Earliest time a new request could start service.
  SimTime FreeAt() const {
    SimTime now = sim_->Now();
    return free_at_ < now ? now : free_at_;
  }

  /// Enqueues a request of `bytes`; invokes `done` (if set) at completion.
  /// Returns the completion time. `extra_latency` inflates this request's
  /// service time (slow-device fault injection) — it occupies the resource
  /// like real service, so utilization accounting reflects the slowdown.
  SimTime Submit(uint64_t bytes, std::function<void()> done = nullptr,
                 SimTime extra_latency = 0) {
    SimTime start = FreeAt();
    SimTime duration = TransferTime(bytes, bytes_per_sec_) + extra_latency;
    SimTime end = start + duration;
    free_at_ = end;
    busy_us_ += duration;
    bytes_served_ += bytes;
    if (done) PostCompletion(end, std::move(done));
    return end;
  }

  /// Reserves the interval [start, start+duration) without a callback
  /// (starting no earlier than `FreeAt()`). Used by coupled transfers that
  /// compute their own completion time.
  void Occupy(SimTime start, SimTime duration, uint64_t bytes) {
    if (start < FreeAt()) start = FreeAt();
    free_at_ = start + duration;
    busy_us_ += duration;
    bytes_served_ += bytes;
  }

  double bytes_per_sec() const { return bytes_per_sec_; }
  const std::string& name() const { return name_; }

  /// Cumulative busy time, for utilization sampling.
  SimTime busy_us() const { return busy_us_; }
  uint64_t bytes_served() const { return bytes_served_; }

  /// Schedules `done` at `end`.
  void PostCompletion(SimTime end, std::function<void()> done) {
    sim_->ScheduleAt(end, std::move(done));
  }

 private:
  Simulation* sim_;
  std::string name_;
  double bytes_per_sec_;
  SimTime free_at_ = 0;
  SimTime busy_us_ = 0;
  uint64_t bytes_served_ = 0;
};

/// Transfers `bytes` from a sender TX queue to a receiver RX queue.
///
/// The transfer starts when both queues are free and occupies both for the
/// full duration (full-duplex NIC model); `latency` is added once at the
/// end (propagation + protocol overhead). Invokes `done` at completion and
/// returns the completion time.
inline SimTime NetworkTransfer(QueueResource* tx, QueueResource* rx,
                               uint64_t bytes, SimTime latency,
                               std::function<void()> done = nullptr) {
  SimTime start = std::max(tx->FreeAt(), rx->FreeAt());
  SimTime duration =
      TransferTime(bytes, std::min(tx->bytes_per_sec(), rx->bytes_per_sec()));
  tx->Occupy(start, duration, bytes);
  if (tx != rx) rx->Occupy(start, duration, bytes);
  SimTime end = start + duration + latency;
  if (done) rx->PostCompletion(end, std::move(done));
  return end;
}

}  // namespace rhino::sim
