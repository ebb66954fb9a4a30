#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "obs/observability.h"
#include "sim/cluster.h"

/// \file fault_injector.h
/// Seeded fault-injection framework (paper §4.2.3 fail-stop model, plus
/// transient faults).
///
/// Crashes can be pinned to an absolute time, to the k-th occurrence of a
/// named protocol event (k-th checkpoint trigger, k-th replication chunk,
/// k-th handover marker, ...), or drawn from a seeded random schedule —
/// including multi-node and cascading schedules. All scheduling goes
/// through the cluster's simulation kernel, so a fault run with the same
/// seed is exactly reproducible.
///
/// Besides fail-stop crashes the injector schedules transient faults
/// through the `Cluster`'s `FaultPolicy` seam (install with
/// `InstallNetworkFaults`): network partitions that drop state transfers
/// and delay data delivery until the partition heals, uniform link
/// delays, and slow-disk windows that inflate a node's disk service
/// times. Transients exercise the retry/backoff and deadline policies of
/// the replication, catch-up, and handover paths.
///
/// Protocol components expose *probes*: they call `Notify("event")` at
/// interesting instants, and the injector fires any crash armed on that
/// event's k-th occurrence. The injector itself only flips liveness (via
/// `Cluster::FailNode` by default); wiring the full engine-level failure
/// path (halting instances, aborting checkpoints) is done by installing a
/// crash handler, keeping src/sim free of dataflow dependencies.

namespace rhino::sim {

/// One injected (or pending) fail-stop crash.
struct CrashEvent {
  SimTime time = 0;     ///< when it fired (or is scheduled to fire)
  int node = -1;
  std::string cause;    ///< "timed", "event:<name>#<k>", "random", ...
  bool fired = false;
};

/// One scheduled transient (self-healing) fault.
struct TransientFault {
  enum class Type { kPartition, kLinkDelay, kSlowDisk };
  Type type = Type::kPartition;
  int a = -1;               ///< partition endpoint / slow-disk node
  int b = -1;               ///< partition peer; -1 = every other node
  SimTime start = 0;        ///< absolute activation time
  SimTime duration = 0;     ///< window length; heals at start + duration
  SimTime extra_us = 0;     ///< injected latency (kLinkDelay / kSlowDisk)
};

/// One-line reproduction recipe: the seed plus every scheduled fault, in
/// a form that can be pasted into a bug report or compared across runs.
std::string FaultScheduleRecipe(uint64_t seed,
                                const std::vector<CrashEvent>& crashes,
                                const std::vector<TransientFault>& transients);

/// Deterministic crash + transient-fault scheduler over a cluster.
class FaultInjector : public FaultPolicy {
 public:
  explicit FaultInjector(Cluster* cluster, uint64_t seed = 42)
      : cluster_(cluster), seed_(seed), rng_(seed) {}

  /// Replaces the default crash action (`Cluster::FailNode`). Engines
  /// install their own handler so a crash also halts instances, aborts
  /// in-flight checkpoints, etc.
  void SetCrashHandler(std::function<void(int node)> handler) {
    crash_handler_ = std::move(handler);
  }

  // ------------------------------------------------- timed schedules ------

  /// Fail-stops `node` at absolute simulation time `when`.
  void CrashAt(SimTime when, int node, std::string cause = "timed");

  /// Fail-stops `node` `delay` microseconds from now.
  void CrashAfter(SimTime delay, int node, std::string cause = "timed") {
    CrashAt(cluster_->sim()->Now() + delay, node, std::move(cause));
  }

  // ------------------------------------------------- event schedules ------

  /// Arms a crash of `node` on the `nth` occurrence (1-based) of `event`,
  /// `delay` microseconds after the probe observes it. Several crashes may
  /// be armed on the same event (cascading schedules).
  void CrashOnEvent(const std::string& event, uint64_t nth, int node,
                    SimTime delay = 0);

  /// Probe: protocol code reports an occurrence of `event`. Fires any
  /// armed crash whose count is reached.
  void Notify(const std::string& event);

  /// Occurrences of `event` observed so far.
  uint64_t EventCount(const std::string& event) const {
    auto it = event_counts_.find(event);
    return it == event_counts_.end() ? 0 : it->second;
  }

  // ------------------------------------------------ random schedules ------

  /// Draws `count` crashes over distinct nodes from `candidates`, at times
  /// uniform in [window_start, window_end], sorted ascending and spaced at
  /// least `min_gap` apart, and schedules them. Returns the schedule (for
  /// logging / replay). Deterministic in the injector's seed.
  std::vector<CrashEvent> ScheduleRandomCrashes(int count,
                                                std::vector<int> candidates,
                                                SimTime window_start,
                                                SimTime window_end,
                                                SimTime min_gap = 0);

  // ----------------------------------------------- transient schedules ----

  /// Routes the cluster's network transfers through this injector. Call
  /// once before scheduling partitions / link delays; the injector must
  /// outlive the cluster's last transfer (tests: clear with
  /// `cluster->SetFaultPolicy(nullptr)` or destroy the cluster first).
  void InstallNetworkFaults() { cluster_->SetFaultPolicy(this); }

  /// Partitions nodes `a` and `b` for [start, start+duration): state
  /// transfers between them are dropped, data transfers are delayed until
  /// just after the partition heals.
  void PartitionNodes(int a, int b, SimTime start, SimTime duration);

  /// Partitions `node` from every other node for [start, start+duration).
  void IsolateNode(int node, SimTime start, SimTime duration);

  /// Adds `extra_us` to every transfer touching `node` (or all transfers,
  /// with node = -1) for [start, start+duration).
  void DelayLinks(int node, SimTime extra_us, SimTime start,
                  SimTime duration);

  /// Inflates every disk op on `node` by `extra_us` for
  /// [start, start+duration) (scheduled on the kernel).
  void SlowDisk(int node, SimTime extra_us, SimTime start, SimTime duration);

  /// Draws `count` transient faults (partitions, slow disks, link delays)
  /// over `candidates`, starting at times uniform in
  /// [window_start, window_end] with durations uniform in
  /// [min_duration, max_duration], and schedules them. Returns the
  /// schedule for logging / replay. Deterministic in the injector's seed.
  std::vector<TransientFault> ScheduleRandomTransients(
      int count, std::vector<int> candidates, SimTime window_start,
      SimTime window_end, SimTime min_duration, SimTime max_duration);

  // ------------------------------------------------------ FaultPolicy ----

  /// Applies the active partition / link-delay windows to one transfer.
  LinkFault OnTransfer(int src, int dst, uint64_t bytes,
                       TransferKind kind) override;

  // ----------------------------------------------------- diagnostics ------

  bool crashed(int node) const { return crashed_.count(node) > 0; }
  /// Every crash that actually fired, in firing order.
  const std::vector<CrashEvent>& crashes() const { return crashes_; }
  /// One-line reproduction recipe (seed + full schedule) for failure
  /// messages.
  std::string Recipe() const {
    return FaultScheduleRecipe(seed_, crashes_, transients_);
  }
  uint64_t seed() const { return seed_; }
  Random& random() { return rng_; }

  /// Installs the observability context (defaults to the process-wide one).
  void SetObservability(obs::Observability* o) { obs_ = o; }

 private:
  struct EventTrigger {
    uint64_t nth = 0;
    int node = -1;
    SimTime delay = 0;
  };

  /// An active (or pending) partition / link-delay window, matched
  /// against transfers by OnTransfer. Slow-disk windows act through the
  /// node's disk penalty instead and never appear here.
  struct LinkWindow {
    TransientFault fault;
    bool Matches(int src, int dst) const {
      if (fault.a == -1) return true;  // global
      bool hits_a = src == fault.a || dst == fault.a;
      if (fault.b == -1) return hits_a;  // isolate / per-node delay
      return hits_a && (src == fault.b || dst == fault.b);
    }
  };

  /// Executes the crash now (idempotent per node).
  void Fire(int node, const std::string& cause);

  /// Records the fault in the transient log and, for link faults, the
  /// active-window list.
  void AddTransient(const TransientFault& fault);

  Cluster* cluster_;
  uint64_t seed_;
  Random rng_;
  std::function<void(int)> crash_handler_;
  obs::Observability* obs_ = obs::Observability::Default();

  std::set<int> crashed_;
  std::vector<CrashEvent> crashes_;
  std::vector<TransientFault> transients_;
  std::vector<LinkWindow> link_windows_;
  std::map<std::string, uint64_t> event_counts_;
  std::map<std::string, std::vector<EventTrigger>> event_triggers_;
};

}  // namespace rhino::sim
