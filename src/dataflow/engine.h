#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "common/status.h"
#include "dataflow/operator.h"
#include "hashring/key_groups.h"
#include "obs/observability.h"
#include "sim/cluster.h"
#include "state/checkpoint.h"

/// \file engine.h
/// The host SPE runtime: instance registry, checkpoint coordination
/// (aligned barriers, Carbone et al.), handover marker injection, and
/// failure handling. Rhino and the baselines plug in through the
/// `CheckpointStorage` and `HandoverDelegate` strategy interfaces.
///
/// Single-threaded: everything runs on the cluster's simulation kernel, one
/// event at a time.
///
/// Record containers are deques: completion paths hold references across
/// asynchronous persistence, and deque growth never invalidates them.

namespace rhino::dataflow {

class SourceInstance;
class StatefulInstance;
class SinkInstance;

/// Where completed instance snapshots go (paper: HDFS for Flink/RhinoDFS,
/// Rhino's replication runtime for Rhino).
class CheckpointStorage {
 public:
  virtual ~CheckpointStorage() = default;

  /// Makes `desc` (taken on `instance`'s node) durable, then `done`.
  /// Implementations model local disk writes, DFS uploads, or chain
  /// replication.
  virtual void Persist(OperatorInstance* instance,
                       const state::CheckpointDescriptor& desc,
                       std::function<void(Status)> done) = 0;
};

/// Moves state during a handover (Rhino: replicated checkpoint + tail
/// delta; Megaphone-style baselines implement their own bulk transfer).
class HandoverDelegate {
 public:
  virtual ~HandoverDelegate() = default;

  /// Origin of `move` has aligned (or has failed, in which case `origin`
  /// is null). Move the state of `move.vnodes` to `target`, ingest it,
  /// then invoke `CompleteHandoverAsOrigin`/`CompleteHandoverAsTarget` and
  /// `done`.
  virtual void TransferState(const HandoverSpec& spec, const HandoverMove& move,
                             StatefulInstance* origin, StatefulInstance* target,
                             std::function<void()> done) = 0;
};

/// Record of one distributed checkpoint.
struct CheckpointRecord {
  uint64_t id = 0;
  SimTime trigger_time = 0;
  SimTime complete_time = -1;
  bool completed = false;
  /// Aborted by a failure; late barriers/snapshots of this id are dropped.
  bool aborted = false;
  /// Instance key ("op#subtask") -> snapshot descriptor.
  std::map<std::string, state::CheckpointDescriptor> descriptors;
  int pending_acks = 0;
};

/// Record of one handover (reconfiguration).
struct HandoverRecord {
  std::shared_ptr<const HandoverSpec> spec;
  SimTime trigger_time = 0;
  SimTime complete_time = -1;
  bool completed = false;
  /// Instance keys ("op#subtask") that must acknowledge: the instances
  /// live when the markers were injected. Fail-stopped participants are
  /// removed (the dead cannot ack), so a failure mid-handover never wedges
  /// the protocol.
  std::set<std::string> participants;
  /// Instance keys that acknowledged.
  std::set<std::string> acked;
};

/// Engine-wide configuration.
struct EngineOptions {
  uint32_t num_key_groups = 1 << 15;   // paper §5.1.3
  uint32_t vnodes_per_instance = 4;    // paper §5.1.3
};

/// The per-query runtime coordinator.
class Engine {
 public:
  Engine(sim::Cluster* cluster, broker::Broker* broker,
         EngineOptions options = EngineOptions())
      : cluster_(cluster), broker_(broker), options_(options) {}

  sim::Cluster* cluster() { return cluster_; }
  /// The cluster's simulation kernel: the clock and the scheduler.
  sim::Simulation* sim() { return cluster_->sim(); }
  broker::Broker* broker() { return broker_; }
  const EngineOptions& options() const { return options_; }

  /// Installs the observability context shared by this engine's instances
  /// (defaults to the process-wide one). Call before building the graph:
  /// instances cache metric handles from it at registration time.
  void SetObservability(obs::Observability* o) { obs_ = o; }
  obs::Observability* obs() { return obs_; }

  // ------------------------------------------------------- registration --

  /// Takes ownership of an instance. Called by the graph builder (wiring
  /// happens before the simulation runs; registration is not thread-safe).
  OperatorInstance* AddInstance(std::unique_ptr<OperatorInstance> instance);
  Channel* AddChannel(std::unique_ptr<Channel> channel);

  void RegisterSource(SourceInstance* source);
  void RegisterStateful(StatefulInstance* stateful) {
    stateful_.push_back(stateful);
  }
  void RegisterSink(SinkInstance* sink) { sinks_.push_back(sink); }

  /// Creates (once) and returns the routing state for a stateful operator.
  hashring::RoutingTable* GetOrCreateRouting(const std::string& op_name,
                                             uint32_t parallelism);
  hashring::RoutingTable* routing(const std::string& op_name);
  const hashring::VirtualNodeMap* vnode_map(const std::string& op_name);

  const std::vector<SourceInstance*>& sources() const { return sources_; }
  const std::vector<StatefulInstance*>& stateful() const { return stateful_; }
  const std::vector<SinkInstance*>& sinks() const { return sinks_; }
  StatefulInstance* FindStateful(const std::string& op, uint32_t subtask);

  // ------------------------------------------------------- checkpointing --

  void SetCheckpointStorage(CheckpointStorage* storage) { storage_ = storage; }

  /// Starts distributed checkpoint `n+1`: every source snapshots its offset
  /// and injects a barrier. Returns the checkpoint id.
  uint64_t TriggerCheckpoint();

  /// Re-triggers a checkpoint every `interval` (skipping while one is in
  /// flight, as Flink does).
  void StartPeriodicCheckpoints(SimTime interval);
  void StopPeriodicCheckpoints() { periodic_checkpoints_ = false; }

  /// Called by instances when their snapshot is taken (pre-durability).
  /// Snapshots of aborted checkpoints are discarded.
  void OnSnapshotTaken(OperatorInstance* instance,
                       state::CheckpointDescriptor desc);

  /// Checkpoint record by id (nullptr when unknown). The pointer is stable
  /// (deque storage); read its fields only from engine callbacks or after
  /// the simulation drained.
  CheckpointRecord* FindCheckpoint(uint64_t id);

  /// True when checkpoint `id` was aborted by a failure; its barriers are
  /// ignored from then on.
  bool IsCheckpointAborted(uint64_t id);

  /// Aborts an in-flight checkpoint (failure, or persistence error): its
  /// snapshots are discarded and its alignments flushed everywhere.
  void AbortCheckpoint(uint64_t id);

  bool checkpoint_in_flight() const { return checkpoint_in_flight_; }
  /// Most recent fully durable checkpoint, or nullptr.
  const CheckpointRecord* LastCompletedCheckpoint() const;
  const std::deque<CheckpointRecord>& checkpoints() const {
    return checkpoints_;
  }

  // ------------------------------------------------------------ handover --

  void SetHandoverDelegate(HandoverDelegate* delegate) { delegate_ = delegate; }
  HandoverDelegate* handover_delegate() { return delegate_; }

  /// Injects handover markers at every live source (paper §4.1.2 step ①).
  /// With `inject_markers` false only the handover record is registered;
  /// the caller must deliver the marker (`HandoverMarkerFor`) to every
  /// live source itself — recovery does this atomically with the source
  /// rewind so no pre-rewind record can slip through a rewired gate.
  /// A marker-injecting handover that names a vnode an uncompleted
  /// handover of the same operator moves is refused (FailedPrecondition,
  /// nothing registered): both would move it from the same origin, and
  /// the vnode would end with two owners.
  Status StartHandover(std::shared_ptr<const HandoverSpec> spec,
                       bool inject_markers = true);

  /// The control event `StartHandover` would inject for `spec`.
  static ControlEvent HandoverMarkerFor(
      const std::shared_ptr<const HandoverSpec>& spec);

  /// Instance-level acknowledgment (paper step ④).
  void OnHandoverInstanceDone(uint64_t handover_id, OperatorInstance* instance);

  const std::deque<HandoverRecord>& handovers() const { return handovers_; }

  /// Handover record by id (nullptr when unknown).
  const HandoverRecord* FindHandover(uint64_t id) const;
  bool IsHandoverComplete(uint64_t id) const;

  /// Fault-injection probe: notified with "checkpoint_trigger" and
  /// "handover_start" — wire it to `sim::FaultInjector::Notify` to crash
  /// at the k-th checkpoint or mid-handover.
  void SetFaultProbe(std::function<void(const std::string& event)> probe) {
    probe_ = std::move(probe);
  }

  // ------------------------------------------------------------- metrics --

  /// Latency sample hook (instrumented stateful operators, §5.1.5).
  void SetLatencyListener(
      std::function<void(const std::string& op, SimTime now, SimTime latency)> fn) {
    latency_listener_ = std::move(fn);
  }
  void RecordLatency(const std::string& op, SimTime latency) {
    if (latency_listener_) latency_listener_(op, sim()->Now(), latency);
  }

  // ------------------------------------------------------------- failure --

  /// Fail-stop of a node: the node is marked dead and every instance on it
  /// halts (queues dropped).
  void FailNode(int node_id);

  /// All live (non-halted) instances.
  int CountLiveInstances() const;

  /// Re-initializes every keyed gate feeding `op` from the coordinator's
  /// routing table (used by restart-based rescaling, where routing changes
  /// while the job is stopped instead of via in-band markers).
  void ReinitKeyedGates(const std::string& op);

 private:
  /// Completes `record` once every still-live participant acked.
  void MaybeCompleteHandover(HandoverRecord& record);

  sim::Cluster* cluster_;
  broker::Broker* broker_;
  EngineOptions options_;
  obs::Observability* obs_ = obs::Observability::Default();

  std::vector<std::unique_ptr<OperatorInstance>> instances_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<SourceInstance*> sources_;
  std::vector<StatefulInstance*> stateful_;
  std::vector<SinkInstance*> sinks_;

  struct Routing {
    std::unique_ptr<hashring::VirtualNodeMap> map;
    std::unique_ptr<hashring::RoutingTable> table;
  };
  std::map<std::string, Routing> routing_;

  CheckpointStorage* storage_ = nullptr;
  HandoverDelegate* delegate_ = nullptr;

  std::deque<CheckpointRecord> checkpoints_;
  bool checkpoint_in_flight_ = false;
  uint64_t next_checkpoint_id_ = 1;
  bool periodic_checkpoints_ = false;

  std::deque<HandoverRecord> handovers_;
  std::function<void(const std::string&)> probe_;

  std::function<void(const std::string&, SimTime, SimTime)> latency_listener_;
};

}  // namespace rhino::dataflow
