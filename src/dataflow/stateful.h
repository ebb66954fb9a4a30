#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dataflow/engine.h"
#include "dataflow/operator.h"
#include "dataflow/operator_core.h"
#include "dataflow/operator_host.h"
#include "state/modeled_state_backend.h"
#include "state/state_backend.h"

/// \file stateful.h
/// Stateful operator instances.
///
/// `StatefulInstance` implements the engine-side mechanics every stateful
/// operator shares: latency instrumentation, aligned snapshots on
/// checkpoint barriers, and the origin/target roles of the handover
/// protocol (paper §4.1.2 step 3). Operator *semantics* live in the
/// execution-location-agnostic `StatefulOperatorCore` hosted through
/// `OperatorHost` (operator_host.h) — the same cores the networked
/// `NodeServer` runs:
///
///  * `KeyedCounterOperator`      — read-modify-write pattern (NBQ5-like)
///  * `SymmetricHashJoinOperator` — append pattern, two inputs (NBQ8-like)
///  * `ModeledStatefulOperator`   — statistical state model for TB-scale
///    simulation (append / RMW / session patterns with retention)

namespace rhino::dataflow {

/// Base for operators with keyed, migratable state. The spec's kind
/// selects the hosted core; the thin subclasses below keep their
/// historical constructor signatures.
class StatefulInstance : public OperatorInstance {
 public:
  StatefulInstance(Engine* engine, OperatorSpec spec, int subtask,
                   int node_id, ProcessingProfile profile,
                   std::unique_ptr<state::StateBackend> backend);

  state::StateBackend* backend() { return host_->backend(); }

  /// The hosted seam (apply/dedup/extract/ingest/checkpoint mechanics).
  OperatorHost* host() { return host_.get(); }

  /// Swaps in a fresh backend (restart-based recovery restores state by
  /// rebuilding the backend from a checkpoint).
  void ReplaceBackend(std::unique_ptr<state::StateBackend> backend) {
    host_->ReplaceBackend(std::move(backend));
  }

  /// Maps an inbound channel to a logical input side (0 = left/first).
  void SetChannelSide(int channel_idx, int side);
  int ChannelSide(int channel_idx) const;

  /// Initial virtual-node ownership, copied from the routing table after
  /// graph wiring.
  void InitOwnedVnodes(const std::vector<uint32_t>& vnodes) {
    host_->InitOwned(vnodes);
  }
  const std::set<uint32_t>& owned_vnodes() const { return host_->owned(); }

  const hashring::VirtualNodeMap* vnode_map() const {
    return engine_->vnode_map(op_name());
  }

  // ------------------------------------------- replay deduplication ------

  /// See `OperatorHost::WatermarkMap` — kept as a member alias for the
  /// protocol layers above (handover manager, checkpoint storage).
  using WatermarkMap = OperatorHost::WatermarkMap;

  /// Watermarks of the given vnodes (for transfer alongside state).
  WatermarkMap GetWatermarks(const std::vector<uint32_t>& vnodes) const;
  /// Merges transferred watermarks (taking the max per entry).
  void MergeWatermarks(const WatermarkMap& marks);

  // ------------------------------------------------------ state images ----

  /// Whole images of `vnodes`, each read in one step
  /// (`OperatorHost::Describe` plus the backend's
  /// `ReadVnodeEntries`): what a handover moves and a checkpoint captures.
  Result<std::vector<state::VnodeImage>> ReadImages(
      const std::vector<uint32_t>& vnodes);
  /// Takes `images` over: the backend ingests them
  /// (`StateBackend::IngestImages`) and their watermarks are merged.
  Status IngestImages(const std::vector<state::VnodeImage>& images,
                      bool already_durable);

  /// Replaces all watermarks (restart-based recovery rolls state *and*
  /// dedup positions back to the checkpoint; merging would wrongly keep
  /// post-checkpoint positions and drop the replay).
  void ResetWatermarks(WatermarkMap marks) {
    host_->ResetWatermarks(std::move(marks));
  }

  // ---- handover completion callbacks (invoked by the HandoverDelegate) --

  /// Origin side of one move: migrated state is safely at the target; drop
  /// it locally ("release unneeded resources", paper step 3).
  void CompleteHandoverAsOrigin(const HandoverSpec& spec,
                                const HandoverMove& move);

  /// Target side of one move: the checkpointed state for the moved vnodes
  /// has been ingested; consume buffered records (paper step ④).
  void CompleteHandoverAsTarget(const HandoverSpec& spec,
                                const HandoverMove& move);

  /// Origin side of one move whose transfer broke (the target's worker
  /// fail-stopped mid-handover): the move is abandoned — the origin keeps
  /// its state and acks, so the handover completes instead of wedging. The
  /// vnodes are re-homed by the subsequent failure-recovery handover.
  void AbandonHandoverMoveAsOrigin(const HandoverSpec& spec,
                                   const HandoverMove& move);

  /// After a peer failure: targets of in-flight moves whose origin died
  /// re-issue the state fetch against the replicated checkpoint (the
  /// origin's live transfer died with it).
  void NotifyPeerFailure() override;

 protected:
  void HandleBatch(int channel_idx, Batch& batch) final;
  void HandleAlignedControl(const ControlEvent& ev) final;

 private:
  /// Acknowledges the handover once aligned and all roles are complete.
  void MaybeAckHandover(uint64_t handover_id);

  std::unique_ptr<OperatorHost> host_;
  std::vector<int> channel_side_;

  /// Per-handover role bookkeeping, keyed by the move's index in
  /// `spec.moves`. Sets (not counters) make every completion idempotent:
  /// under failures the same move can be finished twice (a re-issued
  /// restore racing a slow origin transfer) or abandoned after completion.
  struct HandoverProgress {
    std::set<size_t> pending_origin;  ///< moves this origin still owes
    std::set<size_t> pending_target;  ///< moves this target still awaits
    /// Target-side completions that arrived before this instance aligned.
    std::set<size_t> early_target;
    /// Dead-origin moves whose restore was already re-issued.
    std::set<size_t> reissued;
    bool aligned = false;
    bool acked = false;
  };
  std::map<uint64_t, HandoverProgress> handover_progress_;
  /// Handover id this target is holding alignment for (0 = none).
  uint64_t holding_for_ = 0;

  /// Metric handles, registered once at construction (hot-path updates are
  /// plain arithmetic through these pointers) + the trace scope key.
  std::string trace_scope_;
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* records_total_ = nullptr;
  obs::Counter* dedup_dropped_total_ = nullptr;
  obs::Histogram* latency_us_ = nullptr;
  /// Open buffering-hold span while this target waits for moved state.
  uint64_t hold_span_ = 0;
};

// --------------------------------------------------------------- real ops --

/// Read-modify-write aggregate: running count per key, one output record
/// per input record (exercises the NBQ5 state-update pattern).
class KeyedCounterOperator : public StatefulInstance {
 public:
  KeyedCounterOperator(Engine* engine, std::string op_name, int subtask,
                       int node_id, ProcessingProfile profile,
                       std::unique_ptr<state::StateBackend> backend);
};

/// Symmetric hash join over two inputs: every record is appended to its
/// side's state and probed against the other side; matches are emitted
/// immediately (exercises the NBQ8 append pattern).
class SymmetricHashJoinOperator : public StatefulInstance {
 public:
  SymmetricHashJoinOperator(Engine* engine, std::string op_name, int subtask,
                            int node_id, ProcessingProfile profile,
                            std::unique_ptr<state::StateBackend> backend);
};

// ------------------------------------------------------------ modeled op --

/// Stateful operator over a `ModeledStateBackend`: updates per-vnode byte
/// counters per the configured pattern instead of materializing values.
class ModeledStatefulOperator : public StatefulInstance {
 public:
  ModeledStatefulOperator(Engine* engine, std::string op_name, int subtask,
                          int node_id, ProcessingProfile profile,
                          StateModelConfig config);
};

}  // namespace rhino::dataflow
