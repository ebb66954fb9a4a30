#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dataflow/operator_core.h"
#include "dataflow/record.h"
#include "state/checkpoint.h"
#include "state/state_backend.h"

/// \file operator_host.h
/// The execution-location-agnostic operator-hosting seam.
///
/// `OperatorHost` owns everything a stateful operator needs that is *not*
/// engine- or transport-specific: the state backend, vnode ownership, the
/// per-(vnode, source) replay watermarks, batch application with replay
/// deduplication, and checkpoint capture. The in-process
/// `StatefulInstance` and the networked `NodeServer` both embed a host, so
/// the data path — dedup, the operator core, the batch's one commit — is
/// one implementation in the simulator and on the networked runtime.
/// State moves between hosts as `state::VnodeImage`s in both: `Describe`
/// stamps an image, and when and how it travels is the embedder's.
///
/// Not thread-safe: the embedding runtime serializes calls (the simulator
/// runs on one thread, the node server under its own lock).

namespace rhino::dataflow {

/// Key prefix of the output rows `OperatorHost::Apply` keeps. No operator
/// core's key starts with it: a core's key is a record key's 8 bytes,
/// alone or followed by a side byte of 0 or 1.
inline const std::string kOutputRowPrefix = std::string(8, '\xff') + '\x02';

/// Outcome of folding one batch into the host's state.
struct ApplyResult {
  /// Records folded into state (post-dedup).
  uint64_t applied = 0;
  /// Records dropped because their (vnode, source) offset was already
  /// reflected in the state.
  uint64_t deduped = 0;
  /// Vnodes whose replay watermark advanced — exactly the vnodes a
  /// continuous replicator must re-ship.
  std::set<uint32_t> applied_vnodes;
  /// Vnodes fully dropped by dedup (slice-granular feeds; for tracing).
  std::set<uint32_t> dropped_vnodes;
  /// Deduplicated vnodes whose kept outputs of this batch's (source,
  /// offset) were appended to `out` (output rows; see `Apply`).
  std::set<uint32_t> answered_vnodes;
  /// The entire batch was already reflected in the state.
  bool fully_deduped = false;
};

class OperatorHost {
 public:
  /// Per-(vnode, source) replay watermarks: the next source offset this
  /// host expects for that vnode. Batches at lower offsets were already
  /// folded into the state and are dropped — the paper's "operators are
  /// aware of an in-flight handover and ignore seen records" rule,
  /// realized at offset granularity.
  using WatermarkMap = std::map<uint32_t, std::map<int, uint64_t>>;

  /// Builds a host for `spec` over `backend`. `vnode_of` supplies key
  /// routing (engine hashring or `net::VnodeForKey`); `instance_id` is
  /// the hosting identity (subtask / node id) folded into stateful
  /// uniquifiers (join-state consistency rule). Fails with
  /// InvalidArgument on an unknown operator kind.
  static Result<std::unique_ptr<OperatorHost>> Create(
      OperatorSpec spec, std::unique_ptr<state::StateBackend> backend,
      VnodeFn vnode_of, uint32_t instance_id);

  const OperatorSpec& spec() const { return spec_; }
  uint32_t instance_id() const { return instance_id_; }
  state::StateBackend* backend() { return backend_.get(); }
  const state::StateBackend* backend() const { return backend_.get(); }

  /// Swaps in a fresh backend (restart-based recovery restores state by
  /// rebuilding the backend from a checkpoint).
  void ReplaceBackend(std::unique_ptr<state::StateBackend> backend) {
    backend_ = std::move(backend);
  }

  uint32_t VnodeOf(uint64_t key) const { return vnode_of_(key); }

  // ------------------------------------------------------- apply path ----

  /// Deduplicates `batch` against the replay watermarks (in place — seen
  /// slices/records are removed and counts adjusted), has the operator
  /// core stage the remainder's writes and append its outputs to `out`
  /// (never null), commits the staged writes with ONE
  /// `StateBackend::ApplyBatch`, and only then advances the watermarks of
  /// the applied vnodes. A failed commit changes neither state nor
  /// watermarks (on the LSM backend), so a resend of the batch applies
  /// it exactly once; `out` is then meaningless and must be dropped.
  /// With `strict_ownership`, a record or slice routed to a vnode this
  /// host does not own fails the whole batch with FailedPrecondition
  /// *before* any state mutation (the networked runtime's stale-routing
  /// guard); the in-process engine routes by construction and skips it.
  ///
  /// With `output_cursor` (record-granular feeds whose outputs feed an
  /// operator edge), the outputs are upstream backup kept with the state
  /// that produced them: the commit also writes each applied vnode's
  /// outputs as one **output row** of that vnode, keyed by the batch's
  /// (source, offset) under `kOutputRowPrefix` with no nominal size, and
  /// deletes the vnode's rows of the same source below `*output_cursor`
  /// (offsets whose outputs the caller already holds). Output rows travel
  /// with the vnode in stream deltas, handover images and chain records.
  /// A deduplicated vnode whose rows hold this (source, offset) appends
  /// them to `out` and is listed in `answered_vnodes`, so a batch whose
  /// first reply was lost is answered with the outputs of its first apply.
  Result<ApplyResult> Apply(int side, Batch& batch, SimTime now, Batch* out,
                            bool strict_ownership,
                            std::optional<uint64_t> output_cursor = {});

  /// Kind-specific point query for `key` against the vnode it routes to.
  Result<OperatorQueryResult> Query(uint64_t key);

  // -------------------------------------------------- vnode ownership ----

  void InitOwned(const std::vector<uint32_t>& vnodes) {
    owned_ = std::set<uint32_t>(vnodes.begin(), vnodes.end());
  }
  void Own(const std::vector<uint32_t>& vnodes) {
    owned_.insert(vnodes.begin(), vnodes.end());
  }
  /// Owns `vnode` with exactly `watermarks`: assigned, not merged, since
  /// the state taken over is authoritative for its vnode. A stale local
  /// entry (this host owned the vnode before it moved away and back) must
  /// not dedup records that state never applied.
  void Own(uint32_t vnode, std::map<int, uint64_t> watermarks);
  bool Owns(uint32_t vnode) const { return owned_.count(vnode) != 0; }
  const std::set<uint32_t>& owned() const { return owned_; }

  /// Drops state, ownership, and replay watermarks of `vnodes` (origin
  /// side after a successful handover). The watermarks go with the state:
  /// if a later handover moves these vnodes back, stale entries would
  /// dedup replayed records the restored copy has never applied.
  Status Drop(const std::vector<uint32_t>& vnodes);
  /// Gives up ownership and replay watermarks of `vnodes` and forgets
  /// their sizes and captured keys, but keeps their rows
  /// (`StateBackend::ForgetVnodes`): a handover origin that keeps them as
  /// the copy it holds for their new owner.
  void Demote(const std::vector<uint32_t>& vnodes);

  // ------------------------------------------------- replay watermarks ----

  /// Watermarks of the given vnodes (for transfer alongside state).
  WatermarkMap GetWatermarks(const std::vector<uint32_t>& vnodes) const;
  /// The image of `vnode` without its run: its nominal size and replay
  /// watermarks, as a whole image (`base_seq` 0). A whole image's run is
  /// the backend's `ReadVnodeEntries`, a key delta's its `TakeChanges`.
  state::VnodeImage Describe(uint32_t vnode) const;
  /// Merges transferred watermarks (taking the max per entry).
  void MergeWatermarks(const WatermarkMap& marks);
  /// Replaces all watermarks (restart-based recovery rolls state *and*
  /// dedup positions back to the checkpoint; merging would wrongly keep
  /// post-checkpoint positions and drop the replay).
  void ResetWatermarks(WatermarkMap marks) { watermarks_ = std::move(marks); }

  // ------------------------------------------------------- checkpoints ----

  /// Takes an incremental checkpoint of the backend and stamps the
  /// descriptor with the replay watermarks of the owned vnodes, so a
  /// restored copy deduplicates correctly.
  Result<state::CheckpointDescriptor> CaptureCheckpoint(uint64_t checkpoint_id);

 private:
  /// Stages the output rows of one apply (see `Apply`): deletes each
  /// applied vnode's rows of `batch`'s source below `output_cursor`, and
  /// writes its outputs among `out.records[first_output..]` as the row of
  /// the batch's (source, offset).
  Status KeepOutputs(const Batch& batch, uint64_t output_cursor,
                     const ApplyResult& result, const Batch& out,
                     size_t first_output,
                     std::vector<state::StateWrite>* writes);

  OperatorHost(OperatorSpec spec, std::unique_ptr<state::StateBackend> backend,
               std::unique_ptr<StatefulOperatorCore> core, VnodeFn vnode_of,
               uint32_t instance_id)
      : spec_(std::move(spec)),
        backend_(std::move(backend)),
        core_(std::move(core)),
        vnode_of_(std::move(vnode_of)),
        instance_id_(instance_id) {}

  OperatorSpec spec_;
  std::unique_ptr<state::StateBackend> backend_;
  std::unique_ptr<StatefulOperatorCore> core_;
  VnodeFn vnode_of_;
  uint32_t instance_id_ = 0;
  std::set<uint32_t> owned_;
  WatermarkMap watermarks_;
};

}  // namespace rhino::dataflow
