#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "state/checkpoint.h"

/// \file state_backend.h
/// Mutable keyed operator state (paper §3.4, R3).
///
/// State is partitioned by virtual node so that a handover can extract and
/// ingest exactly the virtual nodes being migrated. Two implementations:
///
///  * `LsmStateBackend`  — real bytes in the embedded LSM store; used by
///    correctness tests, the examples, and small-scale benchmarks.
///  * `ModeledStateBackend` — per-vnode byte accounting without values;
///    used by the TB-scale simulation benches where materializing state
///    is impossible. Produces the same `CheckpointDescriptor`s, so every
///    protocol above this interface is identical code in both modes.
///
/// State leaves a backend in one shape, the entry run: `ReadVnodeEntries`
/// reads a whole vnode's, `TakeChanges` the keys written since a reader's
/// last take, and `WriteVnodeEntries` applies either on the receiving
/// side. A `VnodeImage` carries one run with the vnode's size and replay
/// watermarks; both runtimes move state only as images, and a checkpoint
/// chain record, whole or not, carries the same run.

namespace rhino::state {

/// The consumers of StateBackend change capture, each with its own
/// captured keys: the continuous replication stream and the incremental
/// checkpoint chains.
enum class ChangeReader : uint8_t { kStream = 0, kCheckpoint = 1 };
inline constexpr size_t kChangeReaders = 2;

/// One vnode's state as both runtimes move it (paper §4.1: a handover is
/// the origin's last incremental checkpoint applied on top of the replica
/// the target holds; a move without a replica applies it on top of
/// nothing). `entries` is one `EntryWriter` run (lsm_state_backend.h).
/// With `base_seq == 0` the run is the whole vnode. Otherwise it holds the
/// keys written since the copy the receiver holds at exactly stream seq
/// `base_seq`, puts and tombstones, and applies only on top of that copy;
/// a replica-local handover's run is empty. `bytes` and `watermarks` are
/// the vnode's nominal size and replay watermarks, captured atomically
/// with its state.
struct VnodeImage {
  uint32_t vnode = 0;
  uint64_t base_seq = 0;
  uint64_t bytes = 0;
  std::map<int, uint64_t> watermarks;
  std::string entries;

  bool operator==(const VnodeImage&) const = default;
};

/// One staged mutation for StateBackend::ApplyBatch.
struct StateWrite {
  uint32_t vnode = 0;
  bool is_delete = false;
  std::string key;
  std::string value;          // ignored for deletes
  uint64_t nominal_bytes = 0;
};

/// Abstract keyed state store scoped to one operator instance.
class StateBackend {
 public:
  virtual ~StateBackend() = default;

  /// Point lookup; NotFound when absent.
  virtual Status Get(uint32_t vnode, std::string_view key,
                     std::string* value) = 0;

  /// Commits a run of mutations, the only write: the data path's commit,
  /// one call per applied batch (`dataflow::OperatorHost::Apply`). A put's
  /// `nominal_bytes` is the modeled payload size it adds to its vnode (real
  /// backends also store the value bytes); a delete's is the size it
  /// removes. `LsmStateBackend`'s is all-or-nothing — one framed WAL
  /// record, and on failure no entry, byte count or captured change is
  /// applied — which is what lets the host advance replay watermarks only
  /// with the state. The modeled backend's cannot fail.
  virtual Status ApplyBatch(const std::vector<StateWrite>& writes) = 0;

  /// Live pairs of `vnode` whose key starts with `prefix`, in key order;
  /// an empty prefix reads the whole vnode. Only meaningful for real
  /// backends (modeled backends return empty).
  virtual Result<std::vector<std::pair<std::string, std::string>>> ScanPrefix(
      uint32_t vnode, std::string_view prefix) = 0;

  /// Current state footprint in (nominal) bytes.
  virtual uint64_t SizeBytes() const = 0;
  virtual uint64_t VnodeBytes(uint32_t vnode) const = 0;

  /// Takes an incremental checkpoint: flush, persist immutable files, and
  /// describe them. `delta_files` is relative to the previous checkpoint
  /// taken through this backend.
  virtual Result<CheckpointDescriptor> Checkpoint(uint64_t checkpoint_id) = 0;

  /// Drops all state of `vnodes` (origin side after a successful handover),
  /// held rows included.
  virtual Status DropVnodes(const std::vector<uint32_t>& vnodes) = 0;

  /// Forgets the nominal sizes of `vnodes` and what both capture readers
  /// hold of them, writing nothing: their rows stay where they are, as
  /// held rows (a handover origin that demotes the vnodes to the copy it
  /// keeps for their new owner).
  virtual void ForgetVnodes(const std::vector<uint32_t>& vnodes) = 0;

  // --------------------------------------------------------- entry runs --
  // State moves only as entry runs, EntryWriter's format
  // (lsm_state_backend.h): a whole vnode read by ReadVnodeEntries, or the
  // keys written since a point taken by TakeChanges, and written by
  // WriteVnodeEntries on the receiving side. A node keeps each vnode it
  // replicates for a peer as rows of its own backend, under the owner's
  // keys ("held rows"), which are not yet this backend's state: they stay
  // out of SizeBytes() and both capture readers until IngestImages takes
  // the vnode over, copying no key.

  /// Replaces `*run` with `vnode`'s live entries, in key order, as one
  /// run: the mirror of WriteVnodeEntries. Each vnode costs its own key
  /// range. A backend that stores no values (modeled) reads an empty run.
  virtual Status ReadVnodeEntries(uint32_t vnode, std::string* run) = 0;
  /// Writes `run` — `vnode`'s entries, puts and tombstones — as one
  /// atomic write that skips byte accounting and both capture readers.
  /// Corruption, with nothing written, on a malformed run.
  virtual Status WriteVnodeEntries(uint32_t vnode, std::string_view run) = 0;
  /// Takes `images` over, the one way state enters a backend whole: writes
  /// each image's run as one atomic write (an empty run writes nothing)
  /// and then sets each vnode's nominal size to the image's. A malformed
  /// run is Corruption, with no run written and no size set. Watermarks
  /// are the host's. `already_durable` marks images
  /// that came out of a replicated or persisted checkpoint: they must not
  /// surface in this backend's next incremental delta (they are on disk
  /// already); a live migration is not durable and joins the next delta.
  virtual Status IngestImages(const std::vector<VnodeImage>& images,
                              bool already_durable) = 0;

  // ----------------------------------------------------- change capture --
  // Incremental replication and incremental checkpoints ship, per vnode,
  // only the keys written since the vnode's last delta. Each consumer is a
  // reader of its own: while a reader's capture is on, every key written
  // through ApplyBatch is recorded for it per vnode — its latest value or
  // a tombstone — until that reader takes it, so a reader's memory is
  // bounded by the distinct keys written since its last take, not by the
  // number of writes. Readers never see each other's takes. IngestImages
  // and WriteVnodeEntries record nothing for any reader (absorbed vnodes
  // ship whole; held rows are not this backend's state) and DropVnodes
  // discards the dropped vnodes' keys for all readers. The defaults cannot
  // capture, which means "ship whole vnodes".

  /// Turns `reader`'s capture on or off; off discards what it captured.
  virtual void SetChangeCapture(ChangeReader /*reader*/, bool /*on*/) {}

  /// Moves out the changes of `vnode` captured for `reader` since its last
  /// take into `*run`, one entry run sorted by key, tombstones included (a
  /// replica applies it with WriteVnodeEntries).
  /// Returns the number of keys in the run, or nullopt when the reader
  /// cannot capture: the caller must ship the vnode whole.
  virtual std::optional<uint64_t> TakeChanges(ChangeReader /*reader*/,
                                              uint32_t /*vnode*/,
                                              std::string* run) {
    run->clear();
    return std::nullopt;
  }

  /// Forgets `reader`'s captured changes of `vnodes` (a whole snapshot of
  /// them superseded the changes).
  virtual void DiscardChanges(ChangeReader /*reader*/,
                              const std::vector<uint32_t>& /*vnodes*/) {}

  /// Distinct keys currently captured for `reader`, over all vnodes.
  virtual uint64_t CapturedKeys(ChangeReader /*reader*/) const { return 0; }
};

}  // namespace rhino::state
