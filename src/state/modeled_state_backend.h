#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "state/state_backend.h"

/// \file modeled_state_backend.h
/// Byte-accounting state backend for TB-scale simulation.
///
/// Stores no values — only nominal byte counts per virtual node — so a
/// simulated run can carry a terabyte of operator state in a handful of
/// counters. Checkpoints follow the RocksDB incremental model: each
/// checkpoint contributes one immutable "delta file" holding the bytes
/// added since the previous checkpoint; the full file set is the union of
/// all deltas. The descriptors are indistinguishable (to the protocols)
/// from those of the real LSM backend.

namespace rhino::state {

/// Size-only implementation of StateBackend.
///
/// Thread safety: every method locks one internal mutex (the counters are
/// cheap; contention is not a concern for a size-only backend). No public
/// method calls another — ApplyBatch and ExtractVnodes go through the
/// unlocked helpers — so the mutex is a plain one.
class ModeledStateBackend : public StateBackend {
 public:
  ModeledStateBackend(std::string operator_name, uint32_t instance_id)
      : operator_name_(std::move(operator_name)), instance_id_(instance_id) {}

  Status Get(uint32_t vnode, std::string_view key, std::string* value) override;
  /// Adds each put's nominal bytes and removes each delete's; keys and
  /// values are ignored.
  Status ApplyBatch(const std::vector<StateWrite>& writes) override;
  Result<std::vector<std::pair<std::string, std::string>>> ScanPrefix(
      uint32_t vnode, std::string_view prefix) override;
  uint64_t SizeBytes() const override;
  uint64_t VnodeBytes(uint32_t vnode) const override;
  Result<CheckpointDescriptor> Checkpoint(uint64_t checkpoint_id) override;
  Result<std::string> ExtractVnodes(const std::vector<uint32_t>& vnodes) override;
  Status IngestVnodes(std::string_view blob, bool already_durable) override;
  Status DropVnodes(const std::vector<uint32_t>& vnodes) override;
  /// Stores no values: a vnode's run is empty, and a held vnode is its
  /// size alone.
  Status ReadVnodeEntries(uint32_t, std::string* run) override {
    run->clear();
    return Status::OK();
  }
  Status WriteVnodeEntries(uint32_t, std::string_view) override {
    return Status::OK();
  }
  /// The size joins no delta: it is durable elsewhere already.
  void SetVnodeBytes(uint32_t vnode, uint64_t nominal_bytes) override;

  /// Adds `bytes` of modeled state to `vnode` without a key (bulk path used
  /// by modeled operators processing batch descriptors).
  void AddBytes(uint32_t vnode, uint64_t bytes);
  /// Removes `bytes` of modeled state (session-window eviction etc.).
  void RemoveBytes(uint32_t vnode, uint64_t bytes);

  /// Adopts already-checkpointed state for `vnodes` out of a replicated
  /// checkpoint (the local-fetch path of a handover): the bytes join this
  /// backend's file set directly instead of the next delta, because the
  /// target's worker already holds the files on disk.
  void AdoptCheckpointVnodes(const CheckpointDescriptor& desc,
                             const std::vector<uint32_t>& vnodes);

 private:
  /// The unlocked bodies of AddBytes, RemoveBytes and VnodeBytes. Require
  /// mu_.
  void AddBytesLocked(uint32_t vnode, uint64_t bytes);
  void RemoveBytesLocked(uint32_t vnode, uint64_t bytes);
  uint64_t VnodeBytesLocked(uint32_t vnode) const;

  mutable std::mutex mu_;
  std::string operator_name_;
  uint32_t instance_id_;
  std::map<uint32_t, uint64_t> vnode_bytes_;
  /// Net bytes accumulated since the last checkpoint (the next delta).
  uint64_t uncheckpointed_bytes_ = 0;
  std::vector<StateFile> files_;
  std::vector<StateFile> last_checkpoint_files_;
  uint64_t next_file_id_ = 1;
};

}  // namespace rhino::state
