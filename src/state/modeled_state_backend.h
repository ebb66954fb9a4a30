#pragma once

#include <map>
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

/// Size-only implementation of StateBackend, for the simulator (single
/// threaded; not thread-safe).
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
  Status DropVnodes(const std::vector<uint32_t>& vnodes) override;
  /// The same as DropVnodes: a modeled vnode has no rows to keep.
  void ForgetVnodes(const std::vector<uint32_t>& vnodes) override;
  /// Stores no values: a vnode's run is empty, and a held vnode is its
  /// size alone.
  Status ReadVnodeEntries(uint32_t, std::string* run) override {
    run->clear();
    return Status::OK();
  }
  Status WriteVnodeEntries(uint32_t, std::string_view) override {
    return Status::OK();
  }
  /// An image is its size alone. A live ingest's bytes join the next
  /// delta; a durable one's become one restored file per call, already in
  /// the last checkpoint's file set, so it is never replicated again.
  Status IngestImages(const std::vector<VnodeImage>& images,
                      bool already_durable) override;

  /// Adds `bytes` of modeled state to `vnode` without a key (bulk path used
  /// by modeled operators processing batch descriptors).
  void AddBytes(uint32_t vnode, uint64_t bytes);
  /// Removes `bytes` of modeled state (session-window eviction etc.).
  void RemoveBytes(uint32_t vnode, uint64_t bytes);

 private:
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
