#include "state/modeled_state_backend.h"

#include "common/serde.h"

namespace rhino::state {

void ModeledStateBackend::AddBytes(uint32_t vnode, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  AddBytesLocked(vnode, bytes);
}

void ModeledStateBackend::AddBytesLocked(uint32_t vnode, uint64_t bytes) {
  vnode_bytes_[vnode] += bytes;
  uncheckpointed_bytes_ += bytes;
}

void ModeledStateBackend::RemoveBytes(uint32_t vnode, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  RemoveBytesLocked(vnode, bytes);
}

void ModeledStateBackend::RemoveBytesLocked(uint32_t vnode, uint64_t bytes) {
  auto it = vnode_bytes_.find(vnode);
  if (it == vnode_bytes_.end()) return;
  it->second = bytes > it->second ? 0 : it->second - bytes;
}

void ModeledStateBackend::AdoptCheckpointVnodes(
    const CheckpointDescriptor& desc, const std::vector<uint32_t>& vnodes) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t adopted = 0;
  for (uint32_t v : vnodes) {
    auto it = desc.vnode_bytes.find(v);
    if (it == desc.vnode_bytes.end()) continue;
    vnode_bytes_[v] += it->second;
    adopted += it->second;
  }
  if (adopted > 0) {
    StateFile file{operator_name_ + "-" + std::to_string(instance_id_) +
                       "-adopted-" + std::to_string(next_file_id_++),
                   adopted};
    files_.push_back(file);
    // Already durable on this worker (it came out of a replicated
    // checkpoint), so it must not surface as a delta to replicate again.
    last_checkpoint_files_.push_back(file);
  }
}

Status ModeledStateBackend::Get(uint32_t, std::string_view, std::string*) {
  return Status::NotSupported("modeled backend stores no values");
}

Status ModeledStateBackend::ApplyBatch(const std::vector<StateWrite>& writes) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& w : writes) {
    if (w.is_delete) {
      RemoveBytesLocked(w.vnode, w.nominal_bytes);
    } else {
      AddBytesLocked(w.vnode, w.nominal_bytes);
    }
  }
  return Status::OK();
}

Result<std::vector<std::pair<std::string, std::string>>>
ModeledStateBackend::ScanPrefix(uint32_t, std::string_view) {
  return std::vector<std::pair<std::string, std::string>>{};
}

uint64_t ModeledStateBackend::SizeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [_, bytes] : vnode_bytes_) total += bytes;
  return total;
}

uint64_t ModeledStateBackend::VnodeBytes(uint32_t vnode) const {
  std::lock_guard<std::mutex> lock(mu_);
  return VnodeBytesLocked(vnode);
}

uint64_t ModeledStateBackend::VnodeBytesLocked(uint32_t vnode) const {
  auto it = vnode_bytes_.find(vnode);
  return it == vnode_bytes_.end() ? 0 : it->second;
}

Result<CheckpointDescriptor> ModeledStateBackend::Checkpoint(
    uint64_t checkpoint_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (uncheckpointed_bytes_ > 0) {
    StateFile delta;
    delta.name = operator_name_ + "-" + std::to_string(instance_id_) +
                 "-delta-" + std::to_string(next_file_id_++);
    delta.bytes = uncheckpointed_bytes_;
    files_.push_back(delta);
    uncheckpointed_bytes_ = 0;
  }
  CheckpointDescriptor desc;
  desc.checkpoint_id = checkpoint_id;
  desc.operator_name = operator_name_;
  desc.instance_id = instance_id_;
  desc.files = files_;
  desc.delta_files = DeltaFiles(last_checkpoint_files_, files_);
  desc.vnode_bytes = vnode_bytes_;
  last_checkpoint_files_ = files_;
  return desc;
}

Result<std::string> ModeledStateBackend::ExtractVnodes(
    const std::vector<uint32_t>& vnodes) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string blob;
  BinaryWriter w(&blob);
  w.PutU32(static_cast<uint32_t>(vnodes.size()));
  for (uint32_t v : vnodes) {
    w.PutU32(v);
    w.PutU64(VnodeBytesLocked(v));
  }
  return blob;
}

Status ModeledStateBackend::IngestVnodes(std::string_view blob,
                                         bool already_durable) {
  std::lock_guard<std::mutex> lock(mu_);
  BinaryReader r(blob);
  uint32_t num_vnodes = 0;
  uint64_t durable_ingested = 0;
  RHINO_RETURN_NOT_OK(r.GetU32(&num_vnodes));
  for (uint32_t i = 0; i < num_vnodes; ++i) {
    uint32_t vnode = 0;
    uint64_t bytes = 0;
    RHINO_RETURN_NOT_OK(r.GetU32(&vnode));
    RHINO_RETURN_NOT_OK(r.GetU64(&bytes));
    vnode_bytes_[vnode] += bytes;
    if (already_durable) {
      durable_ingested += bytes;
    } else {
      // A live-migration tail has not been checkpointed by *this* backend
      // yet; it becomes part of the next delta.
      uncheckpointed_bytes_ += bytes;
    }
  }
  if (durable_ingested > 0) {
    StateFile file{operator_name_ + "-" + std::to_string(instance_id_) +
                       "-restored-" + std::to_string(next_file_id_++),
                   durable_ingested};
    files_.push_back(file);
    last_checkpoint_files_.push_back(file);
  }
  return Status::OK();
}

Status ModeledStateBackend::DropVnodes(const std::vector<uint32_t>& vnodes) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t v : vnodes) vnode_bytes_.erase(v);
  return Status::OK();
}

void ModeledStateBackend::SetVnodeBytes(uint32_t vnode,
                                        uint64_t nominal_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  vnode_bytes_[vnode] = nominal_bytes;
}

}  // namespace rhino::state
