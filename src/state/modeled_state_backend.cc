#include "state/modeled_state_backend.h"

namespace rhino::state {

void ModeledStateBackend::AddBytes(uint32_t vnode, uint64_t bytes) {
  vnode_bytes_[vnode] += bytes;
  uncheckpointed_bytes_ += bytes;
}

void ModeledStateBackend::RemoveBytes(uint32_t vnode, uint64_t bytes) {
  auto it = vnode_bytes_.find(vnode);
  if (it == vnode_bytes_.end()) return;
  it->second = bytes > it->second ? 0 : it->second - bytes;
}

Status ModeledStateBackend::Get(uint32_t, std::string_view, std::string*) {
  return Status::NotSupported("modeled backend stores no values");
}

Status ModeledStateBackend::ApplyBatch(const std::vector<StateWrite>& writes) {
  for (const auto& w : writes) {
    if (w.is_delete) {
      RemoveBytes(w.vnode, w.nominal_bytes);
    } else {
      AddBytes(w.vnode, w.nominal_bytes);
    }
  }
  return Status::OK();
}

Result<std::vector<std::pair<std::string, std::string>>>
ModeledStateBackend::ScanPrefix(uint32_t, std::string_view) {
  return std::vector<std::pair<std::string, std::string>>{};
}

uint64_t ModeledStateBackend::SizeBytes() const {
  uint64_t total = 0;
  for (const auto& [_, bytes] : vnode_bytes_) total += bytes;
  return total;
}

uint64_t ModeledStateBackend::VnodeBytes(uint32_t vnode) const {
  auto it = vnode_bytes_.find(vnode);
  return it == vnode_bytes_.end() ? 0 : it->second;
}

Result<CheckpointDescriptor> ModeledStateBackend::Checkpoint(
    uint64_t checkpoint_id) {
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

Status ModeledStateBackend::IngestImages(const std::vector<VnodeImage>& images,
                                         bool already_durable) {
  uint64_t ingested = 0;
  for (const VnodeImage& image : images) {
    vnode_bytes_[image.vnode] = image.bytes;
    ingested += image.bytes;
  }
  if (!already_durable) {
    // A live migration has not been checkpointed by *this* backend yet; it
    // becomes part of the next delta.
    uncheckpointed_bytes_ += ingested;
  } else if (ingested > 0) {
    StateFile file{operator_name_ + "-" + std::to_string(instance_id_) +
                       "-restored-" + std::to_string(next_file_id_++),
                   ingested};
    files_.push_back(file);
    last_checkpoint_files_.push_back(file);
  }
  return Status::OK();
}

Status ModeledStateBackend::DropVnodes(const std::vector<uint32_t>& vnodes) {
  ForgetVnodes(vnodes);
  return Status::OK();
}

void ModeledStateBackend::ForgetVnodes(const std::vector<uint32_t>& vnodes) {
  for (uint32_t v : vnodes) vnode_bytes_.erase(v);
}

}  // namespace rhino::state
