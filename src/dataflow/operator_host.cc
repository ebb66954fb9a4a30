#include "dataflow/operator_host.h"

#include <algorithm>

namespace rhino::dataflow {

Result<std::unique_ptr<OperatorHost>> OperatorHost::Create(
    OperatorSpec spec, std::unique_ptr<state::StateBackend> backend,
    VnodeFn vnode_of, uint32_t instance_id) {
  if (backend == nullptr) {
    return Status::InvalidArgument("operator host requires a state backend");
  }
  if (!vnode_of) {
    return Status::InvalidArgument("operator host requires a vnode routing fn");
  }
  // Owner tag: instance ids start at 0 but the tag must be non-zero so the
  // join uniquifier ranges of "subtask 0" and "never migrated" differ.
  RHINO_ASSIGN_OR_RETURN(
      auto core, MakeOperatorCore(spec, static_cast<uint64_t>(instance_id) + 1));
  return std::unique_ptr<OperatorHost>(
      new OperatorHost(std::move(spec), std::move(backend), std::move(core),
                       std::move(vnode_of), instance_id));
}

Result<ApplyResult> OperatorHost::Apply(int side, Batch& batch, SimTime now,
                                        Batch* out, bool strict_ownership) {
  ApplyResult result;

  if (strict_ownership) {
    // Reject *before* mutating any state, so a misrouted batch is a clean
    // retryable error instead of a torn half-application.
    for (const Record& r : batch.records) {
      uint32_t vnode = vnode_of_(r.key);
      if (!Owns(vnode)) {
        return Status::FailedPrecondition(
            "instance " + std::to_string(instance_id_) + " does not own vnode " +
            std::to_string(vnode) + " of operator " + spec_.name +
            " (stale routing?)");
      }
    }
    for (const VnodeSlice& slice : batch.slices) {
      if (!Owns(slice.vnode)) {
        return Status::FailedPrecondition(
            "instance " + std::to_string(instance_id_) + " does not own vnode " +
            std::to_string(slice.vnode) + " of operator " + spec_.name +
            " (stale routing?)");
      }
    }
  }

  // Replay deduplication: drop the parts of the batch this host's state
  // already reflects (offset below the per-vnode watermark).
  if (batch.source_id >= 0 && !batch.slices.empty()) {
    // Slice-granular feeds (the sim/modeled path): a vnode appears in at
    // most one slice per batch, so dedup is per slice.
    std::vector<VnodeSlice> fresh;
    for (const VnodeSlice& slice : batch.slices) {
      auto vit = watermarks_.find(slice.vnode);
      uint64_t next = 0;
      if (vit != watermarks_.end()) {
        auto sit = vit->second.find(batch.source_id);
        if (sit != vit->second.end()) next = sit->second;
      }
      if (batch.source_offset < next) {
        result.dropped_vnodes.insert(slice.vnode);
        result.deduped += slice.count;
        batch.count -= std::min(batch.count, slice.count);
        batch.bytes -= std::min(batch.bytes, slice.bytes);
      } else {
        fresh.push_back(slice);
      }
    }
    if (!result.dropped_vnodes.empty()) {
      batch.slices = std::move(fresh);
      if (!batch.records.empty()) {
        std::vector<Record> keep;
        for (auto& r : batch.records) {
          if (!result.dropped_vnodes.count(vnode_of_(r.key))) {
            keep.push_back(std::move(r));
          }
        }
        batch.records = std::move(keep);
      }
      if (batch.slices.empty()) {  // whole batch already seen
        result.fully_deduped = true;
        return result;
      }
    }
  } else if (batch.source_id >= 0 && !batch.records.empty()) {
    // Record-granular feeds (the networked runtime): dedup per record.
    std::vector<Record> keep;
    keep.reserve(batch.records.size());
    for (auto& r : batch.records) {
      uint32_t vnode = vnode_of_(r.key);
      auto vit = watermarks_.find(vnode);
      uint64_t next = 0;
      if (vit != watermarks_.end()) {
        auto sit = vit->second.find(batch.source_id);
        if (sit != vit->second.end()) next = sit->second;
      }
      if (batch.source_offset < next) {
        ++result.deduped;
        batch.count -= std::min<uint64_t>(batch.count, 1);
        batch.bytes -= std::min<uint64_t>(batch.bytes, r.size);
      } else {
        keep.push_back(std::move(r));
      }
    }
    batch.records = std::move(keep);
    if (batch.records.empty()) {  // whole batch already seen
      result.fully_deduped = true;
      return result;
    }
  }

  // The batch's single commit point: the core stages, one ApplyBatch
  // commits (all or nothing on the LSM backend), and only a committed
  // batch moves the watermarks. A failed commit leaves both untouched,
  // so the driver's resend of the same offset applies the batch once.
  std::vector<state::StateWrite> writes;
  RHINO_RETURN_NOT_OK(core_->Apply(backend_.get(), side, batch, vnode_of_,
                                   now, &writes, out));
  if (!writes.empty()) RHINO_RETURN_NOT_OK(backend_->ApplyBatch(writes));

  // Post-batch watermark advance: only after the whole surviving batch is
  // committed do the applied vnodes expect the next offset. (For slice
  // feeds this is equivalent to advancing during the filter — a vnode
  // appears in at most one slice per batch.)
  for (const VnodeSlice& slice : batch.slices) {
    result.applied_vnodes.insert(slice.vnode);
  }
  if (batch.slices.empty()) {
    for (const Record& r : batch.records) {
      result.applied_vnodes.insert(vnode_of_(r.key));
    }
  }
  if (batch.source_id >= 0) {
    for (uint32_t vnode : result.applied_vnodes) {
      uint64_t& mark = watermarks_[vnode][batch.source_id];
      if (batch.source_offset + 1 > mark) mark = batch.source_offset + 1;
    }
  }
  result.applied =
      batch.records.empty() ? batch.count : batch.records.size();
  return result;
}

Result<OperatorQueryResult> OperatorHost::Query(uint64_t key) {
  return core_->Query(backend_.get(), vnode_of_(key), key);
}

Status OperatorHost::Drop(const std::vector<uint32_t>& vnodes) {
  RHINO_RETURN_NOT_OK(backend_->DropVnodes(vnodes));
  for (uint32_t v : vnodes) {
    owned_.erase(v);
    watermarks_.erase(v);
  }
  return Status::OK();
}

void OperatorHost::Demote(const std::vector<uint32_t>& vnodes) {
  backend_->ForgetVnodes(vnodes);
  for (uint32_t v : vnodes) {
    owned_.erase(v);
    watermarks_.erase(v);
  }
}

void OperatorHost::Own(uint32_t vnode, std::map<int, uint64_t> watermarks) {
  owned_.insert(vnode);
  if (watermarks.empty()) {
    watermarks_.erase(vnode);
  } else {
    watermarks_[vnode] = std::move(watermarks);
  }
}

OperatorHost::WatermarkMap OperatorHost::GetWatermarks(
    const std::vector<uint32_t>& vnodes) const {
  WatermarkMap out;
  for (uint32_t v : vnodes) {
    auto it = watermarks_.find(v);
    if (it != watermarks_.end()) out[v] = it->second;
  }
  return out;
}

state::VnodeImage OperatorHost::Describe(uint32_t vnode) const {
  state::VnodeImage image;
  image.vnode = vnode;
  image.bytes = backend_->VnodeBytes(vnode);
  auto it = watermarks_.find(vnode);
  if (it != watermarks_.end()) image.watermarks = it->second;
  return image;
}

void OperatorHost::MergeWatermarks(const WatermarkMap& marks) {
  for (const auto& [vnode, sources] : marks) {
    for (const auto& [source, next] : sources) {
      uint64_t& mine = watermarks_[vnode][source];
      if (next > mine) mine = next;
    }
  }
}

Result<state::CheckpointDescriptor> OperatorHost::CaptureCheckpoint(
    uint64_t checkpoint_id) {
  RHINO_ASSIGN_OR_RETURN(auto desc, backend_->Checkpoint(checkpoint_id));
  std::vector<uint32_t> owned(owned_.begin(), owned_.end());
  desc.vnode_watermarks = GetWatermarks(owned);
  return desc;
}

}  // namespace rhino::dataflow
