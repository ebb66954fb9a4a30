#include "dataflow/operator_host.h"

#include <algorithm>

#include "common/serde.h"

namespace rhino::dataflow {

namespace {

void PutBigEndian(std::string* out, uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// `kOutputRowPrefix | u32 source | u64 offset`, big-endian, so a
/// source's rows sort by offset.
std::string OutputRowPrefix(int source) {
  std::string key = kOutputRowPrefix;
  PutBigEndian(&key, static_cast<uint32_t>(source), 4);
  return key;
}

std::string OutputRowKey(int source, uint64_t offset) {
  std::string key = OutputRowPrefix(source);
  PutBigEndian(&key, offset, 8);
  return key;
}

uint64_t OutputRowOffset(std::string_view key) {
  uint64_t offset = 0;
  for (size_t i = key.size() - 8; i < key.size(); ++i) {
    offset = (offset << 8) | static_cast<uint8_t>(key[i]);
  }
  return offset;
}

void EncodeOutputs(const std::vector<const Record*>& records,
                   std::string* out) {
  BinaryWriter w(out);
  w.PutVarint(records.size());
  for (const Record* r : records) {
    w.PutVarint(r->key);
    w.PutZigzag(r->event_time);
    w.PutVarint(r->size);
    w.PutString(r->payload);
  }
}

/// Appends the records of an output row to `out`.
Status DecodeOutputs(std::string_view row, Batch* out) {
  BinaryReader r(row);
  uint64_t n = 0;
  RHINO_RETURN_NOT_OK(r.GetCount(/*min_element_bytes=*/4, &n));
  for (uint64_t i = 0; i < n; ++i) {
    Record rec;
    RHINO_RETURN_NOT_OK(r.GetVarint(&rec.key));
    RHINO_RETURN_NOT_OK(r.GetZigzag(&rec.event_time));
    RHINO_RETURN_NOT_OK(r.GetVarint32(&rec.size));
    RHINO_RETURN_NOT_OK(r.GetString(&rec.payload));
    out->count += 1;
    out->bytes += rec.size;
    out->records.push_back(std::move(rec));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in an output row");
  return Status::OK();
}

}  // namespace

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
                                        Batch* out, bool strict_ownership,
                                        std::optional<uint64_t> output_cursor) {
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
    std::set<uint32_t> deduped_vnodes;
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
        if (output_cursor.has_value()) deduped_vnodes.insert(vnode);
      } else {
        keep.push_back(std::move(r));
      }
    }
    batch.records = std::move(keep);
    if (output_cursor.has_value()) {
      // Answer a replay with the outputs its first apply kept: the reply
      // that carried them may never have arrived.
      const std::string key =
          OutputRowKey(batch.source_id, batch.source_offset);
      for (uint32_t vnode : deduped_vnodes) {
        std::string row;
        Status st = backend_->Get(vnode, key, &row);
        if (st.IsNotFound()) continue;
        RHINO_RETURN_NOT_OK(st);
        RHINO_RETURN_NOT_OK(DecodeOutputs(row, out));
        result.answered_vnodes.insert(vnode);
      }
    }
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
  const size_t first_output = out->records.size();
  RHINO_RETURN_NOT_OK(core_->Apply(backend_.get(), side, batch, vnode_of_,
                                   now, &writes, out));
  for (const VnodeSlice& slice : batch.slices) {
    result.applied_vnodes.insert(slice.vnode);
  }
  if (batch.slices.empty()) {
    for (const Record& r : batch.records) {
      result.applied_vnodes.insert(vnode_of_(r.key));
    }
  }
  if (output_cursor.has_value() && batch.source_id >= 0) {
    RHINO_RETURN_NOT_OK(KeepOutputs(batch, *output_cursor, result,
                                    *out, first_output, &writes));
  }
  if (!writes.empty()) RHINO_RETURN_NOT_OK(backend_->ApplyBatch(writes));

  // Post-batch watermark advance: only after the whole surviving batch is
  // committed do the applied vnodes expect the next offset. (For slice
  // feeds this is equivalent to advancing during the filter — a vnode
  // appears in at most one slice per batch.)
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

Status OperatorHost::KeepOutputs(const Batch& batch, uint64_t output_cursor,
                                 const ApplyResult& result, const Batch& out,
                                 size_t first_output,
                                 std::vector<state::StateWrite>* writes) {
  std::map<uint32_t, std::vector<const Record*>> by_vnode;
  for (size_t i = first_output; i < out.records.size(); ++i) {
    const uint32_t vnode = vnode_of_(out.records[i].key);
    if (result.applied_vnodes.count(vnode)) {
      by_vnode[vnode].push_back(&out.records[i]);
    }
  }
  const std::string prefix = OutputRowPrefix(batch.source_id);
  for (uint32_t vnode : result.applied_vnodes) {
    RHINO_ASSIGN_OR_RETURN(auto rows, backend_->ScanPrefix(vnode, prefix));
    for (const auto& [key, row] : rows) {
      if (OutputRowOffset(key) < output_cursor) {
        writes->push_back({vnode, /*is_delete=*/true, key, {}, 0});
      }
    }
    auto it = by_vnode.find(vnode);
    if (it == by_vnode.end()) continue;
    std::string row;
    EncodeOutputs(it->second, &row);
    writes->push_back({vnode, /*is_delete=*/false,
                       OutputRowKey(batch.source_id, batch.source_offset),
                       std::move(row), 0});
  }
  return Status::OK();
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
