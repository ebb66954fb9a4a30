#include "state/lsm_state_backend.h"

#include <algorithm>
#include <cstring>

#include "common/serde.h"

namespace rhino::state {

Result<std::unique_ptr<LsmStateBackend>> LsmStateBackend::Open(
    lsm::Env* env, std::string dir, std::string operator_name,
    uint32_t instance_id, lsm::Options options) {
  auto backend = std::unique_ptr<LsmStateBackend>(new LsmStateBackend(
      env, std::move(dir), std::move(operator_name), instance_id));
  RHINO_ASSIGN_OR_RETURN(backend->db_,
                         lsm::DB::Open(env, backend->dir_, options));
  return backend;
}

std::string LsmStateBackend::EncodeKey(uint32_t vnode, std::string_view key) {
  // Big-endian vnode prefix keeps each vnode's keys contiguous and sorted.
  std::string out;
  out.reserve(4 + key.size());
  out.push_back(static_cast<char>(vnode >> 24));
  out.push_back(static_cast<char>(vnode >> 16));
  out.push_back(static_cast<char>(vnode >> 8));
  out.push_back(static_cast<char>(vnode));
  out.append(key);
  return out;
}

Status LsmStateBackend::Get(uint32_t vnode, std::string_view key,
                            std::string* value) {
  return db_->Get(EncodeKey(vnode, key), value);
}

void LsmStateBackend::DiscountBytes(uint32_t vnode, uint64_t nominal_bytes) {
  auto it = vnode_bytes_.find(vnode);
  if (it != vnode_bytes_.end()) {
    it->second = nominal_bytes > it->second ? 0 : it->second - nominal_bytes;
  }
}

Status LsmStateBackend::ApplyBatch(const std::vector<StateWrite>& writes) {
  std::lock_guard<std::mutex> lock(mu_);
  lsm::WriteBatch batch;
  for (const auto& w : writes) {
    if (w.is_delete) {
      batch.Delete(EncodeKey(w.vnode, w.key));
    } else {
      batch.Put(EncodeKey(w.vnode, w.key), w.value);
    }
  }
  RHINO_RETURN_NOT_OK(db_->Write(batch));
  // Accounting (and capture) only after the whole run committed.
  for (const auto& w : writes) {
    if (w.is_delete) {
      DiscountBytes(w.vnode, w.nominal_bytes);
    } else {
      vnode_bytes_[w.vnode] += w.nominal_bytes;
    }
    Capture(w.vnode, w.key, w.is_delete, w.value);
  }
  return Status::OK();
}

Result<std::vector<std::pair<std::string, std::string>>>
LsmStateBackend::ScanPrefix(uint32_t vnode, std::string_view prefix) {
  // Upper bound: the prefix with its last byte incremented (carrying over
  // 0xff bytes). An all-0xff prefix falls back to the vnode end.
  std::string begin = EncodeKey(vnode, prefix);
  std::string end = begin;
  while (!end.empty() && static_cast<uint8_t>(end.back()) == 0xff) end.pop_back();
  if (end.empty()) {
    end = EncodeKey(vnode + 1, "");
  } else {
    end.back() = static_cast<char>(static_cast<uint8_t>(end.back()) + 1);
  }
  RHINO_ASSIGN_OR_RETURN(auto it, db_->NewIterator(begin, end));
  std::vector<std::pair<std::string, std::string>> out;
  for (; it.Valid(); it.Next()) {
    out.emplace_back(it.key().substr(4), it.value());
  }
  return out;
}

uint64_t LsmStateBackend::SizeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [_, bytes] : vnode_bytes_) total += bytes;
  return total;
}

uint64_t LsmStateBackend::VnodeBytes(uint32_t vnode) const {
  std::lock_guard<std::mutex> lock(mu_);
  return VnodeBytesLocked(vnode);
}

uint64_t LsmStateBackend::VnodeBytesLocked(uint32_t vnode) const {
  auto it = vnode_bytes_.find(vnode);
  return it == vnode_bytes_.end() ? 0 : it->second;
}

Result<CheckpointDescriptor> LsmStateBackend::Checkpoint(
    uint64_t checkpoint_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string ckpt_dir = dir_ + "-chk-" + std::to_string(checkpoint_id);
  RHINO_ASSIGN_OR_RETURN(auto info, db_->CreateCheckpoint(ckpt_dir));

  CheckpointDescriptor desc;
  desc.checkpoint_id = checkpoint_id;
  desc.operator_name = operator_name_;
  desc.instance_id = instance_id_;
  for (const auto& f : info.files) {
    desc.files.push_back(StateFile{f.name, f.size});
  }
  desc.delta_files = DeltaFiles(last_checkpoint_files_, desc.files);
  desc.vnode_bytes = vnode_bytes_;
  last_checkpoint_files_ = desc.files;
  return desc;
}

Result<std::string> LsmStateBackend::ExtractVnodes(
    const std::vector<uint32_t>& vnodes) {
  std::lock_guard<std::mutex> lock(mu_);
  // Entries stream straight from the DB iterator into the blob; the only
  // intermediate state per vnode is the fixed-width entry count, written
  // as a placeholder and patched once the vnode is done.
  std::string blob;
  BinaryWriter w(&blob);
  w.PutU32(static_cast<uint32_t>(vnodes.size()));
  for (uint32_t v : vnodes) {
    w.PutU32(v);
    w.PutU64(VnodeBytesLocked(v));
    size_t count_offset = blob.size();
    w.PutU64(0);
    uint64_t count = 0;
    RHINO_ASSIGN_OR_RETURN(
        auto it, db_->NewIterator(EncodeKey(v, ""), EncodeKey(v + 1, "")));
    for (; it.Valid(); it.Next()) {
      w.PutString(std::string_view(it.key()).substr(4));
      w.PutString(it.value());
      ++count;
    }
    std::memcpy(blob.data() + count_offset, &count, sizeof(count));
  }
  return blob;
}

Status LsmStateBackend::IngestVnodes(std::string_view blob, bool) {
  std::lock_guard<std::mutex> lock(mu_);
  // Entries are replayed through group-committed batches: one WAL append
  // per ~kIngestCommitBytes of entries rather than one per entry, which
  // is where vnode-restore ingest throughput comes from.
  constexpr uint64_t kIngestCommitBytes = 1 << 20;
  BinaryReader r(blob);
  uint32_t num_vnodes = 0;
  RHINO_RETURN_NOT_OK(r.GetU32(&num_vnodes));
  lsm::WriteBatch batch;
  for (uint32_t i = 0; i < num_vnodes; ++i) {
    uint32_t vnode = 0;
    uint64_t nominal = 0, count = 0;
    RHINO_RETURN_NOT_OK(r.GetU32(&vnode));
    RHINO_RETURN_NOT_OK(r.GetU64(&nominal));
    RHINO_RETURN_NOT_OK(r.GetU64(&count));
    for (uint64_t e = 0; e < count; ++e) {
      std::string_view key, value;
      RHINO_RETURN_NOT_OK(r.GetString(&key));
      RHINO_RETURN_NOT_OK(r.GetString(&value));
      batch.Put(EncodeKey(vnode, key), value);
      if (batch.ApproximateBytes() >= kIngestCommitBytes) {
        RHINO_RETURN_NOT_OK(db_->Write(batch));
        batch.Clear();
      }
    }
    vnode_bytes_[vnode] += nominal;
  }
  return db_->Write(batch);
}

Status LsmStateBackend::DropVnodes(const std::vector<uint32_t>& vnodes) {
  std::lock_guard<std::mutex> lock(mu_);
  constexpr uint64_t kDropCommitBytes = 1 << 20;
  for (uint32_t v : vnodes) {
    // Deleting while iterating is safe: the iterator is a snapshot, so
    // the tombstones it writes (and any flush/compaction they trigger) do
    // not perturb the visit. Tombstones are group-committed in runs.
    RHINO_ASSIGN_OR_RETURN(
        auto it, db_->NewIterator(EncodeKey(v, ""), EncodeKey(v + 1, "")));
    lsm::WriteBatch batch;
    for (; it.Valid(); it.Next()) {
      batch.Delete(it.key());
      if (batch.ApproximateBytes() >= kDropCommitBytes) {
        RHINO_RETURN_NOT_OK(db_->Write(batch));
        batch.Clear();
      }
    }
    RHINO_RETURN_NOT_OK(db_->Write(batch));
    vnode_bytes_.erase(v);
    for (auto& capture : captures_) capture.Discard(v);
  }
  return Status::OK();
}

void LsmStateBackend::ReaderCapture::Record(uint32_t vnode,
                                            std::string_view key,
                                            bool is_delete,
                                            std::string_view value) {
  auto [it, inserted] = vnodes[vnode].try_emplace(std::string(key));
  if (inserted) ++keys;
  it->second.is_delete = is_delete;
  it->second.value.assign(value);
}

void LsmStateBackend::ReaderCapture::Discard(uint32_t vnode) {
  auto it = vnodes.find(vnode);
  if (it == vnodes.end()) return;
  keys -= it->second.size();
  vnodes.erase(it);
}

void LsmStateBackend::SetChangeCapture(ChangeReader reader, bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  ReaderCapture& capture = captures_[static_cast<size_t>(reader)];
  capture.on = on;
  if (!on) {
    capture.vnodes.clear();
    capture.keys = 0;
  }
}

std::optional<uint64_t> LsmStateBackend::TakeChanges(ChangeReader reader,
                                                     uint32_t vnode,
                                                     std::string* run) {
  std::lock_guard<std::mutex> lock(mu_);
  run->clear();
  ReaderCapture& capture = captures_[static_cast<size_t>(reader)];
  // With capture off, writes since the last take went unrecorded: only a
  // whole vnode is a correct delta.
  if (!capture.on) return std::nullopt;
  auto it = capture.vnodes.find(vnode);
  if (it == capture.vnodes.end()) return 0;
  // Sort pointers, not entries: moving the strings would dominate.
  std::vector<std::pair<const std::string*, const CapturedWrite*>> order;
  order.reserve(it->second.size());
  for (const auto& [key, write] : it->second) order.emplace_back(&key, &write);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  BinaryWriter w(run);
  for (const auto& [key, write] : order) {
    w.PutU8(write->is_delete ? 1 : 0);
    w.PutString(*key);
    if (!write->is_delete) w.PutString(write->value);
  }
  const uint64_t keys = it->second.size();
  capture.Discard(vnode);
  return keys;
}

void LsmStateBackend::DiscardChanges(ChangeReader reader,
                                     const std::vector<uint32_t>& vnodes) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t v : vnodes) captures_[static_cast<size_t>(reader)].Discard(v);
}

uint64_t LsmStateBackend::CapturedKeys(ChangeReader reader) const {
  std::lock_guard<std::mutex> lock(mu_);
  return captures_[static_cast<size_t>(reader)].keys;
}

Result<std::string> LsmStateBackend::MergeChangesIntoBlob(
    std::string_view blob, std::string_view run, uint64_t nominal_bytes) {
  constexpr size_t kCountOffset = 4 + 4 + 8;  // nvnodes | vnode | nominal
  BinaryReader r(blob);
  uint32_t num_vnodes = 0, vnode = 0;
  uint64_t old_nominal = 0, count = 0;
  RHINO_RETURN_NOT_OK(r.GetU32(&num_vnodes));
  if (num_vnodes != 1) {
    return Status::Corruption("merge target is not a one-vnode blob");
  }
  RHINO_RETURN_NOT_OK(r.GetU32(&vnode));
  RHINO_RETURN_NOT_OK(r.GetU64(&old_nominal));
  RHINO_RETURN_NOT_OK(r.GetU64(&count));

  // The run, one change at a time; `change_key` is empty-and-done when
  // `has_change` is false.
  BinaryReader changes(run);
  bool has_change = false;
  bool change_is_delete = false;
  std::string_view change_key, change_value;
  auto next_change = [&]() -> Status {
    if (changes.AtEnd()) {
      has_change = false;
      return Status::OK();
    }
    std::string_view previous = change_key;
    const bool first = !has_change;
    uint8_t tag = 0;
    RHINO_RETURN_NOT_OK(changes.GetU8(&tag));
    if (tag > 1) return Status::Corruption("unknown change tag");
    change_is_delete = tag == 1;
    RHINO_RETURN_NOT_OK(changes.GetString(&change_key));
    change_value = {};
    if (!change_is_delete) RHINO_RETURN_NOT_OK(changes.GetString(&change_value));
    if (!first && !(previous < change_key)) {
      return Status::Corruption("change run is not sorted by key");
    }
    has_change = true;
    return Status::OK();
  };

  std::string out;
  out.reserve(blob.size() + run.size());
  BinaryWriter w(&out);
  w.PutU32(1);
  w.PutU32(vnode);
  w.PutU64(nominal_bytes);
  w.PutU64(0);  // patched below
  uint64_t merged = 0;
  // Untouched entries are copied as raw byte ranges of the blob: `kept`
  // is where the range not yet copied starts.
  size_t kept = r.position();
  auto copy_kept = [&](size_t upto) {
    out.append(blob.substr(kept, upto - kept));
    kept = upto;
  };
  // Emits the pending change (a put; tombstones emit nothing) and reads
  // the next one.
  auto apply_change = [&]() -> Status {
    if (!change_is_delete) {
      w.PutString(change_key);
      w.PutString(change_value);
      ++merged;
    }
    return next_change();
  };
  RHINO_RETURN_NOT_OK(next_change());
  for (uint64_t e = 0; e < count; ++e) {
    const size_t start = r.position();
    std::string_view key, value;
    RHINO_RETURN_NOT_OK(r.GetString(&key));
    RHINO_RETURN_NOT_OK(r.GetString(&value));
    if (!has_change || key < change_key) {
      ++merged;  // untouched: stays in the kept range
      continue;
    }
    copy_kept(start);
    while (has_change && change_key < key) {
      RHINO_RETURN_NOT_OK(apply_change());
    }
    if (has_change && change_key == key) {
      // The change replaces this entry; a tombstone erases it.
      RHINO_RETURN_NOT_OK(apply_change());
      kept = r.position();
    } else {
      ++merged;
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after vnode blob");
  copy_kept(r.position());
  while (has_change) RHINO_RETURN_NOT_OK(apply_change());
  std::memcpy(out.data() + kCountOffset, &merged, sizeof(merged));
  return out;
}

}  // namespace rhino::state
