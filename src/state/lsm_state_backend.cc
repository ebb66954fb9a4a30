#include "state/lsm_state_backend.h"

#include <algorithm>
#include <cstring>

#include "common/serde.h"

namespace rhino::state {

namespace {

// The tag's value field: 0 is a tombstone, 1 + length an inline value
// length, kLongValue a varint length after the suffix.
constexpr uint64_t kTombstone = 0;
constexpr uint64_t kLongValue = 7;

}  // namespace

void EntryWriter::Append(std::string_view key, uint64_t vfield,
                         std::string_view value) {
  const size_t limit = std::min(last_.size(), key.size());
  size_t shared = 0;
  while (shared < limit && last_[shared] == key[shared]) ++shared;
  const uint64_t unshared = key.size() - shared;
  const bool same_length = key.size() == last_.size();
  BinaryWriter w(out_);
  w.PutVarint(unshared << 4 | vfield << 1 | (same_length ? 1 : 0));
  if (!same_length) w.PutVarint(shared);
  out_->append(key.substr(shared));
  if (vfield == kLongValue) w.PutVarint(value.size());
  out_->append(value);
  last_.assign(key);
}

void EntryWriter::Put(std::string_view key, std::string_view value) {
  Append(key, value.size() < kLongValue - 1 ? value.size() + 1 : kLongValue,
         value);
}

void EntryWriter::Delete(std::string_view key) { Append(key, kTombstone, ""); }

Status EntryReader::Next() {
  // Raw pointers rather than a BinaryReader: this runs once per entry of
  // every ingest, held-row write and decode.
  const char* p = data_.data() + pos_;
  const char* const end = data_.data() + data_.size();
  uint64_t tag = 0;
  p = DecodeVarint(p, end, &tag);
  if (p == nullptr) return Status::Corruption("truncated state entry");
  const uint64_t unshared = tag >> 4;
  const uint64_t vfield = (tag >> 1) & 7;
  // An implied `shared` wraps past the previous key's length when the
  // suffix is longer than that key, and fails the check below.
  uint64_t shared = key_.size() - unshared;
  if ((tag & 1) == 0) {
    p = DecodeVarint(p, end, &shared);
    if (p == nullptr) return Status::Corruption("truncated state entry");
  }
  if (shared > key_.size()) {
    return Status::Corruption("state entry shares more than its previous key");
  }
  if (unshared > static_cast<uint64_t>(end - p)) {
    return Status::Corruption("truncated state entry");
  }
  const char* suffix = p;
  p += unshared;
  uint64_t value_size = vfield - 1;
  if (vfield == kLongValue) {
    p = DecodeVarint(p, end, &value_size);
    if (p == nullptr) return Status::Corruption("truncated state entry");
  }
  if (vfield != kTombstone && value_size > static_cast<uint64_t>(end - p)) {
    return Status::Corruption("state entry value runs past the run");
  }
  key_.resize(shared + unshared);
  std::memcpy(key_.data() + shared, suffix, unshared);
  tombstone_ = vfield == kTombstone;
  value_ = tombstone_ ? std::string_view() : std::string_view(p, value_size);
  pos_ = static_cast<size_t>(p + value_.size() - data_.data());
  return Status::OK();
}

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

Status LsmStateBackend::ReadVnodeEntries(uint32_t vnode, std::string* run) {
  // No lock: like WriteVnodeEntries it touches no accounting, and the
  // iterator is a snapshot of the DB.
  run->clear();
  RHINO_ASSIGN_OR_RETURN(auto it, db_->NewIterator(EncodeKey(vnode, ""),
                                                   EncodeKey(vnode + 1, "")));
  EntryWriter entries(run);
  for (; it.Valid(); it.Next()) {
    entries.Put(std::string_view(it.key()).substr(4), it.value());
  }
  return Status::OK();
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

void LsmStateBackend::ForgetVnodes(const std::vector<uint32_t>& vnodes) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t v : vnodes) {
    vnode_bytes_.erase(v);
    for (auto& capture : captures_) capture.Discard(v);
  }
}

Status LsmStateBackend::AddRun(uint32_t vnode, std::string_view run,
                               lsm::WriteBatch* batch) {
  std::string key = EncodeKey(vnode, "");
  EntryReader entries(run);
  while (!entries.AtEnd()) {
    RHINO_RETURN_NOT_OK(entries.Next());
    key.resize(4);
    key.append(entries.key());
    if (entries.is_tombstone()) {
      batch->Delete(key);
    } else {
      batch->Put(key, entries.value());
    }
  }
  return Status::OK();
}

Status LsmStateBackend::WriteVnodeEntries(uint32_t vnode,
                                          std::string_view run) {
  // No lock: held rows touch neither the accounting nor the capture, and
  // the DB serializes its own writes.
  lsm::WriteBatch batch;
  RHINO_RETURN_NOT_OK(AddRun(vnode, run, &batch));
  return db_->Write(batch);
}

Status LsmStateBackend::IngestImages(const std::vector<VnodeImage>& images,
                                     bool) {
  // Every run is decoded before the first commit, so a malformed one
  // writes nothing. The runs then commit one batch per vnode: one batch of
  // all of them copies buffers of the whole ingest's size, and ingested
  // micro_lsm's 16 vnodes of 2000 entries about a third slower on a
  // 4-core host. An empty run (a held copy taken over, a restored chain)
  // makes an empty batch, which commits nothing, not even a WAL record.
  std::vector<lsm::WriteBatch> batches(images.size());
  for (size_t i = 0; i < images.size(); ++i) {
    RHINO_RETURN_NOT_OK(
        AddRun(images[i].vnode, images[i].entries, &batches[i]));
  }
  for (const lsm::WriteBatch& batch : batches) {
    RHINO_RETURN_NOT_OK(db_->Write(batch));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const VnodeImage& image : images) {
    vnode_bytes_[image.vnode] = image.bytes;
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
  EntryWriter entries(run);
  for (const auto& [key, write] : order) {
    if (write->is_delete) {
      entries.Delete(*key);
    } else {
      entries.Put(*key, write->value);
    }
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

}  // namespace rhino::state
