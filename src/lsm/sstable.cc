#include "lsm/sstable.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/serde.h"

namespace rhino::lsm {

namespace {

/// Appends one entry to a block buffer.
void EncodeEntry(std::string* out, std::string_view key, uint64_t seq,
                 ValueType type, std::string_view value) {
  BinaryWriter w(out);
  w.PutVarint(key.size());
  out->append(key.data(), key.size());
  w.PutVarint(seq);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutVarint(value.size());
  out->append(value.data(), value.size());
}

/// Decodes one entry starting at `*pos` in `data`; advances `*pos`.
Status DecodeEntry(std::string_view data, size_t* pos, Entry* entry) {
  BinaryReader r(data.substr(*pos));
  uint64_t klen = 0;
  RHINO_RETURN_NOT_OK(r.GetVarint(&klen));
  if (r.remaining() < klen) return Status::Corruption("sst entry key");
  entry->key.assign(data.substr(*pos + r.position(), klen));
  BinaryReader r2(data.substr(*pos + r.position() + klen));
  uint64_t seq = 0;
  uint8_t type = 0;
  uint64_t vlen = 0;
  RHINO_RETURN_NOT_OK(r2.GetVarint(&seq));
  RHINO_RETURN_NOT_OK(r2.GetU8(&type));
  RHINO_RETURN_NOT_OK(r2.GetVarint(&vlen));
  size_t voff = *pos + r.position() + klen + r2.position();
  if (voff + vlen > data.size()) return Status::Corruption("sst entry value");
  entry->seq = seq;
  entry->type = static_cast<ValueType>(type);
  entry->value.assign(data.substr(voff, vlen));
  *pos = voff + vlen;
  return Status::OK();
}

/// RandomAccessFile adapter over an owned in-memory buffer, for readers
/// opened on a byte string instead of an Env path.
class StringFile : public RandomAccessFile {
 public:
  explicit StringFile(std::shared_ptr<const std::string> content)
      : content_(std::move(content)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->clear();
    if (offset >= content_->size()) return Status::OK();
    size_t len = std::min<uint64_t>(n, content_->size() - offset);
    out->assign(*content_, static_cast<size_t>(offset), len);
    return Status::OK();
  }

  uint64_t Size() const override { return content_->size(); }

 private:
  std::shared_ptr<const std::string> content_;
};

}  // namespace

// -------------------------------------------------------- SSTableBuilder --

void SSTableBuilder::Add(std::string_view key, uint64_t seq, ValueType type,
                         std::string_view value) {
  RHINO_DCHECK(num_entries_ == 0 || key > largest_)
      << "keys must be added in strictly increasing order";
  if (num_entries_ == 0) smallest_.assign(key);
  largest_.assign(key);
  bloom_.AddKey(key);
  EncodeEntry(&block_, key, seq, type, value);
  ++num_entries_;
  peak_buffer_bytes_ = std::max<uint64_t>(peak_buffer_bytes_, block_.size());
  if (block_.size() >= block_size_) FlushBlock();
}

void SSTableBuilder::FlushBlock() {
  if (block_.empty()) return;
  index_.push_back(IndexEntry{largest_, data_offset_, block_.size()});
  data_offset_ += block_.size();
  if (sink_ != nullptr) {
    if (sink_status_.ok()) sink_status_ = sink_->Append(block_);
  } else {
    file_ += block_;
  }
  block_.clear();
}

std::string SSTableBuilder::EncodeTail() {
  std::string tail;
  uint64_t index_off = data_offset_;
  {
    BinaryWriter w(&tail);
    w.PutVarint(index_.size());
    for (const auto& e : index_) {
      w.PutString(e.last_key);
      w.PutVarint(e.offset);
      w.PutVarint(e.size);
    }
  }
  uint64_t index_len = tail.size();
  uint64_t bloom_off = index_off + index_len;
  tail += bloom_.Finish();
  uint64_t bloom_len = index_off + tail.size() - bloom_off;
  BinaryWriter w(&tail);
  w.PutU64(index_off);
  w.PutU64(index_len);
  w.PutU64(bloom_off);
  w.PutU64(bloom_len);
  w.PutU64(num_entries_);
  w.PutU64(kSstMagic);
  return tail;
}

std::string SSTableBuilder::Finish() {
  RHINO_DCHECK(sink_ == nullptr) << "streaming builds finalize via FinishStream";
  FlushBlock();
  std::string tail = EncodeTail();
  peak_buffer_bytes_ = std::max<uint64_t>(peak_buffer_bytes_, tail.size());
  file_ += tail;
  file_size_ = file_.size();
  return std::move(file_);
}

Status SSTableBuilder::FinishStream() {
  RHINO_DCHECK(sink_ != nullptr) << "in-memory builds finalize via Finish";
  FlushBlock();
  RHINO_RETURN_NOT_OK(sink_status_);
  std::string tail = EncodeTail();
  peak_buffer_bytes_ = std::max<uint64_t>(peak_buffer_bytes_, tail.size());
  RHINO_RETURN_NOT_OK(sink_->Append(tail));
  RHINO_RETURN_NOT_OK(sink_->Flush());
  file_size_ = data_offset_ + tail.size();
  return Status::OK();
}

// --------------------------------------------------------- SSTableReader --

Result<std::shared_ptr<SSTableReader>> SSTableReader::Open(
    std::unique_ptr<RandomAccessFile> file, BlockCache* cache,
    ReadStats* stats) {
  constexpr size_t kFooter = 48;
  uint64_t file_size = file->Size();
  if (file_size < kFooter) return Status::Corruption("sst too small");
  std::string footer_data;
  RHINO_RETURN_NOT_OK(file->Read(file_size - kFooter, kFooter, &footer_data));
  if (footer_data.size() != kFooter) return Status::Corruption("sst footer");
  BinaryReader footer(footer_data);
  uint64_t index_off, index_len, bloom_off, bloom_len, num_entries, magic;
  RHINO_RETURN_NOT_OK(footer.GetU64(&index_off));
  RHINO_RETURN_NOT_OK(footer.GetU64(&index_len));
  RHINO_RETURN_NOT_OK(footer.GetU64(&bloom_off));
  RHINO_RETURN_NOT_OK(footer.GetU64(&bloom_len));
  RHINO_RETURN_NOT_OK(footer.GetU64(&num_entries));
  RHINO_RETURN_NOT_OK(footer.GetU64(&magic));
  if (magic != kSstMagic) return Status::Corruption("bad sst magic");
  if (index_off + index_len > file_size || bloom_off + bloom_len > file_size) {
    return Status::Corruption("bad sst footer offsets");
  }

  auto table = std::shared_ptr<SSTableReader>(new SSTableReader());
  table->file_ = std::move(file);
  table->cache_ = cache;
  table->stats_ = stats;
  if (cache != nullptr) table->cache_id_ = cache->NewTableId();
  table->num_entries_ = num_entries;
  RHINO_RETURN_NOT_OK(
      table->file_->Read(bloom_off, bloom_len, &table->bloom_));
  if (table->bloom_.size() != bloom_len) {
    return Status::Corruption("sst bloom truncated");
  }

  std::string index_data;
  RHINO_RETURN_NOT_OK(table->file_->Read(index_off, index_len, &index_data));
  if (index_data.size() != index_len) {
    return Status::Corruption("sst index truncated");
  }
  BinaryReader idx(index_data);
  uint64_t blocks;
  RHINO_RETURN_NOT_OK(idx.GetVarint(&blocks));
  table->index_.reserve(blocks);
  for (uint64_t i = 0; i < blocks; ++i) {
    IndexEntry e;
    RHINO_RETURN_NOT_OK(idx.GetString(&e.last_key));
    RHINO_RETURN_NOT_OK(idx.GetVarint(&e.offset));
    RHINO_RETURN_NOT_OK(idx.GetVarint(&e.size));
    if (e.offset + e.size > index_off) {
      return Status::Corruption("sst index entry out of bounds");
    }
    table->index_.push_back(std::move(e));
  }
  if (!table->index_.empty() && num_entries > 0) {
    // Recover smallest/largest from the first data block's first entry and
    // the last block's index key. This is the only data-block read at open.
    RHINO_ASSIGN_OR_RETURN(auto first_block, table->ReadBlock(0));
    Entry first;
    size_t pos = 0;
    RHINO_RETURN_NOT_OK(
        DecodeEntry(std::string_view(*first_block), &pos, &first));
    table->smallest_ = first.key;
    table->largest_ = table->index_.back().last_key;
  }
  return table;
}

Result<std::shared_ptr<SSTableReader>> SSTableReader::Open(
    std::shared_ptr<const std::string> contents) {
  return Open(std::make_unique<StringFile>(std::move(contents)), nullptr);
}

SSTableReader::~SSTableReader() {
  if (cache_ != nullptr) cache_->EraseTable(cache_id_);
}

Result<BlockCache::BlockHandle> SSTableReader::ReadBlock(size_t idx) const {
  const IndexEntry& e = index_[idx];
  if (cache_ != nullptr) {
    if (auto block = cache_->Lookup(cache_id_, static_cast<uint32_t>(idx))) {
      return block;
    }
  }
  auto block = std::make_shared<std::string>();
  RHINO_RETURN_NOT_OK(
      file_->Read(e.offset, static_cast<size_t>(e.size), block.get()));
  if (block->size() != e.size) return Status::Corruption("sst block truncated");
  if (stats_ != nullptr) {
    stats_->bytes_read.fetch_add(e.size, std::memory_order_relaxed);
    stats_->blocks_read.fetch_add(1, std::memory_order_relaxed);
    if (auto* metric = stats_->bytes_metric.load(std::memory_order_relaxed)) {
      metric->Increment(e.size);
    }
  }
  BlockCache::BlockHandle handle = std::move(block);
  if (cache_ != nullptr) {
    cache_->Insert(cache_id_, static_cast<uint32_t>(idx), handle);
  }
  return handle;
}

Status SSTableReader::Get(std::string_view key, Entry* entry) const {
  if (index_.empty()) return Status::NotFound("empty table");
  if (!BloomFilter(bloom_).MayContain(key)) {
    return Status::NotFound("bloom miss");
  }
  // First block whose last key is >= key.
  auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const IndexEntry& e, std::string_view k) { return e.last_key < k; });
  if (it == index_.end()) return Status::NotFound("past last block");
  RHINO_ASSIGN_OR_RETURN(
      auto block, ReadBlock(static_cast<size_t>(it - index_.begin())));
  std::string_view data(*block);
  size_t pos = 0;
  while (pos < data.size()) {
    RHINO_RETURN_NOT_OK(DecodeEntry(data, &pos, entry));
    if (entry->key == key) return Status::OK();
    if (entry->key > key) break;
  }
  return Status::NotFound("key not in block");
}

SSTableReader::Iterator::Iterator(const SSTableReader* table,
                                  std::string_view begin)
    : table_(table) {
  const auto& index = table_->index_;
  auto it = std::lower_bound(
      index.begin(), index.end(), begin,
      [](const IndexEntry& e, std::string_view k) { return e.last_key < k; });
  if (it == index.end()) return;  // every key is below `begin`
  block_idx_ = static_cast<size_t>(it - index.begin());
  ParseCurrent();
  // The target lives in this block (its last key is >= begin), so a linear
  // scan within it suffices.
  while (valid_ && entry_.key < begin) ParseCurrent();
}

void SSTableReader::Iterator::ParseCurrent() {
  while (true) {
    if (block_idx_ >= table_->index_.size()) {
      valid_ = false;
      block_ = nullptr;
      return;
    }
    if (block_ == nullptr) {
      auto block = table_->ReadBlock(block_idx_);
      RHINO_CHECK_OK(block.status());
      block_ = *block;
      pos_ = 0;
    }
    if (pos_ < block_->size()) break;
    ++block_idx_;
    block_ = nullptr;
  }
  Status st = DecodeEntry(std::string_view(*block_), &pos_, &entry_);
  RHINO_CHECK_OK(st);
  valid_ = true;
}

void SSTableReader::Iterator::Next() {
  RHINO_DCHECK(valid_);
  ParseCurrent();
}

std::string TableFileName(uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu.sst",
                static_cast<unsigned long long>(number));
  return buf;
}

}  // namespace rhino::lsm
