#include "lsm/memtable.h"

namespace rhino::lsm {

MemTable::Node* MemTable::NewNode(std::string_view key, int height) {
  // Tower slots beyond the first are allocated inline after the struct;
  // the key bytes are copied into the arena alongside.
  size_t size = sizeof(Node) + sizeof(Node*) * static_cast<size_t>(height - 1);
  Node* node = reinterpret_cast<Node*>(arena_.AllocateAligned(size));
  node->key = arena_.CopyString(key);
  node->value = {};
  node->seq = 0;
  node->type = ValueType::kValue;
  node->height = height;
  for (int i = 0; i < height; ++i) node->next[i] = nullptr;
  return node;
}

int MemTable::RandomHeight() {
  int height = 1;
  while (height < kMaxHeight && rng_.OneIn(4)) ++height;
  return height;
}

MemTable::Node* MemTable::FindGreaterOrEqual(std::string_view key,
                                             Node** prev) const {
  Node* x = head_;
  int level = max_height_ - 1;
  while (true) {
    Node* next = x->next[level];
    if (next != nullptr && next->key < key) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) return next;
      --level;
    }
  }
}

void MemTable::Add(std::string_view key, uint64_t seq, ValueType type,
                   std::string_view value) {
  Node* prev[kMaxHeight];
  Node* node = FindGreaterOrEqual(key, prev);
  if (node != nullptr && node->key == key) {
    // In-place overwrite: the newest sequence number shadows the old entry,
    // so keeping only the newest is equivalent and cheaper. The old value
    // bytes stay behind in the arena until the flush drops it wholesale.
    // Concurrent commits can reach the shard lock out of sequence order;
    // an older version arriving late must not clobber a newer one.
    if (node->seq > seq) return;
    bytes_ += value.size() - node->value.size();
    node->seq = seq;
    node->type = type;
    node->value = arena_.CopyString(value);
    return;
  }
  int height = RandomHeight();
  if (height > max_height_) {
    for (int i = max_height_; i < height; ++i) prev[i] = head_;
    max_height_ = height;
  }
  Node* n = NewNode(key, height);
  n->seq = seq;
  n->type = type;
  n->value = arena_.CopyString(value);
  for (int i = 0; i < height; ++i) {
    n->next[i] = prev[i]->next[i];
    prev[i]->next[i] = n;
  }
  bytes_ += key.size() + value.size() + 32;  // 32 ~ node overhead
  ++entries_;
}

bool MemTable::Get(std::string_view key, Entry* entry) const {
  Node* node = FindGreaterOrEqual(key, nullptr);
  if (node == nullptr || node->key != key) return false;
  entry->key.assign(node->key);
  entry->seq = node->seq;
  entry->type = node->type;
  entry->value.assign(node->value);
  return true;
}

// ------------------------------------------------------- ShardedMemTable --

ShardedMemTable::ShardedMemTable(size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    // The skiplist head already sits in the arena.
    shards_.back()->arena.store(shards_.back()->table.ArenaBytes(),
                                std::memory_order_relaxed);
  }
}

void ShardedMemTable::Add(std::string_view key, uint64_t seq, ValueType type,
                          std::string_view value) {
  Shard& shard = *shards_[ShardFor(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.table.Add(key, seq, type, value);
  // Mirror the (single-writer-per-shard-at-a-time) counters into atomics so
  // the flush-threshold check and ApproximateSize stay lock-free.
  shard.bytes.store(shard.table.ApproximateBytes(), std::memory_order_relaxed);
  shard.arena.store(shard.table.ArenaBytes(), std::memory_order_relaxed);
  shard.entries.store(shard.table.NumEntries(), std::memory_order_relaxed);
}

bool ShardedMemTable::Get(std::string_view key, Entry* entry) const {
  const Shard& shard = *shards_[ShardFor(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.table.Get(key, entry);
}

uint64_t ShardedMemTable::ApproximateBytes() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->bytes.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ShardedMemTable::ArenaBytes() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->arena.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ShardedMemTable::NumEntries() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->entries.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<Entry> ShardedMemTable::SortedSnapshot(std::string_view begin,
                                                   std::string_view end) const {
  // Per-shard sorted runs, copied under the shard lock...
  std::vector<std::vector<Entry>> runs(shards_.size());
  size_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    for (auto it = shards_[i]->table.NewIterator(begin); it.Valid();
         it.Next()) {
      if (!end.empty() && it.key() >= end) break;
      runs[i].push_back(Entry{std::string(it.key()), it.seq(), it.type(),
                              std::string(it.value())});
    }
    total += runs[i].size();
  }
  // ...then merged: keys are unique across shards (one shard owns a key),
  // so a linear-scan min over <= num_shards cursors suffices.
  std::vector<Entry> out;
  out.reserve(total);
  std::vector<size_t> pos(runs.size(), 0);
  while (out.size() < total) {
    int min = -1;
    for (size_t i = 0; i < runs.size(); ++i) {
      if (pos[i] >= runs[i].size()) continue;
      if (min < 0 || runs[i][pos[i]].key < runs[size_t(min)][pos[size_t(min)]].key) {
        min = static_cast<int>(i);
      }
    }
    out.push_back(std::move(runs[size_t(min)][pos[size_t(min)]]));
    ++pos[size_t(min)];
  }
  return out;
}

ShardedMemTable::MergingIterator::MergingIterator(
    const ShardedMemTable* table) {
  its_.reserve(table->shards_.size());
  for (const auto& s : table->shards_) {
    its_.push_back(s->table.NewIterator());
  }
  FindMin();
}

void ShardedMemTable::MergingIterator::FindMin() {
  cur_ = -1;
  for (size_t i = 0; i < its_.size(); ++i) {
    if (!its_[i].Valid()) continue;
    if (cur_ < 0 || its_[i].key() < its_[size_t(cur_)].key()) {
      cur_ = static_cast<int>(i);
    }
  }
}

void ShardedMemTable::MergingIterator::Next() {
  its_[size_t(cur_)].Next();
  FindMin();
}

}  // namespace rhino::lsm
