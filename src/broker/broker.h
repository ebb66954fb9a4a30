#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.h"
#include "dataflow/record.h"

/// \file broker.h
/// Durable partitioned log: the Kafka stand-in (paper §5.1.1).
///
/// The broker is the *upstream backup* both protocols rely on: producers
/// append batches, consumers track offsets, and a restarted or handed-over
/// source simply rewinds its offset and replays. Batches are retained for
/// the lifetime of the experiment (the paper sizes Kafka's page cache and
/// SSDs so that replay is always possible).
///
/// Thread safety: a partition's log is guarded by an internal mutex, so a
/// generator thread can append while a source node fetches. `Fetch`
/// returns a pointer into the append-only deque — deque push_back never
/// invalidates references to existing entries, so the pointer stays valid
/// for the experiment's lifetime. The data listener fires *outside* the
/// partition lock (the consumer's TryFetch re-enters Fetch).

namespace rhino::broker {

/// A batch stored in the log with its assigned offset.
struct LogEntry {
  uint64_t offset = 0;
  dataflow::Batch batch;
};

/// One append-only partition.
class Partition {
 public:
  explicit Partition(int home_node) : home_node_(home_node) {}

  /// Node id of the broker VM hosting this partition (for transfer-cost
  /// modeling by the engine).
  int home_node() const { return home_node_; }

  /// Appends a batch, assigns its offset, and fires the data listener.
  uint64_t Append(dataflow::Batch batch) {
    uint64_t offset;
    std::function<void()> listener;
    {
      std::lock_guard<std::mutex> lock(mu_);
      offset = next_offset_++;
      entries_.push_back(LogEntry{offset, std::move(batch)});
      listener = listener_;
    }
    if (listener) listener();
    return offset;
  }

  /// The batch at `offset`, or nullptr when past the end.
  const LogEntry* Fetch(uint64_t offset) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (offset >= next_offset_) return nullptr;
    uint64_t first = entries_.empty() ? next_offset_ : entries_.front().offset;
    RHINO_CHECK_GE(offset, first) << "offset truncated from the log";
    return &entries_[offset - first];
  }

  /// One past the newest assigned offset.
  uint64_t end_offset() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_offset_;
  }
  uint64_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Registers the (single) consumer-side callback fired on append.
  void SetDataListener(std::function<void()> listener) {
    std::lock_guard<std::mutex> lock(mu_);
    listener_ = std::move(listener);
  }

 private:
  int home_node_;
  mutable std::mutex mu_;
  std::deque<LogEntry> entries_;
  uint64_t next_offset_ = 0;
  std::function<void()> listener_;
};

/// A named stream of partitions (e.g. "bids" with 32 partitions).
class Topic {
 public:
  Topic(std::string name, int num_partitions,
        const std::vector<int>& broker_nodes)
      : name_(std::move(name)) {
    RHINO_CHECK(!broker_nodes.empty());
    partitions_.reserve(num_partitions);
    for (int p = 0; p < num_partitions; ++p) {
      partitions_.push_back(std::make_unique<Partition>(
          broker_nodes[static_cast<size_t>(p) % broker_nodes.size()]));
    }
  }

  const std::string& name() const { return name_; }
  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  Partition& partition(int p) { return *partitions_[static_cast<size_t>(p)]; }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Partition>> partitions_;
};

/// The broker cluster: topics spread over a set of dedicated nodes.
class Broker {
 public:
  /// `broker_nodes`: cluster node ids hosting partitions (the paper uses
  /// four dedicated Kafka VMs).
  explicit Broker(std::vector<int> broker_nodes)
      : broker_nodes_(std::move(broker_nodes)) {}

  Topic& CreateTopic(const std::string& name, int num_partitions) {
    auto [it, inserted] = topics_.try_emplace(
        name, std::make_unique<Topic>(name, num_partitions, broker_nodes_));
    RHINO_CHECK(inserted) << "topic exists: " << name;
    return *it->second;
  }

  Topic& topic(const std::string& name) {
    auto it = topics_.find(name);
    RHINO_CHECK(it != topics_.end()) << "no topic: " << name;
    return *it->second;
  }

  bool HasTopic(const std::string& name) const { return topics_.count(name) > 0; }

 private:
  std::vector<int> broker_nodes_;
  std::map<std::string, std::unique_ptr<Topic>> topics_;
};

}  // namespace rhino::broker
