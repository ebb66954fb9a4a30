#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "obs/observability.h"
#include "sim/cluster.h"
#include "sim/retry.h"
#include "sim/resource.h"

/// \file dfs.h
/// Block-centric distributed file system (the HDFS role, paper §3.1 and
/// Figure 3).
///
/// Files are split into `kBlockBytes` blocks; each block is replicated on
/// `kReplication` datanodes — the first copy local to the writer, the rest
/// on other nodes (HDFS default placement). On a read, local blocks come
/// off the local disk while remote blocks cross the network: exactly the
/// cost asymmetry that makes Flink's and RhinoDFS's state fetching grow
/// with state size in Table 1, and that Rhino's state-centric replication
/// eliminates.

namespace rhino::dfs {

inline constexpr uint64_t kBlockBytes = 128 * kMiB;
inline constexpr int kReplication = 2;
/// Sustained per-client fetch throughput for remote blocks. HDFS client
/// streaming tops out well below the NIC line rate (protocol overhead,
/// single-pipeline reads); the paper's Flink fetch times imply roughly
/// 0.4-0.5 GB/s per restoring task manager.
inline constexpr double kClientBytesPerSec = 600e6;
/// Retry policy of block shipments (write pipeline copies and remote
/// reads): blocks swallowed by an injected network partition are resent
/// with jittered backoff; exhaustion surfaces IOError on the file
/// operation. See `sim::ReliableTransfer`.
inline constexpr sim::RetryOptions kBlockShipmentRetry{
    .initial_backoff_us = 100 * kMillisecond,
    .max_backoff_us = kSecond,
    .max_attempts = 0,            // deadline-governed
    .deadline_us = 60 * kSecond,  // per block shipment
};

/// One replicated block.
struct Block {
  uint64_t bytes = 0;
  std::vector<int> replicas;  // datanode ids, first = primary placement
};

/// Namenode + modeled datanodes over the simulated cluster.
class DistributedFileSystem {
 public:
  DistributedFileSystem(sim::Cluster* cluster, std::vector<int> datanodes,
                        uint64_t seed = 42)
      : cluster_(cluster), datanodes_(std::move(datanodes)), rng_(seed) {}

  /// Installs the observability context the block shipments count their
  /// retries in (defaults to the process-wide one).
  void SetObservability(obs::Observability* o) { obs_ = o; }

  /// Writes a file of `bytes` from `writer_node`: local first replica
  /// (when the writer is a datanode) plus pipelined remote copies.
  /// Overwrites any existing file at `path`.
  void WriteFile(const std::string& path, uint64_t bytes, int writer_node,
                 std::function<void(Status)> done);

  /// Fetches the whole file to `reader_node`: local blocks from disk,
  /// remote blocks over the network. Fails if any block lost all live
  /// replicas.
  void ReadFile(const std::string& path, int reader_node,
                std::function<void(Status)> done);

  /// Registers a file's blocks without modeling any I/O — used to seed
  /// pre-existing checkpoints at experiment start.
  void RegisterFile(const std::string& path, uint64_t bytes, int writer_node);

  bool Exists(const std::string& path) const {
    return files_.count(path) > 0;
  }
  Result<uint64_t> FileBytes(const std::string& path) const;
  Status DeleteFile(const std::string& path);

  /// Split of the last ReadFile between local and remote bytes
  /// (cumulative across reads; diagnostic for the Table 1 breakdown).
  uint64_t local_bytes_read() const { return local_bytes_read_; }
  uint64_t remote_bytes_read() const { return remote_bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  struct File {
    uint64_t bytes = 0;
    std::vector<Block> blocks;
  };

  /// Picks `kReplication` distinct datanodes, preferring `writer_node` as
  /// the first copy (HDFS default placement policy).
  std::vector<int> PlaceBlock(int writer_node);

  /// Per-reader-node client pipeline for remote block streaming.
  sim::QueueResource* ClientQueue(int reader_node);

  /// Distinct backoff-jitter seed per block shipment.
  uint64_t NextTransferSeq() { return transfer_seq_++; }

  uint64_t transfer_seq_ = 0;
  sim::Cluster* cluster_;
  std::vector<int> datanodes_;
  Random rng_;
  obs::Observability* obs_ = obs::Observability::Default();
  std::map<std::string, File> files_;
  std::map<int, int> disk_cursor_;  // per-node round-robin disk choice
  std::map<int, std::unique_ptr<sim::QueueResource>> client_queues_;
  uint64_t local_bytes_read_ = 0;
  uint64_t remote_bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace rhino::dfs
