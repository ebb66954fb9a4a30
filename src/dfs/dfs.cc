#include "dfs/dfs.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "sim/reliable_transfer.h"

namespace rhino::dfs {

namespace {

/// Seed of the block shipments' backoff jitter, mixed with a per-shipment
/// sequence number.
constexpr uint64_t kRetrySeed = 0xDF5;

}  // namespace

std::vector<int> DistributedFileSystem::PlaceBlock(int writer_node) {
  std::vector<int> replicas;
  bool writer_is_datanode =
      std::find(datanodes_.begin(), datanodes_.end(), writer_node) !=
      datanodes_.end();
  if (writer_is_datanode) replicas.push_back(writer_node);
  while (replicas.size() < static_cast<size_t>(kReplication) &&
         replicas.size() < datanodes_.size()) {
    int candidate = datanodes_[rng_.Uniform(datanodes_.size())];
    if (std::find(replicas.begin(), replicas.end(), candidate) ==
        replicas.end()) {
      replicas.push_back(candidate);
    }
  }
  return replicas;
}

void DistributedFileSystem::RegisterFile(const std::string& path,
                                         uint64_t bytes, int writer_node) {
  File file;
  file.bytes = bytes;
  for (uint64_t off = 0; off < bytes; off += kBlockBytes) {
    Block block;
    block.bytes = std::min(kBlockBytes, bytes - off);
    block.replicas = PlaceBlock(writer_node);
    file.blocks.push_back(std::move(block));
  }
  if (bytes == 0) {
    // Zero-byte files still exist (empty checkpoint).
  }
  files_[path] = std::move(file);
}

void DistributedFileSystem::WriteFile(const std::string& path, uint64_t bytes,
                                      int writer_node,
                                      std::function<void(Status)> done) {
  RegisterFile(path, bytes, writer_node);
  bytes_written_ += bytes;
  // Copy the block layout: a later overwrite of `path` would replace the
  // File underneath a held reference.
  File file = files_[path];
  if (file.blocks.empty()) {
    cluster_->sim()->Schedule(0, [done] { done(Status::OK()); });
    return;
  }
  auto remaining = std::make_shared<size_t>(file.blocks.size());
  auto failed = std::make_shared<bool>(false);
  auto finish = [remaining, failed, done]() {
    if (--*remaining == 0) {
      done((*failed)
               ? Status::IOError("block replication failed")
               : Status::OK());
    }
  };
  for (const Block& block : file.blocks) {
    // Pipeline: every replica receives the block; the writer ships it to
    // each remote replica, and each replica spools to its local disk.
    auto pending =
        std::make_shared<size_t>(block.replicas.size());
    auto block_done = [pending, finish]() {
      if (--*pending == 0) finish();
    };
    for (int replica : block.replicas) {
      uint64_t block_bytes = block.bytes;
      auto write_disk = [this, replica, block_bytes, block_done] {
        sim::Node& node = cluster_->node(replica);
        int disk = disk_cursor_[replica]++ % node.num_disks();
        node.disk(disk).Write(block_bytes, block_done);
      };
      if (replica == writer_node) {
        write_disk();
      } else {
        sim::ReliableTransfer(
            cluster_, writer_node, replica, block.bytes, kBlockShipmentRetry,
            kRetrySeed ^ NextTransferSeq(), "dfs_block_write", obs_,
            std::move(write_disk), [failed, block_done](Status) {
              *failed = true;
              block_done();
            });
      }
    }
  }
}

void DistributedFileSystem::ReadFile(const std::string& path, int reader_node,
                                     std::function<void(Status)> done) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    cluster_->sim()->Schedule(
        0, [done, path] { done(Status::NotFound(path)); });
    return;
  }
  File file = it->second;  // copy: overwrites must not invalidate the read
  if (file.blocks.empty()) {
    cluster_->sim()->Schedule(0, [done] { done(Status::OK()); });
    return;
  }
  auto remaining = std::make_shared<size_t>(file.blocks.size());
  auto failed = std::make_shared<bool>(false);
  auto finish = [remaining, failed, done](Status st) {
    if (!st.ok()) *failed = true;
    if (--*remaining == 0) {
      done((*failed) ? Status::IOError("block unavailable")
                          : Status::OK());
    }
  };
  for (const Block& block : file.blocks) {
    // Local replica wins; otherwise any live remote replica serves the
    // block (namenode short-circuit read policy).
    int source = -1;
    bool local = false;
    for (int replica : block.replicas) {
      if (!cluster_->node(replica).alive()) continue;
      if (replica == reader_node) {
        source = replica;
        local = true;
        break;
      }
      if (source < 0) source = replica;
    }
    if (source < 0) {
      cluster_->sim()->Schedule(0, [finish] { finish(Status::IOError("")); });
      continue;
    }
    uint64_t block_bytes = block.bytes;
    sim::Node& src_node = cluster_->node(source);
    int disk = disk_cursor_[source]++ % src_node.num_disks();
    if (local) {
      local_bytes_read_ += block_bytes;
      src_node.disk(disk).Read(block_bytes, [finish] { finish(Status::OK()); });
    } else {
      remote_bytes_read_ += block_bytes;
      // Remote: disk read at the source, the network hop, then the
      // reader's client pipeline (the sustained-throughput bottleneck).
      sim::QueueResource* client = ClientQueue(reader_node);
      src_node.disk(disk).Read(
          block_bytes,
          [this, source, reader_node, block_bytes, finish, client] {
            sim::ReliableTransfer(
                cluster_, source, reader_node, block_bytes, kBlockShipmentRetry,
                kRetrySeed ^ NextTransferSeq(), "dfs_block_read", obs_,
                [client, block_bytes, finish] {
                  client->Submit(block_bytes,
                                 [finish] { finish(Status::OK()); });
                },
                [finish](Status) {
                  finish(Status::IOError("block fetch failed"));
                });
          });
    }
  }
}

sim::QueueResource* DistributedFileSystem::ClientQueue(int reader_node) {
  auto it = client_queues_.find(reader_node);
  if (it == client_queues_.end()) {
    it = client_queues_
             .emplace(reader_node,
                      std::make_unique<sim::QueueResource>(
                          cluster_->sim(),
                          "dfs-client-" + std::to_string(reader_node),
                          kClientBytesPerSec))
             .first;
  }
  return it->second.get();
}

Result<uint64_t> DistributedFileSystem::FileBytes(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  return it->second.bytes;
}

Status DistributedFileSystem::DeleteFile(const std::string& path) {
  if (files_.erase(path) == 0) return Status::NotFound(path);
  return Status::OK();
}

}  // namespace rhino::dfs
