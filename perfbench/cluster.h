#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "common/status.h"
#include "lsm/env.h"
#include "net/driver.h"
#include "net/node_server.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "net/wire.h"
#include "trace.h"

/// \file cluster.h
/// An in-process cluster over loopback TCP: `NodeServer`s, each behind its
/// own `RpcServer` on 127.0.0.1 and each with its own `TcpTransport` for
/// its replication stream, plus a `ClusterDriver` on a transport of its
/// own. State lives on `PosixEnv` under a fresh directory. All driver
/// calls go through this class, which counts them (attempts and
/// failures) and, when a tracer is installed, records a driver span for
/// each. Every transport counts its bytes into the run's `WireCounter`.

namespace perfbench {

/// Driver calls attempted and failed, across every cluster of a run.
struct CallLedger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Replication state of the cluster after the streams went idle.
struct IdleStats {
  double wait_s = 0;
  /// kStats calls the wait made (one per live node and round), and their
  /// estimated process CPU: calls times the cluster's calibrated cost of
  /// one. CPU figures that span a wait subtract it, so the benchmark's own
  /// polling is not charged to the runtime.
  uint64_t polls = 0;
  int64_t poll_cpu_ns = 0;
  /// Logical state bytes (the backends' nominal accounting) per node id;
  /// 0 for dead nodes.
  std::vector<uint64_t> state_bytes;
  uint64_t total_state_bytes = 0;
};

class Cluster {
 public:
  struct Options {
    /// Parent directory of the cluster's state directory.
    std::string root;
    uint32_t nodes = 3;
    /// Non-null: spans are recorded at the transport and handler seams.
    Tracer* tracer = nullptr;
    CallLedger* ledger = nullptr;
    /// Receives the bytes of every call; must outlive the cluster, since a
    /// transport may finish a call after the cluster is gone.
    WireCounter* wire = nullptr;
  };

  static rhino::Result<std::unique_ptr<Cluster>> Start(const Options& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  rhino::net::ClusterDriver& driver() { return *driver_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }

  /// A new broker partition registered with the driver (index = order of
  /// creation).
  rhino::broker::Partition* AddPartition();

  // Counted driver calls.
  rhino::Status Wire(const std::function<rhino::Status()>& setup_calls);
  rhino::Result<rhino::net::PumpStats> Pump(uint64_t source_records);
  rhino::Result<rhino::net::CheckpointStats> Checkpoint();
  rhino::Status Handover(const std::string& op, uint32_t origin,
                         uint32_t target, const std::vector<uint32_t>& vnodes);
  rhino::Status Recover(uint32_t node);
  std::vector<uint32_t> Probe();
  rhino::Result<rhino::net::StatsReply> Stats(uint32_t node);

  /// Polls every live node's stats until each replication stream is idle
  /// (`repl_dirty == 0 && repl_inflight == 0`). A node whose stream was
  /// stopped never drains; pass it as `skip`.
  rhino::Result<IdleStats> WaitReplicationIdle(int skip = -1);

  /// Measures the process CPU of one kStats poll on the quiesced cluster:
  /// the median over 32 poll rounds, each with the wait's longest pause,
  /// divided by the live nodes. Until this runs, waits report
  /// `poll_cpu_ns == 0`.
  rhino::Status CalibratePolls();
  int64_t poll_cpu_ns() const { return poll_cpu_ns_; }

  /// Reads `keys` of `op` with pipelined kQueryCount calls straight to the
  /// owners (audit reads; not driver calls).
  rhino::Result<std::vector<rhino::net::QueryCountReply>> QueryMany(
      const std::string& op, const std::vector<uint64_t>& keys);

  /// Stops `node`'s replication stream (its successor's replica freezes).
  void StopStream(uint32_t node) { nodes_[node]->StopReplication(); }
  /// Fail-stop: `node`'s RPC server stops answering.
  void FailStop(uint32_t node) { servers_[node]->Stop(); }

  /// Bytes of every file under the nodes' state directories.
  uint64_t DiskBytes() const;

 private:
  Cluster() = default;

  /// Runs one driver call: counts it in the ledger and, while tracing,
  /// records its driver span (defined in cluster.cc, its only user).
  template <typename F>
  auto Counted(DriverOp op, uint64_t source_records, F&& fn);

  /// One poll round: the stats of every live node but `skip` into `idle`.
  /// True when each of their streams is idle.
  rhino::Result<bool> PollRound(IdleStats* idle, int skip = -1);

  std::string dir_;
  Tracer* tracer_ = nullptr;
  CallLedger* ledger_ = nullptr;
  int64_t poll_cpu_ns_ = 0;
  rhino::lsm::PosixEnv env_;
  std::unique_ptr<rhino::net::TcpTransport> driver_tcp_;
  std::unique_ptr<TracingTransport> driver_counted_;
  std::vector<std::unique_ptr<rhino::net::TcpTransport>> node_tcp_;
  std::vector<std::unique_ptr<TracingTransport>> node_counted_;
  std::vector<std::unique_ptr<rhino::net::NodeServer>> nodes_;
  std::vector<std::unique_ptr<rhino::net::RpcServer>> servers_;
  std::vector<std::string> endpoints_;
  std::vector<std::string> data_dirs_;
  std::unique_ptr<rhino::net::ClusterDriver> driver_;
  std::vector<std::unique_ptr<rhino::broker::Partition>> partitions_;
};

}  // namespace perfbench
