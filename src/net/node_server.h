#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dataflow/operator_host.h"
#include "lsm/env.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/observability.h"
#include "rhino/replication_runtime.h"
#include "state/lsm_state_backend.h"

/// \file node_server.h
/// One worker process of the networked runtime.
///
/// A `NodeServer` hosts operator instances — each a
/// `dataflow::OperatorHost` (state backend + vnode ownership + replay
/// watermarks + the operator core) — and answers the driver's RPC verbs.
/// It is transport-agnostic: `Handle` consumes decoded request bodies and
/// is plugged into an `RpcServer` (the `rhino_node` binary) or a
/// `LoopbackTransport` (in-process tests) unchanged.
///
/// Protocol roles, mirroring the in-process engine:
///
///  * **data plane** — `kProcessBatch` folds routed records into the
///    hosted operator through the exact same `StatefulOperatorCore` the
///    thread-mode `StatefulInstance` runs (keyed counter, symmetric hash
///    join, modeled state); records below a vnode's replay watermark are
///    deduplicated (exactly-once under replay);
///  * **replication** — every write marks its vnode dirty and a
///    background replicator streams per-vnode deltas (state blob + replay
///    watermarks, captured atomically) to the ring successor as pipelined
///    `kReplicateState` requests under a small credit window — Rhino's
///    state-centric replication as a continuous ordered stream, off the
///    checkpoint path. A node replicates exactly when it has a transport;
///  * **checkpoint** — `kCheckpoint` snapshots every shard (vnode blobs +
///    watermarks), persists a framed image to the shared checkpoint
///    directory (the DFS stand-in), and then waits for the replication
///    stream to drain (a sequence-number barrier), so checkpoint cost
///    does not scale with replication traffic volume;
///  * **handover** — `kExtractVnodes` / `kIngestVnodes` / `kDropVnodes`
///    implement the origin and target halves of a live migration, moving
///    state *and* dedup watermarks;
///  * **recovery** — `kPromoteReplica` folds a held replica of a dead peer
///    into live state; `kRestoreFromCheckpoint` does the same from the
///    durable image when no replica survived (the RhinoDFS fallback).
///
/// Thread safety: one mutex (`mu_`) serializes all verbs, so every
/// checkpoint or extraction observes a consistent shard. The replicator
/// thread takes `mu_` only while building a delta snapshot; stream
/// bookkeeping lives under the separate `ReplStream::mu` (lock order:
/// `mu_` before `ReplStream::mu`, never the reverse). `kCheckpoint`
/// releases `mu_` before waiting on the stream barrier, so the
/// replicator can drain while the barrier waits — the one place a cycle
/// could otherwise form. No handler makes a nested blocking RPC.

namespace rhino::net {

struct NodeServerOptions {
  /// This node's private state directory (each operator shard in a
  /// subdirectory).
  std::string data_dir;
  /// Shared checkpoint directory (all nodes + driver see the same files;
  /// stands in for a DFS).
  std::string ckpt_dir;
  /// Bench seam: emulated service latency (sleep, microseconds) per
  /// kProcessBatch, taken BEFORE the server lock. Loopback on a small
  /// host hides the round-trip structure real deployments have (network
  /// hops, remote storage); `bench/dist_pipeline` reintroduces it in a
  /// controlled way to measure how much of it the credit window hides.
  /// Always 0 outside benches.
  int apply_delay_us = 0;
};

/// Path of the durable checkpoint image `origin_node` writes for `op`.
/// Node (writer) and recovery peers (readers) must agree, so it lives
/// here.
std::string CheckpointImagePath(const std::string& ckpt_dir,
                                uint32_t origin_node, const std::string& op);

class NodeServer {
 public:
  /// `transport` carries this node's replication stream to its ring
  /// successor; null turns replication off (single-node clusters, benches
  /// that isolate the data plane).
  ///
  /// Over TCP, give every node a transport of its own, never the
  /// driver's or a peer's. `RpcServer` serves each connection serially
  /// and a `kCheckpoint` handler waits for this node's stream to drain,
  /// so a shared connection can queue a node's barrier ahead of its
  /// predecessor's delta and stall the checkpoint until the barrier
  /// times out.
  NodeServer(lsm::Env* env, Transport* transport, NodeServerOptions options,
             obs::Observability* obs = nullptr);

  /// Joins the replicator thread. In-flight kReplicateState callbacks
  /// only touch the shared stream block, so a transport may complete them
  /// after the node is gone.
  ~NodeServer();

  /// Stops the replication stream and joins its thread. Idempotent; the
  /// destructor calls it. Tests with in-process clusters call it on all
  /// nodes before tearing any node down, so no replicator is mid-call
  /// into a dying peer.
  void StopReplication();

  /// Dispatches one request; the returned string is the reply body. Safe
  /// to call concurrently (internal lock).
  Result<std::string> Handle(MessageType type, std::string_view body);

  /// Adapter for RpcServer / LoopbackTransport registration.
  RpcServer::Handler AsHandler() {
    return [this](MessageType type, std::string_view body) {
      return Handle(type, body);
    };
  }

  /// Set by kShutdown; the hosting binary polls this to exit.
  bool shutdown_requested() const { return shutdown_.load(); }

  uint32_t node_id() const { return node_id_.load(); }

 private:
  /// One hosted operator instance. All state mechanics (backend,
  /// ownership, replay watermarks, apply/extract/absorb/drop) live in the
  /// host; the shard only keeps node-local traffic counters.
  struct Shard {
    std::unique_ptr<dataflow::OperatorHost> host;
    uint64_t applied = 0;
    uint64_t deduped = 0;
  };

  /// Bookkeeping of the continuous replication stream, shared between the
  /// verb handlers (which mark vnodes dirty), the replicator thread, the
  /// checkpoint barrier, and the transport completion callbacks. Held by
  /// shared_ptr so a late callback outliving the NodeServer stays safe.
  struct ReplStream {
    std::mutex mu;
    std::condition_variable work_cv;     ///< replicator: work or credit
    std::condition_variable barrier_cv;  ///< checkpoint barrier waiters
    /// op -> vnodes with unshipped writes.
    std::map<std::string, std::set<uint32_t>> dirty;
    /// op -> vnodes dropped (handover) but not yet tombstoned downstream.
    std::map<std::string, std::set<uint32_t>> dropped;
    uint64_t stream_seq = 0;  ///< last delta sequence number assigned
    uint64_t shipped = 0;     ///< deltas acked by the successor
    uint32_t inflight = 0;    ///< deltas submitted, not yet acked
    /// Last stream failure; sticky until a delta succeeds or kHello
    /// re-forms the ring. A waiting barrier fails fast on it.
    Status error;
    bool stop = false;
  };

  Result<std::string> HandleHello(std::string_view body);
  Result<std::string> HandleAddOperator(std::string_view body);
  Result<std::string> HandleProcessBatch(std::string_view body);
  Result<std::string> HandleCheckpoint(std::string_view body);
  Result<std::string> HandleExtractVnodes(std::string_view body);
  Result<std::string> HandleIngestVnodes(std::string_view body);
  Result<std::string> HandleDropVnodes(std::string_view body);
  Result<std::string> HandleReplicateState(std::string_view body);
  Result<std::string> HandleReplicaFetch(MessageType type,
                                         std::string_view body);
  Result<std::string> HandleQueryCount(std::string_view body);
  Result<std::string> HandleStats();

  Result<Shard*> FindShard(const std::string& op);

  /// Builds the full replica image of `shard` (blobs + watermarks) for the
  /// given vnodes at checkpoint/handover id `id`.
  Result<rhino::ReplicaState> Snapshot(Shard* shard,
                                       const std::vector<uint32_t>& vnodes,
                                       uint64_t id);

  /// Folds `rs`'s blobs/watermarks for `vnodes` (empty = all) into the
  /// live shard of `op`. Consumes the image's blobs.
  Status Absorb(const std::string& op, rhino::ReplicaState&& rs,
                const std::vector<uint32_t>& vnodes, bool already_durable);

  /// Marks `vnodes` of `op` dirty on the replication stream. Caller holds
  /// `mu_`; no-op unless the node replicates.
  template <typename Container>
  void MarkReplDirty(const std::string& op, const Container& vnodes) {
    if (!replicating_ || vnodes.empty()) return;
    {
      std::lock_guard<std::mutex> lock(repl_->mu);
      auto& set = repl_->dirty[op];
      set.insert(vnodes.begin(), vnodes.end());
    }
    repl_->work_cv.notify_all();
  }

  /// Body of the replicator thread: pops one operator's dirty/dropped
  /// vnodes, snapshots a consistent delta under `mu_`, and streams it to
  /// the successor under the credit window.
  void ReplicatorLoop();

  /// Blocks (with `mu_` RELEASED) until the stream has drained — dirty
  /// and dropped empty, nothing in flight — or fails on a sticky stream
  /// error / the barrier timeout.
  Status WaitReplicationBarrier();

  lsm::Env* env_;
  Transport* transport_;
  NodeServerOptions options_;
  obs::Observability* obs_;

  std::atomic<uint32_t> node_id_{0};
  std::atomic<bool> shutdown_{false};

  std::mutex mu_;
  std::string successor_;  ///< replication successor endpoint ("" = off)
  std::map<std::string, Shard> shards_;
  /// Replica catalog: (origin node, op) -> latest chain-replicated image,
  /// merged per vnode from the origin's stream deltas.
  std::map<std::pair<uint32_t, std::string>, rhino::ReplicaState> replicas_;

  /// True when the replicator thread was started (the node has a
  /// transport); constant after construction.
  bool replicating_ = false;
  std::shared_ptr<ReplStream> repl_ = std::make_shared<ReplStream>();
  std::thread replicator_;
};

}  // namespace rhino::net
