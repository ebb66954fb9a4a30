#pragma once

#include <atomic>
#include <chrono>
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
/// **One record, one step.** State crosses the wire only as
/// `VnodeImage`s (state_backend.h): a vnode's size, replay watermarks and
/// entry run, whole (`base_seq` 0) or the keys written since the copy the
/// receiver holds at `base_seq`. Stream deltas, both halves of a handover,
/// and the reply of a promotion all carry them. Every path by which a
/// vnode becomes owned here ends in one `TakeOver`, which writes the
/// images' runs: a full-path ingest's whole runs, nothing for a
/// replica-local ingest or a promoted copy (their held rows are taken
/// over), nothing for a restored vnode (its chain was written).
///
/// **Holders.** Every owned vnode has a holder, a live peer that keeps its
/// replica, and the node streams each vnode to its holder: one stream per
/// distinct holder, each with its own seq space, credit window and drain
/// barrier. A vnode's first holder is its owner's ring successor (the
/// first live peer after the owner in node-id order). A handover names
/// the moved vnodes' next holder. A promoted or restored vnode, and one
/// whose holder died, goes to its new owner's ring successor and ships
/// whole to it. Every other vnode keeps its holder and ships nothing.
///
/// Protocol roles, mirroring the in-process engine:
///
///  * **data plane** — `kProcessBatch` folds routed records into the
///    hosted operator through the exact same `StatefulOperatorCore` the
///    simulator's `StatefulInstance` runs (keyed counter, symmetric hash
///    join; a modeled operator is refused); records below a vnode's
///    replay watermark are deduplicated (exactly-once under replay), and a
///    batch's state and watermarks commit together as one WAL record. A
///    batch whose outputs feed an edge also commits them, as output rows
///    of the vnodes that made them, and a replay is answered with them;
///  * **replication** — every write marks its vnode dirty and a
///    background replicator streams per-vnode deltas to each vnode's
///    holder as pipelined `kReplicateState` requests under a small credit
///    window per holder — Rhino's state-centric replication as continuous
///    ordered streams, off the checkpoint path. A node replicates exactly
///    when it has a transport. The streams are incremental: a vnode whose
///    holder keeps a copy ships as a **key delta**, the keys its backend
///    captured since that copy, chained to it by `base_seq`; a vnode the
///    holder may lack ships **whole**. Both carry the vnode's size and
///    replay watermarks, captured atomically with its state. The holder
///    keeps a replicated vnode as **held rows** of its own backend: a whole
///    vnode replaces them, a key delta is one write of its change run;
///  * **checkpoint** — `kCheckpoint` brings each owned vnode's chain in
///    the shared checkpoint directory (the DFS stand-in) up to date: a key
///    record of the keys written since the vnode's last record, nothing
///    when it did not change, or one whole record when the node knows no
///    chain it may extend or extending would grow the chain past twice
///    its base. It then waits for every stream to drain (a sequence-number
///    barrier). Checkpoint bytes and lock time follow the keys written
///    since the last checkpoint, not the state size;
///  * **handover** — `kExtractVnodes` / `kIngestVnodes` / `kDropVnodes`
///    implement the origin and target halves of a live migration, moving
///    state *and* dedup watermarks. The origin's extract first drains its
///    streams to the moved vnodes' holders and writes their pending keys
///    to their chains (the final incremental checkpoint); the target
///    extends those chains from then on. When the target is the moved
///    vnodes' holder the move is **replica-local**: each image is an empty
///    run on top of the seq of the vnode's last delta, the target takes
///    its held rows over, copying no key, and the origin **demotes** its
///    own rows to the copy it now holds for the target, writing nothing.
///    Any other target gets whole images; the origin drops its rows and
///    the old holder keeps its copy, which `kRelabelVnodes` hands to the
///    target. Either way the target reserves a seq in its stream to the
///    holder at the ingest, the holder's copy is labelled with it, and the
///    target's next delta of each vnode chains to it;
///  * **recovery** — `kPromoteReplica` takes each requested vnode of a
///    dead peer from the first source that exists: the rows held here for
///    that peer, taken over copying no key (Rhino); else the vnode's
///    chain, its whole record and then every key record, written into the
///    backend (RhinoDFS); else nothing. A held copy wins over a newer
///    chain. A promoted copy's next chain record is whole; a restored
///    vnode extends its chain unless the chain has a torn tail.
///
/// **Chain invariant.** A node extends a vnode's chain only while its
/// state of the vnode equals the chain's last record plus the keys its
/// checkpoint reader captured since (`Chain`); taking the vnode over,
/// releasing it or a failed write forgets the chain, and the next record
/// is whole, unless the take-over adopts the chain (a handover target's
/// moved vnodes, an untorn restored one). A chain on disk never exceeds
/// twice its base, and a torn tail loses only the torn record.
///
/// **Replica invariant.** Per node and operator, a vnode's rows are
/// owned, held for exactly one origin, or absent. Held rows sit in the
/// operator's backend under the owner's keys, out of `SizeBytes()` and
/// both capture readers; the catalog (`held_`) keeps only their origin,
/// the seq of the stream delta they are as of, their size and their
/// watermarks, and a held copy is one consistent snapshot of its origin.
/// Rows change between owned and held only in place: a take-over (a
/// replica-local ingest, a promotion) makes held rows owned, and a
/// **demote** makes owned rows the copy held for the new owner, at the seq
/// it reserved. A **relabel** hands a copy held for a handover's origin
/// to its target, at the target's reserved seq, when the copy is at the
/// origin's last shipped seq; any other copy of the origin's is dropped.
/// A delta never writes rows of a vnode this node owns (its origin handed
/// the vnode away: acked unapplied). A whole vnode replaces whatever is
/// held for it. A key delta applies only to its origin's copy at exactly
/// its `base_seq`; one at or below that seq is a replay, acked unapplied;
/// any other mismatch drops the origin's copy and answers
/// `FailedPrecondition`, upon which the origin ships the vnode whole. A
/// vnode that becomes owned other than by taking its held copy over — a
/// full-path ingest, or the promotion of a vnode not held for the dead
/// origin — first loses any rows of it. A promoted vnode neither held nor
/// chained starts empty with no watermarks, so the driver replays its
/// inputs from offset 0 (the broker keeps every offset).
///
/// Thread safety: one mutex (`mu_`) serializes all verbs, so every
/// checkpoint or extraction observes a consistent shard. One replicator
/// thread serves every holder's stream; it takes `mu_` only while
/// building a delta. All streams' bookkeeping lives under the separate
/// `ReplStream::mu` (lock order: `mu_` before `ReplStream::mu`, never the
/// reverse). `kCheckpoint` and `kExtractVnodes` release `mu_` before
/// waiting on a stream barrier, so the replicator can drain while the
/// barrier waits — the one place a cycle could otherwise form. No handler
/// makes a nested blocking RPC.

namespace rhino::net {

struct NodeServerOptions {
  /// This node's private state directory (each operator shard in a
  /// subdirectory).
  std::string data_dir;
  /// Shared checkpoint directory (all nodes + driver see the same files;
  /// stands in for a DFS).
  std::string ckpt_dir;
};

class NodeServer {
 public:
  /// `transport` carries this node's replication streams to the holders
  /// of its vnodes; null turns replication off (single-node clusters,
  /// benches that isolate the data plane).
  ///
  /// Over TCP, give every node a transport of its own, never the
  /// driver's or a peer's. `RpcServer` serves each connection serially
  /// and a `kCheckpoint` handler waits for this node's streams to drain,
  /// so a shared connection can queue a node's barrier ahead of a peer's
  /// delta and stall the checkpoint until the barrier times out.
  NodeServer(lsm::Env* env, Transport* transport, NodeServerOptions options,
             obs::Observability* obs = nullptr);

  /// Joins the replicator thread. In-flight kReplicateState callbacks
  /// only touch the shared stream block, so a transport may complete them
  /// after the node is gone.
  ~NodeServer();

  /// Stops the replication streams and joins their thread. Idempotent; the
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
  /// What this node knows of one vnode's checkpoint chain. Kept only
  /// while the node's state of the vnode equals the chain's last record
  /// plus the keys its checkpoint reader captured since, so the next
  /// record may extend the chain; absent means the next record is whole.
  struct Chain {
    uint64_t base = 0;   ///< framed bytes of the whole record
    uint64_t bytes = 0;  ///< framed bytes of the chain
    /// The last record's size and replay watermarks.
    uint64_t nominal = 0;
    std::map<int, uint64_t> watermarks;
  };

  /// One hosted operator instance. All state mechanics (backend,
  /// ownership, replay watermarks, apply/extract/absorb/drop) live in the
  /// host; the shard keeps node-local traffic counters, the chains of its
  /// vnodes and their holders.
  struct Shard {
    std::unique_ptr<dataflow::OperatorHost> host;
    uint64_t applied = 0;
    uint64_t deduped = 0;
    std::map<uint32_t, Chain> chains;
    /// Owned vnode -> the peer its stream ships it to; absent when the
    /// node has no live peer.
    std::map<uint32_t, uint32_t> holders;
  };

  /// Who writes a chain record: a checkpoint, or a handover origin's
  /// extract (the final incremental checkpoint before the target takes
  /// the chain over).
  enum class ChainPhase { kCheckpoint = 0, kHandover = 1 };

  /// The stream to one holder: its own seq space, credit window and
  /// drain barrier.
  struct PeerStream {
    /// op -> vnodes with unshipped writes. A vnode whose holder changed
    /// since it was marked moves to its holder's stream when the
    /// replicator pops it.
    std::map<std::string, std::set<uint32_t>> dirty;
    /// op -> vnode -> seq of the copy the holder keeps: the last delta
    /// that carried the vnode, or the seq reserved when it changed hands.
    /// The `base_seq` of its next key delta; absent means the holder may
    /// lack the vnode, so it ships whole.
    std::map<std::string, std::map<uint32_t, uint64_t>> last_seq;
    uint64_t stream_seq = 0;  ///< last seq assigned or reserved
    uint64_t shipped = 0;     ///< deltas acked by the holder
    uint32_t inflight = 0;    ///< deltas submitted, not yet acked
    /// Last stream failure; sticky until a delta succeeds or kHello
    /// re-forms the cluster. A waiting barrier fails fast on it, and the
    /// stream ships nothing before `retry_at`.
    Status error;
    std::chrono::steady_clock::time_point retry_at;

    /// The seq of the holder's copy of `vnode` of `op` when that copy is
    /// the vnode's last state (no unshipped write), else 0.
    uint64_t CopySeq(const std::string& op, uint32_t vnode) const;
  };

  /// Bookkeeping of the replication streams, shared between the verb
  /// handlers (which mark vnodes dirty), the replicator thread, the
  /// barriers, and the transport completion callbacks. Held by shared_ptr
  /// so a late callback outliving the NodeServer stays safe.
  struct ReplStream {
    std::mutex mu;
    std::condition_variable work_cv;     ///< replicator: work or credit
    std::condition_variable barrier_cv;  ///< barrier waiters
    /// Holder node id -> its stream. Entries are never erased, so a
    /// callback may keep a reference.
    std::map<uint32_t, PeerStream> peers;
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
  Result<std::string> HandlePromoteReplica(std::string_view body);
  Result<std::string> HandleRelabelVnodes(std::string_view body);
  Result<std::string> HandleQueryCount(std::string_view body);
  Result<std::string> HandleStats();

  Result<Shard*> FindShard(const std::string& op);

  /// Completes the images of `req->vnodes`, whose vnode and `base_seq`
  /// the caller set: size, watermarks and run (the keys the stream reader
  /// captured since `base_seq`, or the whole vnode when `base_seq` is 0 or
  /// the backend cannot capture), and counts them in the stream metrics.
  /// Caller holds `mu_`.
  Status BuildDelta(Shard* shard, ReplicateStateRequest* req);

  /// The one take-over step, which ends every path by which a vnode
  /// becomes owned here — a full-path ingest, a replica-local ingest or a
  /// promoted copy (held rows taken over), a restored vnode (its chain
  /// written), a promoted vnode with neither (empty): the
  /// backend ingests the images (`StateBackend::IngestImages`: each run
  /// written, each size set), and their vnodes become owned with the
  /// images' watermarks (assigned). What the checkpoint reader captured
  /// of them is discarded, and their chains are forgotten, so their next
  /// records are whole unless the caller adopts the chains. Where they
  /// stream is the caller's (`Restream`). Caller holds `mu_`.
  Status TakeOver(Shard* shard, const std::vector<VnodeImage>& images);

  /// Drops the rows and catalog entries of `vnodes` of `op`, none of them
  /// owned here. Caller holds `mu_`.
  Status DropHeld(const std::string& op, const std::vector<uint32_t>& vnodes);

  /// Takes over the chains of `vnodes` of `op`, whose last records equal
  /// this node's state of them: a handover target's moved vnodes (the
  /// origin's extract wrote those records) or promoted vnodes restored
  /// from untorn chains. A
  /// chain it cannot read gets a whole record next. Caller holds `mu_`.
  void AdoptChains(const std::string& op, const std::vector<uint32_t>& vnodes);

  /// Path of the checkpoint chain of `vnode` of `op`.
  std::string ChainPath(const std::string& op, uint32_t vnode) const;

  /// Brings the chains of `vnodes` of `shard` up to the node's state as
  /// of checkpoint or handover `id`, adding the framed bytes written to
  /// `*bytes`. A vnode with a known chain gets a key record of the keys
  /// its checkpoint reader captured (nothing when nothing changed),
  /// unless that would grow the chain past twice its base; then, and for
  /// a vnode without a known chain, the chain is rewritten as one whole
  /// record. Every vnode is attempted; a failed write forgets that
  /// vnode's chain and the first failure is returned. Caller holds `mu_`.
  Status WriteChains(Shard* shard, const std::string& op,
                     const std::vector<uint32_t>& vnodes, uint64_t id,
                     ChainPhase phase, uint64_t* bytes);

  /// The endpoint of live peer `node`, or empty (dead, unknown, or this
  /// node). Caller holds `mu_`.
  std::string PeerEndpoint(uint32_t node) const;

  /// This node's ring successor: the first live peer after it in node-id
  /// order, or `kNoHolder`. Caller holds `mu_`.
  uint32_t RingSuccessor() const;

  /// From now on `vnodes` of `op` stream to `holder`, or to nobody
  /// (`kNoHolder`): every stream forgets them, and the holder keeps a copy
  /// of each at `seq`, their next key delta's base (0: it may lack them,
  /// so they ship whole). Caller holds `mu_`.
  void Restream(Shard* shard, const std::string& op,
                const std::vector<uint32_t>& vnodes, uint32_t holder,
                uint64_t seq);

  /// Reserves the next seq of the stream to `holder`: no delta carries it,
  /// so a copy labelled with it chains the next key delta of its vnode.
  uint64_t ReserveSeq(uint32_t holder);

  /// Publishes the captured-key gauges of both capture readers. Caller
  /// holds `mu_`.
  void UpdateCapturedKeys();

  /// Marks `vnodes` of `shard` (operator `op`) dirty on their holders'
  /// streams. Caller holds `mu_`; no-op unless the node replicates.
  template <typename Container>
  void MarkReplDirty(const Shard& shard, const std::string& op,
                     const Container& vnodes) {
    if (!replicating_ || vnodes.empty()) return;
    {
      std::lock_guard<std::mutex> lock(repl_->mu);
      for (uint32_t vnode : vnodes) {
        auto holder = shard.holders.find(vnode);
        if (holder == shard.holders.end()) continue;
        repl_->peers[holder->second].dirty[op].insert(vnode);
      }
    }
    repl_->work_cv.notify_all();
  }

  /// Body of the replicator thread: pops one stream's dirty vnodes of one
  /// operator, snapshots a consistent delta under `mu_`, and ships it to
  /// the holder under that stream's credit window.
  void ReplicatorLoop();

  /// Blocks (with `mu_` RELEASED) until the streams to `holders` drained —
  /// nothing dirty, nothing in flight — or fails on a sticky stream error
  /// of one of them / the barrier timeout.
  Status WaitReplicationBarrier(const std::set<uint32_t>& holders);

  lsm::Env* env_;
  Transport* transport_;
  NodeServerOptions options_;
  obs::Observability* obs_;

  std::atomic<uint32_t> node_id_{0};
  std::atomic<bool> shutdown_{false};

  /// What gives a vnode's held rows their meaning: a consistent snapshot
  /// of `origin`'s vnode as of its stream delta `seq`.
  struct HeldVnode {
    uint32_t origin = 0;
    uint64_t seq = 0;
    uint64_t bytes = 0;  ///< nominal state bytes
    std::map<int, uint64_t> watermarks;
  };

  /// Stream, handover and checkpoint-chain instruments in the node's
  /// registry, labelled with the node id (registered by kHello; null
  /// before).
  struct Metrics {
    obs::Counter* shipped_bytes = nullptr;
    obs::Counter* whole_vnodes = nullptr;
    obs::Counter* key_vnodes = nullptr;
    obs::Counter* entries = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Gauge* captured_keys = nullptr;
    obs::Gauge* ckpt_captured_keys = nullptr;
    obs::Counter* handover_replica = nullptr;
    obs::Counter* handover_full = nullptr;
    obs::Counter* demoted = nullptr;
    obs::Counter* relabelled = nullptr;
    obs::Counter* relabel_dropped = nullptr;
    /// Chain records written, by ChainPhase and ChainRecord::Kind.
    obs::Counter* image_bytes[2][2] = {};
    obs::Counter* image_vnodes[2][2] = {};
  };

  std::mutex mu_;
  /// Node id -> endpoint, empty for a dead peer (kHello).
  std::vector<std::string> peers_;
  std::map<std::string, Shard> shards_;
  /// Replica catalog: (op, vnode) -> the held copy (the invariant above).
  /// Apart from the shards: a vnode's first, empty delta may arrive before
  /// the driver added the operator here.
  std::map<std::pair<std::string, uint32_t>, HeldVnode> held_;
  Metrics metrics_;

  /// No holder: the node has no live peer.
  static constexpr uint32_t kNoHolder = UINT32_MAX;

  /// True when the replicator thread was started (the node has a
  /// transport); constant after construction.
  bool replicating_ = false;
  std::shared_ptr<ReplStream> repl_ = std::make_shared<ReplStream>();
  std::thread replicator_;
};

}  // namespace rhino::net
