#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "common/status.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/observability.h"

/// \file driver.h
/// The coordinator process of the networked runtime.
///
/// `ClusterDriver` plays the role the engine's coordinator plays
/// in-process: it owns the routing tables (per operator, each vnode's
/// owner and its holder, the node that keeps its replica), the dataflow
/// graph wiring (which broker partitions and which upstream operators feed
/// each operator input), the upstream backup cursors (one per operator
/// input), and the protocol clocks (checkpoint and handover ids). It
/// sequences cluster-wide operations over the RPC layer — the checkpoint
/// barrier broadcast, the live handover, and failure recovery.
///
/// Holders: a vnode's first holder is its owner's ring successor (the next
/// live node). A handover to the moved vnodes' holder is replica-local
/// (extract -> ingest -> demote): the target takes the copy it holds
/// over, the origin keeps its rows as the copy it now holds for the
/// target, and no state crosses the wire. A handover to any other node is
/// cold (extract -> ingest -> drop -> relabel): the state travels whole,
/// the origin drops its rows, and the old holder keeps its copy, which it
/// relabels as the target's. Recovery promotes each lost vnode at its
/// holder, which takes it from the replica it holds (Rhino); a vnode whose
/// holder died too comes back at the dead node's ring successor from its
/// checkpoint chain (RhinoDFS). Then the dead operator's input cursors
/// rewind to the restored replay watermarks, and a re-pump replays. A new
/// holder (the next live node after the owner) goes only to vnodes whose
/// holder died or became their owner; nodes apply the same rule, so no
/// holder is sent for them.
///
/// Multi-operator graphs: operators are wired explicitly —
/// `ConnectPartition` feeds a broker partition into an operator input,
/// `ConnectOperators` feeds one operator's output into another's input
/// (`side` selects the input for multi-input operators such as the
/// symmetric hash join). Operator outputs travel back in `kProcessBatch`
/// replies and are retained in a driver-resident **edge log** — the
/// upstream backup of every operator->operator edge, replayable exactly
/// like a broker partition. Each edge-log entry keeps its output records
/// in per-producer-vnode slots; a replayed upstream batch refreshes only
/// the slots of the vnodes its reply lists
/// (`ProcessBatchReply::applied_vnodes`), so downstream operators never
/// see duplicated or lost edge records. A node keeps an edge batch's
/// outputs as rows of the producing vnodes' state until the input's
/// cursor passes the batch, so a replay whose first reply was lost (the
/// node died before replying, or the reply itself was lost) is answered
/// with the outputs of the first apply, wherever the vnode now lives.
///
/// Exactly-once: the driver may re-send any batch (a re-pump after a
/// failed pump, or a post-failure rewind); nodes deduplicate on per-(vnode, source) replay
/// watermarks — every operator input has its own source id, so the same
/// rule covers broker partitions and operator edges uniformly.
///
/// The pump streams batches to all nodes concurrently through
/// `Transport::CallAsync` under credit-based flow control: each node has
/// `credit_window` credits, a submit spends one and its ack returns it,
/// and a submitter with no credit BLOCKS (backpressure, never unbounded
/// buffering). A window of 1 is the blocking pump, one batch per node in
/// flight. Per-node submission order is (input, offset) order, which the
/// channel turns into per-node FIFO apply — that is what keeps replay
/// watermarks safe. An operator's inputs drain before its downstream
/// consumers pump, so one `Pump()` pushes data through the whole graph.
/// On any error a cursor only advances over the contiguous prefix of
/// fully-acked offsets; the next pump replays the rest and nodes dedup.
///
/// Single-threaded by design — every method must be called from one
/// coordinating thread, mirroring how the paper's coordinator serializes
/// reconfigurations. (Completion callbacks run on transport threads, but
/// they only touch the pump's own synchronized scratch state.)

namespace rhino::net {

struct DriverOptions {
  /// Credits (max batches in flight) per node during a pump.
  uint32_t credit_window = 16;
};

struct PumpStats {
  uint64_t batches_sent = 0;
  uint64_t records_sent = 0;
  uint64_t applied = 0;
  uint64_t deduped = 0;
  /// Wall-clock duration of this Pump() call.
  double wall_s = 0;
  /// Submits that had to wait for a credit (backpressure events), and the
  /// in-flight high-water marks actually reached.
  uint64_t credit_stalls = 0;
  uint32_t max_inflight = 0;                        ///< cluster-wide
  std::map<uint32_t, uint32_t> node_inflight_hwm;   ///< per node id
};

struct CheckpointStats {
  uint64_t checkpoint_id = 0;
  uint64_t bytes = 0;
  uint32_t nodes = 0;
  uint32_t replicated_nodes = 0;
};

class ClusterDriver {
 public:
  /// `endpoints[i]` is node i's address under `transport`.
  ClusterDriver(Transport* transport, std::vector<std::string> endpoints,
                obs::Observability* obs = nullptr,
                DriverOptions options = DriverOptions());

  /// Mutable between operations (benches sweep the credit window).
  DriverOptions& options() { return options_; }

  // ------------------------------------------------------------ topology --

  /// Sends kHello to every node: its node id and every peer's endpoint.
  /// Each vnode's first holder is its owner's ring successor (node i's
  /// vnodes replicate to node i+1 mod n; nothing replicates with one
  /// node).
  Status ConnectAll();

  /// Hosts the operator described by `spec` on every node (any node can
  /// become a recovery target); vnode ownership is round-robin across
  /// nodes. Operators must be added in topological order — an edge may
  /// only point from an earlier operator to a later one.
  Status AddOperator(const dataflow::OperatorSpec& spec);

  /// Convenience: a keyed-counter operator named `op`.
  Status AddOperator(const std::string& op, uint32_t num_vnodes);

  /// Registers one upstream-backup partition (feeds nothing until
  /// connected).
  void AddPartition(const broker::Partition* partition);

  /// Feeds broker partition `partition` into input `side` of `op`.
  Status ConnectPartition(const std::string& op, size_t partition,
                          uint32_t side = 0);

  /// Feeds `upstream`'s output records into input `side` of `downstream`.
  /// The edge gets its own source id and a driver-resident edge log (the
  /// upstream backup of the edge).
  Status ConnectOperators(const std::string& upstream,
                          const std::string& downstream, uint32_t side = 0);

  /// Retains `op`'s outputs driver-side even without a downstream consumer
  /// (sink audit: `OutputRecords`).
  Status CollectOutputs(const std::string& op);

  // ---------------------------------------------------------- data plane --

  /// Drains every operator input from its cursor to its current end in
  /// topological passes, routing per-vnode sub-batches to the owning nodes
  /// and forwarding operator outputs along the wired edges. Re-entrant
  /// after failures: rewound cursors simply replay, and nodes dedup.
  Result<PumpStats> Pump();

  /// All output records `op` has produced, in edge-log order (complete
  /// entries only). Exactly-once audit surface for sinks.
  std::vector<dataflow::Record> OutputRecords(const std::string& op) const;

  // ------------------------------------------------------- control plane --

  /// Broadcasts a checkpoint barrier to every live node at once; each
  /// node persists its image and waits for its replication stream to
  /// drain before acking, so the cluster pays the slowest node's barrier.
  Result<CheckpointStats> Checkpoint();

  /// Live handover of `vnodes` of `op` from `origin` to `target`, then the
  /// routing update. The vnodes `target` holds move replica-locally: it
  /// takes its copies over, `origin` demotes its rows to the copies it
  /// then holds for `target`, and a target whose copy is not current makes
  /// the move fall back to whole images (the demote stays). The others
  /// move whole and keep their holders, which relabel their copies as
  /// `target`'s. A target that is the origin, out of range or not alive
  /// is refused before any call.
  Status TriggerHandover(const std::string& op, uint32_t origin,
                         uint32_t target, const std::vector<uint32_t>& vnodes);

  /// Declares `dead_node` failed and re-homes everything it owned: each
  /// vnode is promoted at its holder, which takes it from the replica it
  /// holds (Rhino); one whose holder is dead too goes to the dead node's
  /// ring successor, which takes it from its checkpoint chain (RhinoDFS),
  /// else empty. Rewinds the input cursors of each affected operator to
  /// the restored replay watermarks. Call `Pump()` afterwards to replay.
  Status RecoverNode(uint32_t dead_node) { return RecoverNodes({dead_node}); }

  /// Recovery from CORRELATED failures (e.g. a whole VM taking several
  /// nodes down): every listed node is declared dead up front — so the
  /// re-formed cluster, the new holders and the recovery RPCs only touch
  /// true survivors — then each dead node's state is re-homed in turn.
  /// Resumable: vnodes that a recovery which failed part-way (a survivor
  /// died during it) left on dead nodes are re-homed by the next call,
  /// whatever it lists.
  Status RecoverNodes(const std::vector<uint32_t>& dead_nodes);

  /// Probes every live node with kStats; returns ids that did not answer.
  std::vector<uint32_t> ProbeFailures();

  Result<uint64_t> QueryCount(const std::string& op, uint64_t key);
  /// Kind-specific state query (join: per-side entry counts).
  Result<QueryCountReply> QueryState(const std::string& op, uint64_t key);
  Result<StatsReply> NodeStats(uint32_t node);

  /// kShutdown to every live node (best-effort).
  void Shutdown();

  // ------------------------------------------------------- introspection --

  uint32_t num_nodes() const { return static_cast<uint32_t>(endpoints_.size()); }
  bool IsAlive(uint32_t node) const { return alive_[node]; }
  /// The node currently owning `key` of `op`.
  Result<uint32_t> RouteKey(const std::string& op, uint64_t key) const;
  /// The live node holding `vnode` of `op`'s replica: a handover to it is
  /// replica-local. FailedPrecondition when no node holds one (a single
  /// live node).
  Result<uint32_t> HolderOf(const std::string& op, uint32_t vnode) const;
  std::vector<uint32_t> VnodesOwnedBy(const std::string& op,
                                      uint32_t node) const;
  /// Earliest cursor of any operator input fed by broker partition
  /// `partition` (0 when unconnected).
  uint64_t cursor(size_t partition) const;

 private:
  /// One wired input of an operator: a broker partition or an upstream
  /// operator edge, the operator-side input index (`side`), the source id
  /// stamped on its batches (dedup key), and the replay cursor — the next
  /// upstream offset to pump.
  struct OpInput {
    bool from_partition = true;
    size_t partition = 0;     ///< when from_partition
    std::string upstream;     ///< when !from_partition
    uint32_t side = 0;
    int source_id = 0;
    uint64_t cursor = 0;
  };

  /// One edge-log entry: the outputs one upstream (input, offset) step
  /// produced, sliced per producer vnode so a replay can refresh exactly
  /// the vnodes that re-applied. `complete` flips once every routed
  /// sub-batch of the step acked; downstream consumers only read the
  /// complete prefix.
  struct EdgeEntry {
    std::map<uint32_t, std::vector<dataflow::Record>> slots;
    SimTime create_time = 0;
    bool complete = false;
  };

  struct OpRouting {
    dataflow::OperatorSpec spec;
    std::vector<uint32_t> owner;   ///< vnode -> node id
    std::vector<uint32_t> holder;  ///< vnode -> node id, or kNoNode
    std::vector<OpInput> inputs;
    /// Outputs are requested from nodes and retained in the edge log
    /// (set by ConnectOperators on the upstream, or CollectOutputs).
    bool track_outputs = false;
    /// The edge log: entry e is edge offset e. Appended in pump order,
    /// looked up by (input index, upstream offset) on replay so an entry
    /// keeps its offset across failures.
    std::vector<EdgeEntry> entries;
    std::map<std::pair<size_t, uint64_t>, size_t> entry_index;
  };

  Status Call(uint32_t node, MessageType type, std::string_view body,
              std::string* reply);

  /// Drains every input of `op`; sets `*advanced` when at least one offset
  /// was pumped.
  Status PumpOperator(const std::string& op, OpRouting& routing,
                      PumpStats* stats, bool* advanced);

  /// Number of edge-log offsets of `routing` a downstream may consume
  /// (length of the complete prefix).
  static uint64_t CompletePrefix(const OpRouting& routing);

  /// Folds one successful reply of (input_idx, offset) into the edge log:
  /// clears and refills the slots of every vnode in `applied_vnodes`.
  Status RecordOutputs(OpRouting& routing, size_t input_idx, uint64_t offset,
                       SimTime create_time, const ProcessBatchReply& reply);

  int AllocateSourceId() { return next_edge_source_id_++; }

  /// No node: the holder of a vnode when only its owner is alive.
  static constexpr uint32_t kNoNode = UINT32_MAX;

  /// Next live node after `node` on the ring.
  Result<uint32_t> NextAlive(uint32_t node) const;

  /// The holder a vnode of `owner` gets when it needs a new one: `owner`'s
  /// ring successor, or kNoNode. Nodes apply the same rule.
  uint32_t HolderAfter(uint32_t owner) const;

  /// (Re)announces node ids + the LIVE peers' endpoints: the initial
  /// cluster, and the re-formed one after each failure (a node must stop
  /// replicating to a dead holder, or every later checkpoint fails on the
  /// stream's barrier).
  Status ReformRing();

  /// One handover of `vnodes`, which share their holder: replica-local
  /// (demote) when the holder is `target`, else cold (drop, relabel).
  Status MoveVnodes(OpRouting& routing, const std::string& op,
                    uint32_t origin, uint32_t target,
                    const std::vector<uint32_t>& vnodes);

  /// Re-homes one (already declared dead) node's vnodes onto survivors.
  Status RecoverOne(uint32_t dead_node);

  Transport* transport_;
  std::vector<std::string> endpoints_;
  std::vector<bool> alive_;
  obs::Observability* obs_;
  DriverOptions options_;

  std::map<std::string, OpRouting> routing_;
  std::vector<std::string> op_order_;  ///< topological (AddOperator order)
  std::vector<const broker::Partition*> partitions_;
  /// Edge source ids live far above any partition index so one operator's
  /// inputs never collide in its watermark maps.
  int next_edge_source_id_ = 1 << 20;

  uint64_t last_checkpoint_id_ = 0;
  uint64_t last_handover_id_ = 0;
};

}  // namespace rhino::net
