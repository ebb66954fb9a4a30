#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "common/serde.h"
#include "lsm/env.h"
#include "net/checkpoint_chain.h"
#include "net/driver.h"
#include "net/node_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/observability.h"
#include "state/lsm_state_backend.h"

/// \file dist_cluster_test.cc
/// The distributed protocol on an in-process cluster: three `NodeServer`s
/// behind a `LoopbackTransport` (same request bytes as TCP, zero sockets),
/// a shared `MemEnv` standing in for node disks + the shared checkpoint
/// directory, and the real `ClusterDriver` sequencing everything.
///
/// This is where protocol *semantics* are pinned down — exactly-once
/// through replay, live handover moving state and dedup watermarks,
/// replica promotion after a fail-stop, and the durable-image fallback
/// when the replica holder died too. The multi-process test
/// (`multiprocess_e2e_test.cc`) re-runs the same story over real sockets
/// and SIGKILL.

namespace rhino::net {
namespace {

constexpr uint32_t kNumVnodes = 16;
constexpr uint64_t kNumKeys = 40;
const char* const kOp = "counter";

/// A counter of `node` in the registry every test node reports into (the
/// default observability context), with one more label when `key` is set.
/// Tests of one binary share it, so they compare before and after.
uint64_t NodeCounter(const std::string& name, uint32_t node,
                     const std::string& key = "",
                     const std::string& value = "") {
  obs::Labels labels = {{"node", std::to_string(node)}};
  if (!key.empty()) labels[key] = value;
  return obs::Observability::Default()
      ->metrics()
      .GetCounter(name, labels)
      ->value();
}

/// Checkpoint-chain records (`what` = "vnodes") or bytes ("bytes") of
/// `kind` ("whole" | "keys") that `node` wrote in `phase`.
uint64_t ImageCounter(const std::string& what, uint32_t node,
                      const std::string& kind,
                      const std::string& phase = "checkpoint") {
  return obs::Observability::Default()
      ->metrics()
      .GetCounter("rhino_checkpoint_image_" + what + "_total",
                  {{"node", std::to_string(node)},
                   {"kind", kind},
                   {"phase", phase}})
      ->value();
}

/// ImageCounter summed over the three nodes of a test cluster.
uint64_t ImageTotal(const std::string& what, const std::string& kind) {
  uint64_t total = 0;
  for (uint32_t node = 0; node < 3; ++node) {
    total += ImageCounter(what, node, kind);
  }
  return total;
}

/// Path of the checkpoint chain of `vnode` of kOp in the shared dir.
std::string ChainAt(uint32_t vnode) {
  return "/ckpt/" + ChainFileName(kOp, vnode);
}

/// The kReplicateState deltas a node received and what it answered.
/// Deltas arrive on the origin's replicator thread, hence the lock.
struct DeltaLog {
  struct Entry {
    ReplicateStateRequest req;
    std::string body;
    StatusCode code = StatusCode::kOk;
  };
  std::mutex mu;
  std::vector<Entry> entries;

  void Record(std::string_view body, const Result<std::string>& reply) {
    auto req = ReplicateStateRequest::Decode(body);
    ASSERT_TRUE(req.ok());
    std::lock_guard<std::mutex> lock(mu);
    entries.push_back(Entry{std::move(req).MoveValue(), std::string(body),
                            reply.status().code()});
  }

  /// Deltas from `origin` that carried `vnode`, in arrival order.
  std::vector<Entry> Carrying(uint32_t origin, uint32_t vnode) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<Entry> out;
    for (const Entry& e : entries) {
      if (e.req.origin_node != origin) continue;
      for (const VnodeImage& v : e.req.vnodes) {
        if (v.vnode == vnode) out.push_back(e);
      }
    }
    return out;
  }
};

/// The entry of `vnode` in a delta.
const VnodeImage* EntryOf(const ReplicateStateRequest& req, uint32_t vnode) {
  for (const VnodeImage& v : req.vnodes) {
    if (v.vnode == vnode) return &v;
  }
  return nullptr;
}

/// Three nodes + driver wired over loopback.
struct Cluster {
  lsm::MemEnv env;  // shared: node dirs are disjoint, ckpt dir is common
  LoopbackTransport transport;
  std::vector<std::unique_ptr<NodeServer>> nodes;
  std::unique_ptr<ClusterDriver> driver;
  broker::Partition partition{0};

  explicit Cluster(uint32_t n = 3) {
    std::vector<std::string> endpoints;
    for (uint32_t i = 0; i < n; ++i) {
      std::string endpoint = "node" + std::to_string(i);
      nodes.push_back(std::make_unique<NodeServer>(
          &env, &transport,
          NodeServerOptions{"/data/n" + std::to_string(i), "/ckpt"}));
      transport.Register(endpoint, nodes.back()->AsHandler());
      endpoints.push_back(endpoint);
    }
    driver = std::make_unique<ClusterDriver>(&transport, endpoints);
  }

  ~Cluster() {
    // Stop every replicator before ANY node dies: over loopback a
    // replicator calls straight into a holder's handler, so nodes
    // must not be destroyed while a peer's stream is still running.
    for (auto& node : nodes) node->StopReplication();
  }

  /// Polls until `node`'s replication stream is idle (everything shipped
  /// and acked). Returns false on timeout.
  bool WaitReplIdle(uint32_t node, int timeout_ms = 5000) {
    for (int waited = 0; waited < timeout_ms; waited += 5) {
      auto stats = driver->NodeStats(node);
      if (stats.ok() && stats->repl_dirty == 0 && stats->repl_inflight == 0) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  bool WaitAllIdle() {
    for (uint32_t node = 0; node < nodes.size(); ++node) {
      if (driver->IsAlive(node) && !WaitReplIdle(node)) return false;
    }
    return true;
  }

  /// Re-registers `node` behind `tap`, which sees every request the node
  /// serves and its reply (on the calling thread, which may be a peer's
  /// replicator), and may replace the reply (a lost one).
  using TapFn = std::function<void(MessageType, std::string_view,
                                   Result<std::string>&)>;
  void Tap(uint32_t node, TapFn tap) {
    NodeServer* server = nodes[node].get();
    transport.Register("node" + std::to_string(node),
                       [server, tap](MessageType type, std::string_view body) {
                         auto reply = server->Handle(type, body);
                         tap(type, body, reply);
                         return reply;
                       });
  }

  /// Records every delta `node` receives into `log`.
  void LogDeltas(uint32_t node, DeltaLog* log) {
    Tap(node, [log](MessageType type, std::string_view body,
                    const Result<std::string>& reply) {
      if (type == MessageType::kReplicateState) log->Record(body, reply);
    });
  }

  void Bootstrap() {
    ASSERT_TRUE(driver->ConnectAll().ok());
    ASSERT_TRUE(driver->AddOperator(kOp, kNumVnodes).ok());
    driver->AddPartition(&partition);
    ASSERT_TRUE(driver->ConnectPartition(kOp, 0).ok());
  }

  /// Appends one wave: every key once, as one batch at the next offset.
  void AppendWave() {
    dataflow::Batch batch;
    for (uint64_t key = 0; key < kNumKeys; ++key) {
      dataflow::Record rec;
      rec.key = key;
      rec.event_time = 1000;
      rec.size = 32;
      batch.records.push_back(rec);
      batch.count += 1;
      batch.bytes += rec.size;
    }
    partition.Append(std::move(batch));
  }

  /// Appends one batch holding one record per key in `keys`.
  void AppendKeys(const std::vector<uint64_t>& keys) {
    dataflow::Batch batch;
    for (uint64_t key : keys) {
      dataflow::Record rec;
      rec.key = key;
      rec.event_time = 1000;
      rec.size = 32;
      batch.records.push_back(rec);
      batch.count += 1;
      batch.bytes += rec.size;
    }
    partition.Append(std::move(batch));
  }

  /// Appends one record per key in [first, first + n) and tallies them
  /// in `expected`.
  void AppendRange(uint64_t first, uint64_t n,
                   std::map<uint64_t, uint64_t>* expected) {
    std::vector<uint64_t> keys;
    for (uint64_t key = first; key < first + n; ++key) {
      keys.push_back(key);
      (*expected)[key] += 1;
    }
    AppendKeys(keys);
  }

  /// Exactly-once audit: every key of `expected` counts exactly its tally.
  void ExpectCounts(const std::map<uint64_t, uint64_t>& expected) {
    for (const auto& [key, tally] : expected) {
      auto count = driver->QueryCount(kOp, key);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(*count, tally) << "key " << key;
    }
  }

  /// Framed size of the chain of `vnode` (0 when there is none).
  uint64_t ChainBytes(uint32_t vnode) {
    auto size = env.GetFileSize(ChainAt(vnode));
    return size.ok() ? *size : 0;
  }

  /// Asserts every key counts exactly `waves` (exactly-once invariant),
  /// plus `extra[key]` for the keys given.
  void ExpectAllCounts(uint64_t waves,
                       const std::map<uint64_t, uint64_t>& extra = {}) {
    for (uint64_t key = 0; key < kNumKeys; ++key) {
      auto count = driver->QueryCount(kOp, key);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      auto it = extra.find(key);
      EXPECT_EQ(*count, waves + (it == extra.end() ? 0 : it->second))
          << "key " << key;
    }
  }

  /// A key of `kOp` that `node` owns.
  uint64_t KeyOwnedBy(uint32_t node) {
    for (uint64_t key = 0; key < kNumKeys; ++key) {
      auto owner = driver->RouteKey(kOp, key);
      if (owner.ok() && *owner == node) return key;
    }
    ADD_FAILURE() << "node " << node << " owns no key";
    return 0;
  }
};

TEST(DistClusterTest, PumpAppliesAndCheckpointReplicates) {
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  cluster.AppendWave();

  auto pumped = cluster.driver->Pump();
  ASSERT_TRUE(pumped.ok()) << pumped.status().ToString();
  EXPECT_EQ(pumped->records_sent, 2 * kNumKeys);
  EXPECT_EQ(pumped->applied, 2 * kNumKeys);
  EXPECT_EQ(pumped->deduped, 0u);
  cluster.ExpectAllCounts(2);

  // Re-pumping with no new data is a no-op.
  auto again = cluster.driver->Pump();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records_sent, 0u);

  auto ckpt = cluster.driver->Checkpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->checkpoint_id, 1u);
  EXPECT_EQ(ckpt->nodes, 3u);
  // Every node shipped its vnodes to their holder, its ring successor.
  EXPECT_EQ(ckpt->replicated_nodes, 3u);
  EXPECT_GT(ckpt->bytes, 0u);
  for (uint32_t node = 0; node < 3; ++node) {
    auto stats = cluster.driver->NodeStats(node);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->replicas_held, 1u) << "node " << node;
  }
}

TEST(DistClusterTest, DedupMakesBatchReplayIdempotent) {
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // Replay the same offsets by hand: every record is below the watermark.
  ProcessBatchRequest request;
  request.op = kOp;
  const broker::LogEntry* entry = cluster.partition.Fetch(0);
  ASSERT_NE(entry, nullptr);
  request.batch = entry->batch;
  request.batch.source_id = 0;
  request.batch.source_offset = entry->offset;
  uint64_t total_deduped = 0;
  for (uint32_t node = 0; node < 3; ++node) {
    // Keep only this node's records so ownership checks pass.
    ProcessBatchRequest routed = request;
    routed.batch.records.clear();
    for (const auto& rec : request.batch.records) {
      auto owner = cluster.driver->RouteKey(kOp, rec.key);
      ASSERT_TRUE(owner.ok());
      if (*owner == node) routed.batch.records.push_back(rec);
    }
    if (routed.batch.records.empty()) continue;
    std::string body, reply_body;
    routed.EncodeTo(&body);
    ASSERT_TRUE(cluster.transport
                    .Call("node" + std::to_string(node),
                          MessageType::kProcessBatch, body, &reply_body)
                    .ok());
    auto reply = ProcessBatchReply::Decode(reply_body);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->applied, 0u);
    total_deduped += reply->deduped;
  }
  EXPECT_EQ(total_deduped, kNumKeys);
  cluster.ExpectAllCounts(1);
}

TEST(DistClusterTest, StaleRoutingIsRejectedNotApplied) {
  Cluster cluster;
  cluster.Bootstrap();

  // Find a key owned by node 0 and send it to node 1: the ownership check
  // must reject the whole batch (strict routing, no partial application).
  uint64_t misrouted_key = 0;
  for (uint64_t key = 0; key < kNumKeys; ++key) {
    auto owner = cluster.driver->RouteKey(kOp, key);
    ASSERT_TRUE(owner.ok());
    if (*owner == 0) {
      misrouted_key = key;
      break;
    }
  }
  ProcessBatchRequest request;
  request.op = kOp;
  dataflow::Record rec;
  rec.key = misrouted_key;
  request.batch.records.push_back(rec);
  request.batch.source_id = 0;
  request.batch.source_offset = 0;
  std::string body, reply_body;
  request.EncodeTo(&body);
  Status st = cluster.transport.Call("node1", MessageType::kProcessBatch, body,
                                     &reply_body);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_NE(st.message().find("does not own vnode"), std::string::npos);
}

TEST(DistClusterTest, LiveHandoverMovesStateAndWatermarks) {
  std::mutex mu;  // the tap's log outlives the cluster
  std::vector<std::string> extract_replies;
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // Node 1 is node 0's ring successor and holds its replica: the move is
  // replica-local, so the origin's extract reply carries no state entries.
  cluster.Tap(0, [&](MessageType type, std::string_view,
                     const Result<std::string>& reply) {
    if (type != MessageType::kExtractVnodes || !reply.ok()) return;
    std::lock_guard<std::mutex> lock(mu);
    extract_replies.push_back(*reply);
  });
  const uint64_t replica_before =
      NodeCounter("rhino_handover_total", 1, "path", "replica");
  const uint64_t full_before =
      NodeCounter("rhino_handover_total", 1, "path", "full");

  std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  ASSERT_FALSE(moved.empty());
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 0, 1, moved).ok());
  EXPECT_TRUE(cluster.driver->VnodesOwnedBy(kOp, 0).empty());

  EXPECT_EQ(NodeCounter("rhino_handover_total", 1, "path", "replica"),
            replica_before + 1);
  EXPECT_EQ(NodeCounter("rhino_handover_total", 1, "path", "full"),
            full_before);
  ASSERT_EQ(extract_replies.size(), 1u);
  auto extracted = DecodeVnodeImages(extract_replies[0]);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted->size(), moved.size());
  for (const VnodeImage& image : *extracted) {
    EXPECT_NE(image.base_seq, 0u) << "vnode " << image.vnode;
    EXPECT_TRUE(image.entries.empty()) << "vnode " << image.vnode;
  }

  // Counts survived the move (state traveled)...
  cluster.ExpectAllCounts(2);
  // ...and the next wave is NOT deduplicated on the target (watermarks
  // traveled too, so replay bookkeeping stays exact).
  cluster.AppendWave();
  auto pumped = cluster.driver->Pump();
  ASSERT_TRUE(pumped.ok());
  EXPECT_EQ(pumped->applied, kNumKeys);
  EXPECT_EQ(pumped->deduped, 0u);
  cluster.ExpectAllCounts(3);

  auto stats0 = cluster.driver->NodeStats(0);
  ASSERT_TRUE(stats0.ok());
  EXPECT_EQ(stats0->owned_vnodes, 0u);
}

TEST(DistClusterTest, FailStopRecoveryPromotesReplicaExactlyOnce) {
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());

  // Freeze the victim's stream once its replica holds waves 1-2, so wave
  // 3 lives only in node 2's live state — the stream cannot make the
  // replica current before the kill — and must come back via replay.
  ASSERT_TRUE(cluster.WaitReplIdle(2));
  cluster.nodes[2]->StopReplication();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());

  cluster.transport.Kill("node2");
  EXPECT_EQ(cluster.driver->ProbeFailures(), (std::vector<uint32_t>{2}));
  std::vector<uint32_t> lost = cluster.driver->VnodesOwnedBy(kOp, 2);
  ASSERT_FALSE(lost.empty());

  ASSERT_TRUE(cluster.driver->RecoverNode(2).ok());
  EXPECT_FALSE(cluster.driver->IsAlive(2));
  EXPECT_TRUE(cluster.driver->VnodesOwnedBy(kOp, 2).empty());
  // The promoted replica stops before wave 3, so the cursor rewound.
  EXPECT_LT(cluster.driver->cursor(0), cluster.partition.end_offset());

  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  // Surviving vnodes already hold wave 3: their replayed records dedup.
  // The recovered vnodes (rolled back to the frozen replica) apply them.
  EXPECT_GT(replayed->deduped, 0u);
  EXPECT_GT(replayed->applied, 0u);
  cluster.ExpectAllCounts(3);

  // Steady state continues on the survivors.
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectAllCounts(4);
}

TEST(DistClusterTest, RecoveryFallsBackToDurableImageWhenReplicaDiedToo) {
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  cluster.AppendWave();  // post-checkpoint tail, must replay
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // Nodes 1 and 2 fail together (a correlated failure, declared as one).
  // Node 2's replica lives on node 0 (ring 0 -> 1 -> 2 -> 0): promote.
  // Node 1's replica lived on node 2, which died too — so node 1 must
  // fall back to its durable image in the shared /ckpt dir.
  cluster.transport.Kill("node1");
  cluster.transport.Kill("node2");

  ASSERT_TRUE(cluster.driver->RecoverNodes({1, 2}).ok());
  EXPECT_EQ(cluster.driver->VnodesOwnedBy(kOp, 0).size(), kNumVnodes);

  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  cluster.ExpectAllCounts(3);

  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectAllCounts(4);

  auto stats0 = cluster.driver->NodeStats(0);
  ASSERT_TRUE(stats0.ok());
  EXPECT_EQ(stats0->owned_vnodes, kNumVnodes);
  EXPECT_GT(stats0->state_bytes, 0u);
}

TEST(DistClusterTest, RecoveryRestoresFromItsChainAVnodeTheReplicaLost) {
  std::vector<VnodeImage> recovered;  // the promotion's reply; outlives taps
  Cluster cluster;
  cluster.Tap(1, [&recovered](MessageType type, std::string_view,
                              const Result<std::string>& reply) {
    if (type != MessageType::kPromoteReplica || !reply.ok()) return;
    auto images = DecodeVnodeImages(*reply);
    ASSERT_TRUE(images.ok()) << images.status().ToString();
    recovered = std::move(images).MoveValue();
  });
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  cluster.AppendRange(0, 400, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  auto checkpoint = cluster.driver->Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());

  // Node 1 holds node 0's replica. An out-of-chain key delta makes it drop
  // its copy of one of node 0's vnodes, and node 0's stream stops before
  // it could ship the vnode again.
  const uint32_t lost = VnodeForKey(cluster.KeyOwnedBy(0), kNumVnodes);
  ReplicateStateRequest bogus;
  bogus.origin_node = 0;
  bogus.op = kOp;
  bogus.stream_seq = 1'000'000'000;
  VnodeImage image;
  image.vnode = lost;
  image.base_seq = bogus.stream_seq;
  bogus.vnodes.push_back(image);
  std::string body;
  bogus.EncodeTo(&body);
  ASSERT_EQ(cluster.transport
                .Call("node1", MessageType::kReplicateState, body, nullptr)
                .code(),
            StatusCode::kFailedPrecondition);
  cluster.nodes[0]->StopReplication();

  // Node 1 promotes the copies it holds and restores the lost vnode from
  // its chain, as of the checkpoint, not from nothing.
  const std::vector<uint32_t> owned = cluster.driver->VnodesOwnedBy(kOp, 0);
  cluster.transport.Kill("node0");
  ASSERT_TRUE(cluster.driver->RecoverNode(0).ok());
  ASSERT_EQ(recovered.size(), owned.size());
  for (const VnodeImage& vnode : recovered) {
    if (vnode.vnode == lost) {
      EXPECT_EQ(vnode.base_seq, checkpoint->checkpoint_id);
    } else {
      EXPECT_NE(vnode.base_seq, 0u) << "vnode " << vnode.vnode;
    }
  }

  // Only the records after the checkpoint replay; restored from nothing,
  // the lost vnode would replay all 440.
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_LT(replayed->records_sent, 440u);
  cluster.ExpectCounts(expected);
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectCounts(expected);
}

TEST(DistClusterTest, ContinuousReplicationRecoversWithoutAnyCheckpoint) {
  // The stream makes replicas current WITHOUT any checkpoint barrier:
  // pump, wait for the stream to drain, kill a node — its holder's
  // replica alone must carry recovery (no durable image exists).
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  // Every stream, not only the victim's: node 0's own count is checked.
  ASSERT_TRUE(cluster.WaitAllIdle());

  auto stats = cluster.driver->NodeStats(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replicas_held, 1u);  // node 2's stream lands on node 0
  EXPECT_GT(stats->repl_shipped, 0u);

  cluster.transport.Kill("node2");
  ASSERT_TRUE(cluster.driver->RecoverNode(2).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  cluster.ExpectAllCounts(2);

  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectAllCounts(3);
}

TEST(DistClusterTest, PromotionFreesTheDeadOriginsReplica) {
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());

  cluster.transport.Kill("node2");
  ASSERT_TRUE(cluster.driver->RecoverNode(2).ok());
  ASSERT_TRUE(cluster.WaitAllIdle());
  // Node 0 moved node 2's whole replica into live state; the only replica
  // it still holds is node 1's, whose vnodes' holder it became.
  auto stats = cluster.driver->NodeStats(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replicas_held, 1u);

  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectAllCounts(1);
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectAllCounts(2);
}

TEST(DistClusterTest, StreamShipsOnlyWrittenKeys) {
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());

  // One record to one key: its vnode ships as a key delta of one entry.
  const uint64_t key = 0;
  auto owner = cluster.driver->RouteKey(kOp, key);
  ASSERT_TRUE(owner.ok());
  const uint64_t entries = NodeCounter("rhino_repl_entries_total", *owner);
  const uint64_t keys =
      NodeCounter("rhino_repl_vnodes_total", *owner, "kind", "keys");
  const uint64_t whole =
      NodeCounter("rhino_repl_vnodes_total", *owner, "kind", "whole");
  cluster.AppendKeys({key});
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitReplIdle(*owner));
  EXPECT_EQ(NodeCounter("rhino_repl_entries_total", *owner), entries + 1);
  EXPECT_EQ(NodeCounter("rhino_repl_vnodes_total", *owner, "kind", "keys"),
            keys + 1);
  EXPECT_EQ(NodeCounter("rhino_repl_vnodes_total", *owner, "kind", "whole"),
            whole);

  // The replica the deltas built is exact: promoted, it needs no replay.
  cluster.transport.Kill("node" + std::to_string(*owner));
  ASSERT_TRUE(cluster.driver->RecoverNode(*owner).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->applied, 0u);
  cluster.ExpectAllCounts(1, {{key, 1}});
}

TEST(DistClusterTest, KeyDeltaOutOfChainIsRejected) {
  DeltaLog log;  // outlives the cluster's replicator threads
  Cluster cluster;
  cluster.LogDeltas(1, &log);  // node 0's stream lands on node 1
  cluster.Bootstrap();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());

  const uint64_t key = cluster.KeyOwnedBy(0);
  const uint32_t vnode = VnodeForKey(key, kNumVnodes);
  auto carried = log.Carrying(0, vnode);
  ASSERT_FALSE(carried.empty());
  const uint64_t held_seq = carried.back().req.stream_seq;

  // A hand-built key delta for the vnode, far ahead of node 0's stream.
  auto send_key_delta = [&](uint64_t base_seq) {
    ReplicateStateRequest req;
    req.origin_node = 0;
    req.op = kOp;
    req.stream_seq = held_seq + 1'000'000;
    VnodeImage image;
    image.vnode = vnode;
    image.base_seq = base_seq;
    req.vnodes.push_back(image);
    std::string body;
    req.EncodeTo(&body);
    return cluster.transport.Call("node1", MessageType::kReplicateState, body,
                                  nullptr);
  };
  const uint64_t rejected = NodeCounter("rhino_repl_rejected_total", 1);
  Status wrong_base = send_key_delta(held_seq + 1);
  EXPECT_EQ(wrong_base.code(), StatusCode::kFailedPrecondition)
      << wrong_base.ToString();
  // The copy is gone: even the right base finds no vnode to extend.
  Status not_held = send_key_delta(held_seq);
  EXPECT_EQ(not_held.code(), StatusCode::kFailedPrecondition)
      << not_held.ToString();
  EXPECT_EQ(NodeCounter("rhino_repl_rejected_total", 1), rejected + 2);

  // Node 0 does not know: its next key delta bounces too, and the vnode
  // it then ships is whole.
  const uint64_t whole =
      NodeCounter("rhino_repl_vnodes_total", 0, "kind", "whole");
  cluster.AppendKeys({key});
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitReplIdle(0));
  EXPECT_EQ(NodeCounter("rhino_repl_rejected_total", 1), rejected + 3);
  EXPECT_EQ(NodeCounter("rhino_repl_vnodes_total", 0, "kind", "whole"),
            whole + 1);
  carried = log.Carrying(0, vnode);
  ASSERT_GE(carried.size(), 2u);
  const auto& bounced = carried[carried.size() - 2];
  const auto& last = carried.back();
  EXPECT_EQ(bounced.code, StatusCode::kFailedPrecondition);
  EXPECT_NE(EntryOf(bounced.req, vnode)->base_seq, 0u);
  EXPECT_EQ(last.code, StatusCode::kOk);
  EXPECT_EQ(EntryOf(last.req, vnode)->base_seq, 0u);

  // Promotion of the rebuilt replica is exact and needs no replay.
  cluster.transport.Kill("node0");
  ASSERT_TRUE(cluster.driver->RecoverNode(0).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->applied, 0u);
  cluster.ExpectAllCounts(1, {{key, 1}});
}

TEST(DistClusterTest, DuplicateDeltaIsAckedNotReapplied) {
  DeltaLog log;  // outlives the cluster's replicator threads
  Cluster cluster;
  cluster.LogDeltas(1, &log);
  cluster.Bootstrap();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());
  std::vector<std::string> first_wave;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    for (const auto& e : log.entries) {
      if (e.req.origin_node == 0) first_wave.push_back(e.body);
    }
  }
  ASSERT_FALSE(first_wave.empty());
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());

  // A channel replay of wave-1 deltas: acked, not applied. Applied, they
  // would roll node 0's replica back to wave 1.
  const uint64_t rejected = NodeCounter("rhino_repl_rejected_total", 1);
  for (const std::string& body : first_wave) {
    Status st = cluster.transport.Call("node1", MessageType::kReplicateState,
                                       body, nullptr);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(NodeCounter("rhino_repl_rejected_total", 1), rejected);

  cluster.transport.Kill("node0");
  ASSERT_TRUE(cluster.driver->RecoverNode(0).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->applied, 0u) << "the replica still held wave 2";
  cluster.ExpectAllCounts(2);
}

TEST(DistClusterTest, NoSuccessorCapturesNothing) {
  Cluster cluster(1);
  cluster.Bootstrap();
  const uint64_t shipped = NodeCounter("rhino_repl_shipped_bytes_total", 0);
  for (int wave = 0; wave < 1000; ++wave) cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitReplIdle(0));
  EXPECT_EQ(obs::Observability::Default()
                ->metrics()
                .GetGauge("rhino_repl_captured_keys", {{"node", "0"}})
                ->value(),
            0.0);
  EXPECT_EQ(NodeCounter("rhino_repl_shipped_bytes_total", 0), shipped);
  cluster.ExpectAllCounts(1000);
}

/// LSM user bytes (keys and values of committed writes) of every store in
/// the process.
uint64_t LsmUserWriteBytes() {
  return obs::Observability::Default()
      ->metrics()
      .GetCounter("rhino_lsm_user_write_bytes_total")
      ->value();
}

TEST(DistClusterTest, HandoverToItselfIsRefused) {
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  const std::vector<uint32_t> owned = cluster.driver->VnodesOwnedBy(kOp, 0);
  ASSERT_FALSE(owned.empty());

  // A handover to its own origin, or to a node that does not exist, is
  // refused before any call: routing, state and the data path stay as
  // they were.
  Status self = cluster.driver->TriggerHandover(kOp, 0, 0, owned);
  EXPECT_EQ(self.code(), StatusCode::kInvalidArgument) << self.ToString();
  Status nowhere = cluster.driver->TriggerHandover(kOp, 0, 7, owned);
  EXPECT_EQ(nowhere.code(), StatusCode::kInvalidArgument) << nowhere.ToString();
  EXPECT_EQ(cluster.driver->VnodesOwnedBy(kOp, 0), owned);
  auto stats = cluster.driver->NodeStats(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->owned_vnodes, owned.size());
  cluster.ExpectAllCounts(1);
  cluster.AppendWave();
  auto pumped = cluster.driver->Pump();
  ASSERT_TRUE(pumped.ok()) << pumped.status().ToString();
  EXPECT_EQ(pumped->applied, kNumKeys);
  cluster.ExpectAllCounts(2);

  // A dead target is refused too (node 0 promoted node 2's vnodes).
  cluster.transport.Kill("node2");
  ASSERT_TRUE(cluster.driver->RecoverNode(2).ok());
  const std::vector<uint32_t> promoted = cluster.driver->VnodesOwnedBy(kOp, 0);
  Status dead = cluster.driver->TriggerHandover(kOp, 0, 2, owned);
  EXPECT_EQ(dead.code(), StatusCode::kInvalidArgument) << dead.ToString();
  EXPECT_EQ(cluster.driver->VnodesOwnedBy(kOp, 0), promoted);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectAllCounts(2);
}

TEST(DistClusterTest, HolderOfFollowsHandoversAndRecovery) {
  Cluster cluster;
  cluster.Bootstrap();
  EXPECT_EQ(cluster.driver->HolderOf("nope", 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cluster.driver->HolderOf(kOp, kNumVnodes).status().code(),
            StatusCode::kInvalidArgument);
  // Every vnode starts at its owner's ring successor.
  for (uint32_t vnode = 0; vnode < kNumVnodes; ++vnode) {
    auto holder = cluster.driver->HolderOf(kOp, vnode);
    ASSERT_TRUE(holder.ok()) << holder.status().ToString();
    uint32_t owned_by = 3;
    for (uint32_t node = 0; node < 3; ++node) {
      const auto vnodes = cluster.driver->VnodesOwnedBy(kOp, node);
      if (std::count(vnodes.begin(), vnodes.end(), vnode) != 0) owned_by = node;
    }
    EXPECT_EQ(*holder, (owned_by + 1) % 3) << "vnode " << vnode;
  }
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());

  // A move to the holder makes the origin the holder; a cold move keeps
  // the holder.
  const std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 0, 1, moved).ok());
  for (uint32_t vnode : moved) {
    EXPECT_EQ(*cluster.driver->HolderOf(kOp, vnode), 0u);
  }
  ASSERT_TRUE(cluster.WaitAllIdle());
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 1, 2, moved).ok());
  for (uint32_t vnode : moved) {
    EXPECT_EQ(*cluster.driver->HolderOf(kOp, vnode), 0u);
  }

  // With one node left no node holds anything.
  cluster.transport.Kill("node0");
  cluster.transport.Kill("node1");
  ASSERT_TRUE(cluster.driver->RecoverNodes({0, 1}).ok());
  EXPECT_EQ(cluster.driver->HolderOf(kOp, moved.front()).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectAllCounts(1);
}

TEST(DistClusterTest, DemoteMovesNoStateEitherWay) {
  DeltaLog log;  // outlives the cluster's replicator threads
  Cluster cluster;
  for (uint32_t node = 0; node < 3; ++node) cluster.LogDeltas(node, &log);
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  cluster.AppendRange(0, 400, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());
  size_t logged = 0;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    logged = log.entries.size();
  }

  // 0 -> 1 and back 1 -> 0: each target holds the moved vnodes, so each
  // move takes the replica path, the origin demotes, and no LSM entry is
  // written anywhere.
  const std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  const uint64_t lsm = LsmUserWriteBytes();
  for (auto [origin, target] : {std::pair{0u, 1u}, std::pair{1u, 0u}}) {
    const uint64_t replica =
        NodeCounter("rhino_handover_total", target, "path", "replica");
    const uint64_t full =
        NodeCounter("rhino_handover_total", target, "path", "full");
    const uint64_t demoted = NodeCounter("rhino_handover_vnodes_total", origin,
                                         "step", "demote");
    ASSERT_TRUE(
        cluster.driver->TriggerHandover(kOp, origin, target, moved).ok());
    ASSERT_TRUE(cluster.WaitAllIdle());
    EXPECT_EQ(NodeCounter("rhino_handover_total", target, "path", "replica"),
              replica + 1);
    EXPECT_EQ(NodeCounter("rhino_handover_total", target, "path", "full"),
              full);
    EXPECT_EQ(NodeCounter("rhino_handover_vnodes_total", origin, "step",
                          "demote"),
              demoted + moved.size());
    auto stats = cluster.driver->NodeStats(origin);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->owned_vnodes,
              cluster.driver->VnodesOwnedBy(kOp, origin).size())
        << "node " << origin;
  }
  EXPECT_EQ(LsmUserWriteBytes(), lsm);
  {
    // The moves shipped nothing: no stream delta since carries a vnode.
    std::lock_guard<std::mutex> lock(log.mu);
    EXPECT_EQ(log.entries.size(), logged);
  }
  cluster.ExpectCounts(expected);

  // The next writes of a moved vnode ship as keys on top of the copy its
  // holder (node 1 again) kept, chained to the seq node 0 reserved.
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());
  {
    std::lock_guard<std::mutex> lock(log.mu);
    size_t carried = 0;
    for (size_t i = logged; i < log.entries.size(); ++i) {
      const DeltaLog::Entry& e = log.entries[i];
      EXPECT_EQ(e.code, StatusCode::kOk);
      for (uint32_t vnode : moved) {
        const VnodeImage* image = EntryOf(e.req, vnode);
        if (image == nullptr) continue;
        ++carried;
        EXPECT_EQ(e.req.origin_node, 0u);
        EXPECT_NE(image->base_seq, 0u) << "vnode " << vnode << " shipped whole";
      }
    }
    EXPECT_GT(carried, 0u);
  }
  cluster.ExpectCounts(expected);
}

TEST(DistClusterTest, NewOwnerKilledAfterDemotePromotesTheDemotedCopy) {
  std::vector<VnodeImage> promoted;  // node 0's promotion reply
  Cluster cluster;
  cluster.Tap(0, [&promoted](MessageType type, std::string_view,
                             const Result<std::string>& reply) {
    if (type != MessageType::kPromoteReplica || !reply.ok()) return;
    auto images = DecodeVnodeImages(*reply);
    ASSERT_TRUE(images.ok()) << images.status().ToString();
    promoted.insert(promoted.end(), images->begin(), images->end());
  });
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  cluster.AppendRange(0, 200, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());
  const std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 0, 1, moved).ok());

  // Node 1 streams the moved vnodes' keys to node 0, then its stream
  // freezes: the last wave lives only in node 1.
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());
  cluster.nodes[1]->StopReplication();
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // Node 1 dies: node 0 promotes the moved vnodes from the copy it
  // demoted, as of node 1's last delta, and node 2 promotes node 1's own.
  cluster.transport.Kill("node1");
  ASSERT_TRUE(cluster.driver->RecoverNode(1).ok());
  std::set<uint32_t> back;
  for (const VnodeImage& image : promoted) {
    EXPECT_NE(image.base_seq, 0u) << "vnode " << image.vnode;
    back.insert(image.vnode);
  }
  EXPECT_EQ(back, std::set<uint32_t>(moved.begin(), moved.end()));
  EXPECT_EQ(cluster.driver->VnodesOwnedBy(kOp, 0), moved);
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GT(replayed->applied, 0u) << "the frozen wave replays";
  cluster.ExpectCounts(expected);
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectCounts(expected);
}

TEST(DistClusterTest, OldOriginKilledAfterDemoteReshipsOnlyTheMovedVnodes) {
  DeltaLog log;  // outlives the cluster's replicator threads
  Cluster cluster;
  cluster.LogDeltas(2, &log);
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  cluster.AppendRange(0, 200, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());
  const std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 0, 1, moved).ok());
  ASSERT_TRUE(cluster.WaitAllIdle());

  // Node 0, the moved vnodes' holder, dies owning nothing. Node 1 ships
  // the moved vnodes whole to their new holder, node 2, and nothing else
  // whole: its own vnodes keep node 2 as their holder.
  size_t logged = 0;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    logged = log.entries.size();
  }
  const uint64_t whole =
      NodeCounter("rhino_repl_vnodes_total", 1, "kind", "whole");
  cluster.transport.Kill("node0");
  ASSERT_TRUE(cluster.driver->RecoverNode(0).ok());
  ASSERT_TRUE(cluster.WaitAllIdle());
  EXPECT_EQ(NodeCounter("rhino_repl_vnodes_total", 1, "kind", "whole"),
            whole + moved.size());
  std::set<uint32_t> shipped_whole;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    for (size_t i = logged; i < log.entries.size(); ++i) {
      const DeltaLog::Entry& e = log.entries[i];
      if (e.req.origin_node != 1) continue;
      for (const VnodeImage& image : e.req.vnodes) {
        if (image.base_seq == 0) shipped_whole.insert(image.vnode);
      }
    }
  }
  EXPECT_EQ(shipped_whole, std::set<uint32_t>(moved.begin(), moved.end()));
  for (uint32_t vnode : moved) {
    EXPECT_EQ(*cluster.driver->HolderOf(kOp, vnode), 2u) << "vnode " << vnode;
  }

  // The new copies serve: node 1 dies next, and node 2 promotes them
  // current, with nothing to replay.
  cluster.transport.Kill("node1");
  ASSERT_TRUE(cluster.driver->RecoverNode(1).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->applied, 0u);
  cluster.ExpectCounts(expected);
}

TEST(DistClusterTest, ColdMoveRelabelsTheOldHoldersCopy) {
  std::mutex mu;  // the tap's log outlives the cluster
  std::vector<VnodeImage> promoted;
  DeltaLog log;
  Cluster cluster;
  cluster.Tap(1, [&](MessageType type, std::string_view body,
                     const Result<std::string>& reply) {
    if (type == MessageType::kReplicateState) log.Record(body, reply);
    if (type != MessageType::kPromoteReplica || !reply.ok()) return;
    auto images = DecodeVnodeImages(*reply);
    ASSERT_TRUE(images.ok()) << images.status().ToString();
    std::lock_guard<std::mutex> lock(mu);
    promoted.insert(promoted.end(), images->begin(), images->end());
  });
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  cluster.AppendRange(0, 200, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());

  // Node 0's vnodes go to node 2, which holds none of them: a cold move.
  // Node 1, their holder, relabels its copies as node 2's.
  const std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  const uint64_t full = NodeCounter("rhino_handover_total", 2, "path", "full");
  const uint64_t relabelled =
      NodeCounter("rhino_handover_vnodes_total", 1, "step", "relabel");
  const uint64_t dropped =
      NodeCounter("rhino_handover_vnodes_total", 1, "step", "relabel_drop");
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 0, 2, moved).ok());
  EXPECT_EQ(NodeCounter("rhino_handover_total", 2, "path", "full"), full + 1);
  EXPECT_EQ(NodeCounter("rhino_handover_vnodes_total", 1, "step", "relabel"),
            relabelled + moved.size());
  EXPECT_EQ(NodeCounter("rhino_handover_vnodes_total", 1, "step",
                        "relabel_drop"),
            dropped);
  for (uint32_t vnode : moved) {
    EXPECT_EQ(*cluster.driver->HolderOf(kOp, vnode), 1u) << "vnode " << vnode;
  }

  // Node 2's writes of the moved vnodes ship as keys on top of the
  // relabelled copies; none ships whole.
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());
  size_t carried = 0;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    for (const DeltaLog::Entry& e : log.entries) {
      if (e.req.origin_node != 2) continue;
      for (uint32_t vnode : moved) {
        const VnodeImage* image = EntryOf(e.req, vnode);
        if (image == nullptr) continue;
        ++carried;
        EXPECT_EQ(e.code, StatusCode::kOk);
        EXPECT_NE(image->base_seq, 0u) << "vnode " << vnode << " shipped whole";
      }
    }
  }
  EXPECT_GT(carried, 0u);

  // Node 2 dies: node 1 promotes the moved vnodes from the relabelled
  // copies, current, so nothing of them replays.
  cluster.transport.Kill("node2");
  ASSERT_TRUE(cluster.driver->RecoverNode(2).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    std::set<uint32_t> back;
    for (const VnodeImage& image : promoted) {
      EXPECT_NE(image.base_seq, 0u) << "vnode " << image.vnode;
      back.insert(image.vnode);
    }
    for (uint32_t vnode : moved) EXPECT_EQ(back.count(vnode), 1u) << vnode;
  }
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->applied, 0u);
  cluster.ExpectCounts(expected);
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectCounts(expected);
}

TEST(DistClusterTest, CorrelatedKillOfOwnerAndHolderRestoresFromChains) {
  std::vector<VnodeImage> recovered;  // node 2's promotion replies
  Cluster cluster;
  cluster.Tap(2, [&recovered](MessageType type, std::string_view,
                              const Result<std::string>& reply) {
    if (type != MessageType::kPromoteReplica || !reply.ok()) return;
    auto images = DecodeVnodeImages(*reply);
    ASSERT_TRUE(images.ok()) << images.status().ToString();
    recovered.insert(recovered.end(), images->begin(), images->end());
  });
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  cluster.AppendRange(0, 400, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  const std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 0, 1, moved).ok());
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  cluster.AppendRange(0, 40, &expected);  // after the checkpoint: replays
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // Node 1 and node 0, the moved vnodes' holder, die together: node 2
  // restores the moved vnodes from their chains and promotes node 1's own
  // vnodes from the copies it holds.
  cluster.transport.Kill("node0");
  cluster.transport.Kill("node1");
  ASSERT_TRUE(cluster.driver->RecoverNodes({0, 1}).ok());
  EXPECT_EQ(cluster.driver->VnodesOwnedBy(kOp, 2).size(), kNumVnodes);
  std::set<uint32_t> restored;
  for (const VnodeImage& image : recovered) {
    if (std::count(moved.begin(), moved.end(), image.vnode) != 0) {
      auto chain = ReadChain(&cluster.env, ChainAt(image.vnode));
      ASSERT_TRUE(chain.ok()) << chain.status().ToString();
      EXPECT_EQ(image.base_seq, chain->checkpoint_id)
          << "vnode " << image.vnode;
      EXPECT_EQ(image.watermarks, chain->watermarks) << "vnode " << image.vnode;
      restored.insert(image.vnode);
    } else {
      EXPECT_NE(image.base_seq, 0u) << "vnode " << image.vnode;
    }
  }
  EXPECT_EQ(restored, std::set<uint32_t>(moved.begin(), moved.end()));
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GT(replayed->applied, 0u) << "the restored vnodes replay the tail";
  EXPECT_LE(replayed->applied, 40u);
  cluster.ExpectCounts(expected);
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectCounts(expected);
}

TEST(DistClusterTest, MovesToTheHolderNeverFallBack) {
  Cluster cluster;
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  std::vector<uint32_t> moving = cluster.driver->VnodesOwnedBy(kOp, 0);
  moving.resize(2);
  uint32_t owner = 0;
  uint64_t replica = 0, full = 0;
  auto total = [](const char* path) {
    uint64_t sum = 0;
    for (uint32_t node = 0; node < 3; ++node) {
      sum += NodeCounter("rhino_handover_total", node, "path", path);
    }
    return sum;
  };
  replica = total("replica");
  full = total("full");
  // The benchmark's walk, sent to the holder: every move is replica-local,
  // and the vnode pair keeps travelling between two nodes.
  for (int round = 0; round < 8; ++round) {
    cluster.AppendRange(0, 40, &expected);
    ASSERT_TRUE(cluster.driver->Pump().ok());
    ASSERT_TRUE(cluster.WaitAllIdle());
    auto holder = cluster.driver->HolderOf(kOp, moving.front());
    ASSERT_TRUE(holder.ok()) << holder.status().ToString();
    ASSERT_TRUE(
        cluster.driver->TriggerHandover(kOp, owner, *holder, moving).ok());
    EXPECT_EQ(*cluster.driver->HolderOf(kOp, moving.front()), owner);
    owner = *holder;
  }
  EXPECT_EQ(total("replica"), replica + 8);
  EXPECT_EQ(total("full"), full);
  cluster.ExpectCounts(expected);
}

TEST(DistClusterTest, HandoverToColdTargetUsesFullPath) {
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  const uint64_t replica =
      NodeCounter("rhino_handover_total", 2, "path", "replica");
  const uint64_t full = NodeCounter("rhino_handover_total", 2, "path", "full");

  // Node 2 does not hold node 0's vnodes: node 1 does.
  std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 0, 2, moved).ok());
  EXPECT_EQ(NodeCounter("rhino_handover_total", 2, "path", "full"), full + 1);
  cluster.ExpectAllCounts(1);
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectAllCounts(2);

  // Node 2 holds node 1's vnodes, but node 1's stream is stopped: its
  // drain fails, so it ships the full image.
  ASSERT_TRUE(cluster.WaitAllIdle());
  cluster.nodes[1]->StopReplication();
  moved = cluster.driver->VnodesOwnedBy(kOp, 1);
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 1, 2, moved).ok());
  EXPECT_EQ(NodeCounter("rhino_handover_total", 2, "path", "full"), full + 2);
  EXPECT_EQ(NodeCounter("rhino_handover_total", 2, "path", "replica"),
            replica);
  cluster.ExpectAllCounts(2);
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectAllCounts(3);
}

TEST(DistClusterTest, ReplicaIngestWithStaleSeqIsRejectedUntouched) {
  DeltaLog log;  // outlives the cluster's replicator threads
  Cluster cluster;
  cluster.LogDeltas(1, &log);
  cluster.Bootstrap();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());
  auto before = cluster.driver->NodeStats(1);
  ASSERT_TRUE(before.ok());

  // A replica-local ingest whose seqs the catalog does not hold.
  std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  IngestRequest ingest;
  ingest.id = 77;
  ingest.op = kOp;
  ingest.origin = 0;
  ingest.holder = 0;
  for (uint32_t vnode : moved) {
    VnodeImage image;
    image.vnode = vnode;
    image.base_seq = 1'000'000;
    ingest.images.push_back(image);
  }
  std::string body;
  ingest.EncodeTo(&body);
  Status st =
      cluster.transport.Call("node1", MessageType::kIngestVnodes, body, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  auto after = cluster.driver->NodeStats(1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->owned_vnodes, before->owned_vnodes);
  EXPECT_EQ(after->state_bytes, before->state_bytes);
  EXPECT_EQ(after->replicas_held, before->replicas_held);
  cluster.ExpectAllCounts(1);

  // A replica that lost a vnode behind the origin's back (an out-of-chain
  // delta erased it) fails the replica path; the driver redoes the move
  // through the full one.
  const uint32_t lost = moved.front();
  auto carried = log.Carrying(0, lost);
  ASSERT_FALSE(carried.empty());
  ReplicateStateRequest bogus;
  bogus.origin_node = 0;
  bogus.op = kOp;
  bogus.stream_seq = carried.back().req.stream_seq + 1'000'000;
  VnodeImage image;
  image.vnode = lost;
  image.base_seq = bogus.stream_seq;
  bogus.vnodes.push_back(image);
  body.clear();
  bogus.EncodeTo(&body);
  ASSERT_EQ(cluster.transport
                .Call("node1", MessageType::kReplicateState, body, nullptr)
                .code(),
            StatusCode::kFailedPrecondition);
  const uint64_t replica =
      NodeCounter("rhino_handover_total", 1, "path", "replica");
  const uint64_t full = NodeCounter("rhino_handover_total", 1, "path", "full");
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 0, 1, moved).ok());
  EXPECT_EQ(NodeCounter("rhino_handover_total", 1, "path", "full"), full + 1);
  EXPECT_EQ(NodeCounter("rhino_handover_total", 1, "path", "replica"),
            replica);
  cluster.ExpectAllCounts(1);
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectAllCounts(2);
}

TEST(DistClusterTest, CheckpointFailsCleanlyWhenANodeIsDownUndeclared) {
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());

  // A node died but nobody told the driver yet: the barrier must surface
  // an error (no silent partial checkpoint) — the barrier call to the
  // dead node fails, and the failure propagates.
  cluster.transport.Kill("node1");
  auto broken = cluster.driver->Checkpoint();
  EXPECT_FALSE(broken.ok());

  // RecoverNode re-forms the ring around the hole (0 <-> 2), so the next
  // barrier both succeeds and replicates on the survivors.
  ASSERT_TRUE(cluster.driver->RecoverNode(1).ok());
  ASSERT_TRUE(cluster.driver->Pump().ok());
  auto ckpt = cluster.driver->Checkpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->nodes, 2u);
  EXPECT_EQ(ckpt->replicated_nodes, 2u);
  cluster.ExpectAllCounts(1);
}

TEST(DistClusterTest, CheckpointWritesOnlyChangedKeys) {
  Cluster cluster;
  cluster.Bootstrap();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  const uint64_t whole = ImageTotal("vnodes", "whole");
  const uint64_t keys = ImageTotal("vnodes", "keys");
  auto base = cluster.driver->Checkpoint();
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  // The first checkpoint writes every vnode whole, and its reply counts
  // every byte it wrote, frames included.
  EXPECT_EQ(ImageTotal("vnodes", "whole"), whole + kNumVnodes);
  EXPECT_EQ(ImageTotal("vnodes", "keys"), keys);
  std::map<uint32_t, uint64_t> sizes;
  uint64_t total = 0;
  for (uint32_t vnode = 0; vnode < kNumVnodes; ++vnode) {
    sizes[vnode] = cluster.ChainBytes(vnode);
    EXPECT_GT(sizes[vnode], 0u) << "vnode " << vnode;
    total += sizes[vnode];
  }
  EXPECT_EQ(base->bytes, total);

  // A wave touching K keys writes K key entries, plus one record header
  // per touched vnode; the other chains stay as they are.
  const std::vector<uint64_t> touched = {0, 1, 2, 3, 4, 5};
  std::set<uint32_t> vnodes;
  for (uint64_t key : touched) vnodes.insert(VnodeForKey(key, kNumVnodes));
  cluster.AppendKeys(touched);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  auto delta = cluster.driver->Checkpoint();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(ImageTotal("vnodes", "keys"), keys + vnodes.size());
  EXPECT_EQ(ImageTotal("vnodes", "whole"), whole + kNumVnodes);
  // The touched keys' runs as the codec writes them: per vnode, its keys
  // in store-key order, each with its count (2) as the value.
  std::map<uint32_t, std::map<std::string, uint64_t>> runs;
  for (uint64_t key : touched) {
    std::string store_key(8, '\0');
    for (int i = 0; i < 8; ++i) {
      store_key[static_cast<size_t>(i)] = static_cast<char>(key >> (56 - 8 * i));
    }
    runs[VnodeForKey(key, kNumVnodes)][store_key] = 2;
  }
  uint64_t run_bytes = 0;
  for (const auto& [vnode, counts] : runs) {
    std::string run;
    state::EntryWriter writer(&run);
    for (const auto& [key, count] : counts) {
      std::string value;
      BinaryWriter(&value).PutVarint(count);
      writer.Put(key, value);
    }
    run_bytes += run.size();
  }
  constexpr uint64_t kFrameBytes = 8;
  // kind, checkpoint id, size and one watermark: a few varint bytes.
  constexpr uint64_t kMaxHeaderBytes = 10;
  EXPECT_GE(delta->bytes, run_bytes + vnodes.size() * kFrameBytes);
  EXPECT_LE(delta->bytes,
            run_bytes + vnodes.size() * (kFrameBytes + kMaxHeaderBytes));
  uint64_t grown = 0;
  for (uint32_t vnode = 0; vnode < kNumVnodes; ++vnode) {
    const uint64_t growth = cluster.ChainBytes(vnode) - sizes[vnode];
    if (vnodes.count(vnode) != 0) {
      EXPECT_GT(growth, 0u) << "vnode " << vnode;
    } else {
      EXPECT_EQ(growth, 0u) << "vnode " << vnode;
    }
    grown += growth;
  }
  EXPECT_EQ(delta->bytes, grown);

  // Nothing written since: the next checkpoint writes nothing.
  auto idle = cluster.driver->Checkpoint();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->bytes, 0u);
}

TEST(DistClusterTest, ChainFoldedAcrossHandoverRestoresExactlyOnce) {
  Cluster cluster;
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  // Large bases (400 keys, ~25 per vnode) next to waves of 40 keys keep
  // every chain short of twice its base.
  cluster.AppendRange(0, 400, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());  // base
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());  // delta
  cluster.AppendRange(0, 40, &expected);  // pending at the extract
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // The origin's extract appends the moved vnodes' pending keys: the
  // final incremental checkpoint O->T, counted under phase=handover.
  const uint32_t vnode = VnodeForKey(cluster.KeyOwnedBy(0), kNumVnodes);
  std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  std::set<uint32_t> pending;
  for (uint64_t key = 0; key < 40; ++key) {
    const uint32_t v = VnodeForKey(key, kNumVnodes);
    if (std::count(moved.begin(), moved.end(), v) != 0) pending.insert(v);
  }
  const uint64_t extract_records =
      ImageCounter("vnodes", 0, "keys", "handover");
  const uint64_t extract_bytes = ImageCounter("bytes", 0, "keys", "handover");
  const uint64_t extract_whole = ImageCounter("vnodes", 0, "whole", "handover");
  const uint64_t before_extract = cluster.ChainBytes(vnode);
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 0, 1, moved).ok());
  EXPECT_EQ(ImageCounter("vnodes", 0, "keys", "handover"),
            extract_records + pending.size());
  EXPECT_GT(ImageCounter("bytes", 0, "keys", "handover"), extract_bytes);
  EXPECT_GT(cluster.ChainBytes(vnode), before_extract);
  EXPECT_EQ(ImageCounter("vnodes", 0, "whole", "handover"), extract_whole);

  // The target extends the chains it took over instead of rewriting them.
  const uint64_t target_whole = ImageCounter("vnodes", 1, "whole");
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  EXPECT_EQ(ImageCounter("vnodes", 1, "whole"), target_whole);
  auto folded = ReadChain(&cluster.env, ChainAt(vnode));
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded->records, 4u)
      << "base -> delta -> extract record -> target's delta";
  cluster.AppendRange(0, 40, &expected);  // post-checkpoint tail
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // Correlated failure: node 1 owns the moved vnodes, and node 2, which
  // held node 1's own replica, dies with it. Node 1's own vnodes come back
  // from their chains; the moved ones from the copy node 0 demoted.
  cluster.transport.Kill("node1");
  cluster.transport.Kill("node2");
  ASSERT_TRUE(cluster.driver->RecoverNodes({1, 2}).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  // Restored vnodes resume at their last records' watermarks: at most the
  // 40-record tail applies again (restored empty, all 560 records would).
  EXPECT_LE(replayed->applied, 40u);
  cluster.ExpectCounts(expected);
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectCounts(expected);
}

TEST(DistClusterTest, TornChainTailRestoresThePreviousRecord) {
  Cluster cluster;
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  cluster.AppendRange(0, 400, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());

  // A SIGKILL mid-append tore the last record of one of node 1's chains.
  const uint32_t vnode = VnodeForKey(cluster.KeyOwnedBy(1), kNumVnodes);
  std::string raw;
  ASSERT_TRUE(cluster.env.ReadFile(ChainAt(vnode), &raw).ok());
  auto whole_chain = ParseChain(raw);
  ASSERT_TRUE(whole_chain.ok());
  ASSERT_EQ(whole_chain->records, 2u);
  ASSERT_TRUE(
      cluster.env.WriteFile(ChainAt(vnode), raw.substr(0, raw.size() - 3))
          .ok());
  auto torn = ReadChain(&cluster.env, ChainAt(vnode));
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_EQ(torn->records, 1u) << "only the torn record is lost";
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // Node 1 and its replica holder fail together: its vnodes restore from
  // their chains, the torn one as of its base, and replay does the rest.
  std::vector<uint32_t> promoted = cluster.driver->VnodesOwnedBy(kOp, 2);
  cluster.transport.Kill("node1");
  cluster.transport.Kill("node2");
  ASSERT_TRUE(cluster.driver->RecoverNodes({1, 2}).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  // The tail replays, and the torn vnode's share of the wave its lost
  // record held: far from the 480 records a restore from nothing replays.
  EXPECT_LE(replayed->applied, 80u);
  cluster.ExpectCounts(expected);

  // The next owner rewrites the promoted vnodes and the torn one as new
  // bases; the other restored vnodes extend their untorn chains.
  const uint64_t whole = ImageCounter("vnodes", 0, "whole");
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  EXPECT_EQ(ImageCounter("vnodes", 0, "whole"), whole + promoted.size() + 1);
  auto rewritten = ReadChain(&cluster.env, ChainAt(vnode));
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(rewritten->records, 1u);
  EXPECT_EQ(rewritten->valid_bytes, cluster.ChainBytes(vnode));
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectCounts(expected);
}

TEST(DistClusterTest, PromotedVnodeNextRecordIsWhole) {
  Cluster cluster;
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  cluster.AppendRange(0, 400, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());

  std::vector<uint32_t> lost = cluster.driver->VnodesOwnedBy(kOp, 2);
  cluster.transport.Kill("node2");
  ASSERT_TRUE(cluster.driver->RecoverNode(2).ok());
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // Node 0 knows nothing of the promoted vnodes' chains: their next
  // records are whole, while its own vnodes keep extending theirs.
  const uint64_t whole = ImageCounter("vnodes", 0, "whole");
  const uint64_t keys = ImageCounter("vnodes", 0, "keys");
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  EXPECT_EQ(ImageCounter("vnodes", 0, "whole"), whole + lost.size());
  EXPECT_GT(ImageCounter("vnodes", 0, "keys"), keys);
  for (uint32_t vnode : lost) {
    auto chain = ReadChain(&cluster.env, ChainAt(vnode));
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    EXPECT_EQ(chain->records, 1u) << "vnode " << vnode;
  }
  cluster.ExpectCounts(expected);
}

TEST(DistClusterTest, CheckpointReaderHoldsOnlyKeysSinceTheCheckpoint) {
  Cluster cluster;
  cluster.Bootstrap();
  auto captured = [] {
    double keys = 0;
    for (uint32_t node = 0; node < 3; ++node) {
      keys += obs::Observability::Default()
                  ->metrics()
                  .GetGauge("rhino_checkpoint_captured_keys",
                            {{"node", std::to_string(node)}})
                  ->value();
    }
    return keys;
  };
  // A node that never checkpointed captures nothing for its chains.
  for (int wave = 0; wave < 3; ++wave) cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  EXPECT_EQ(captured(), 0.0);
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());

  // From then on it holds each key written since the last checkpoint
  // once, however often it was written; the checkpoint takes them all.
  cluster.AppendWave();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  EXPECT_EQ(captured(), static_cast<double>(kNumKeys));
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  EXPECT_EQ(captured(), 0.0);
  cluster.ExpectAllCounts(5);
}

TEST(DistClusterTest, ChainStaysWithinTwiceItsBase) {
  Cluster cluster;
  cluster.Bootstrap();
  const uint64_t whole = ImageTotal("vnodes", "whole");
  const uint64_t keys = ImageTotal("vnodes", "keys");
  // Every wave rewrites every key, so each delta is most of its base:
  // chains alternate between appending and rewriting.
  for (uint64_t wave = 1; wave <= 10; ++wave) {
    cluster.AppendWave();
    ASSERT_TRUE(cluster.driver->Pump().ok());
    const uint64_t bytes =
        ImageTotal("bytes", "whole") + ImageTotal("bytes", "keys");
    auto ckpt = cluster.driver->Checkpoint();
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    EXPECT_EQ(ImageTotal("bytes", "whole") + ImageTotal("bytes", "keys"),
              bytes + ckpt->bytes);
    for (uint32_t vnode = 0; vnode < kNumVnodes; ++vnode) {
      auto base = ChainBaseBytes(&cluster.env, ChainAt(vnode));
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      EXPECT_LE(cluster.ChainBytes(vnode), 2 * *base)
          << "vnode " << vnode << " wave " << wave;
    }
  }
  EXPECT_GT(ImageTotal("vnodes", "keys"), keys);
  EXPECT_GT(ImageTotal("vnodes", "whole"), whole + kNumVnodes)
      << "chains were rewritten after their first base";
  cluster.ExpectAllCounts(10);
}

TEST(DistClusterTest, PromotionAndReplicaLocalIngestCopyNoKey) {
  Cluster cluster;
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  cluster.AppendRange(0, 400, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.WaitAllIdle());

  // Serves `node` through a wrapper that measures the LSM bytes written
  // while the node handles one `type` call. Every stream that could write
  // meanwhile is drained and stopped first.
  auto measure = [&cluster](uint32_t node, MessageType type, uint64_t* bytes) {
    NodeServer* server = cluster.nodes[node].get();
    cluster.transport.Register(
        "node" + std::to_string(node),
        [server, type, bytes](MessageType t, std::string_view body) {
          const uint64_t before = LsmUserWriteBytes();
          auto reply = server->Handle(t, body);
          if (t == type) *bytes = LsmUserWriteBytes() - before;
          return reply;
        });
  };

  // A replica-local handover 0 -> 1. Node 0's stream stays up, drained:
  // its extract waits on it, and it carries nothing until the drop.
  cluster.nodes[1]->StopReplication();
  cluster.nodes[2]->StopReplication();
  uint64_t ingest_bytes = UINT64_MAX;
  measure(1, MessageType::kIngestVnodes, &ingest_bytes);
  const uint64_t replica =
      NodeCounter("rhino_handover_total", 1, "path", "replica");
  std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy(kOp, 0);
  ASSERT_TRUE(cluster.driver->TriggerHandover(kOp, 0, 1, moved).ok());
  EXPECT_EQ(NodeCounter("rhino_handover_total", 1, "path", "replica"),
            replica + 1);
  EXPECT_EQ(ingest_bytes, 0u) << "the target's held rows became its state";

  // Node 2 dies; node 0 promotes the replica it holds of node 2.
  ASSERT_TRUE(cluster.WaitReplIdle(0));
  cluster.nodes[0]->StopReplication();
  uint64_t promote_bytes = UINT64_MAX;
  measure(0, MessageType::kPromoteReplica, &promote_bytes);
  cluster.transport.Kill("node2");
  ASSERT_TRUE(cluster.driver->RecoverNode(2).ok());
  EXPECT_EQ(promote_bytes, 0u) << "the promoted rows stayed where they were";

  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->applied, 0u);
  cluster.ExpectCounts(expected);
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  cluster.ExpectCounts(expected);
}

/// The counter's store key of `key`: big-endian u64.
std::string CounterKey(uint64_t key) {
  std::string out(8, '\0');
  for (int i = 0; i < 8; ++i) {
    out[static_cast<size_t>(i)] = static_cast<char>(key >> (56 - 8 * i));
  }
  return out;
}

/// The counter's stored value: the count as one varint.
std::string CountValue(uint64_t count) {
  std::string value;
  BinaryWriter(&value).PutVarint(count);
  return value;
}

uint64_t DecodeCount(std::string_view value) {
  uint64_t count = 0;
  EXPECT_TRUE(BinaryReader(value).GetVarint(&count).ok());
  return count;
}

TEST(DistClusterTest, RestoreKeepsExtendingAnUntornChain) {
  Cluster cluster;
  cluster.Bootstrap();
  std::map<uint64_t, uint64_t> expected;
  cluster.AppendRange(0, 400, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  cluster.AppendRange(0, 40, &expected);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());

  // Node 1 and its replica holder fail together: node 0 restores node 1's
  // vnodes from their untorn chains and promotes node 2's.
  std::vector<uint32_t> restored = cluster.driver->VnodesOwnedBy(kOp, 1);
  std::vector<uint32_t> promoted = cluster.driver->VnodesOwnedBy(kOp, 2);
  cluster.transport.Kill("node1");
  cluster.transport.Kill("node2");
  ASSERT_TRUE(cluster.driver->RecoverNodes({1, 2}).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->applied, 0u) << "each restored vnode is its last record";

  // Writes to every fourth key of each restored vnode: few enough that
  // each chain stays within twice its base (asserted below), so its next
  // record is a key record.
  std::set<uint32_t> changed;
  std::vector<uint64_t> keys;
  std::map<uint32_t, uint64_t> seen;
  for (uint64_t key = 0; key < 400; ++key) {
    const uint32_t vnode = VnodeForKey(key, kNumVnodes);
    if (std::count(restored.begin(), restored.end(), vnode) == 0) continue;
    if (seen[vnode]++ % 4 != 0) continue;
    keys.push_back(key);
    expected[key] += 1;
    changed.insert(vnode);
  }
  ASSERT_FALSE(changed.empty());
  cluster.AppendKeys(keys);
  ASSERT_TRUE(cluster.driver->Pump().ok());
  std::map<uint32_t, uint64_t> records, chain_bytes, base_bytes;
  for (uint32_t vnode : restored) {
    auto chain = ReadChain(&cluster.env, ChainAt(vnode));
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    auto base = ChainBaseBytes(&cluster.env, ChainAt(vnode));
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    records[vnode] = chain->records;
    chain_bytes[vnode] = chain->valid_bytes;
    base_bytes[vnode] = *base;
  }

  // The next checkpoint appends one key record per changed restored
  // vnode and rewrites only the promoted ones.
  const uint64_t whole = ImageCounter("vnodes", 0, "whole");
  const uint64_t key_records = ImageCounter("vnodes", 0, "keys");
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  for (uint32_t vnode : restored) {
    auto chain = ReadChain(&cluster.env, ChainAt(vnode));
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    if (changed.count(vnode) != 0) {
      // The fixture's precondition: the key record of this checkpoint's
      // writes keeps the chain within twice its base. Past that the
      // record would rightly be whole, and the counts here would not hold.
      std::string run, framed;
      state::EntryWriter entries(&run);
      for (uint64_t key : keys) {
        if (VnodeForKey(key, kNumVnodes) != vnode) continue;
        entries.Put(CounterKey(key), CountValue(expected[key]));
      }
      ChainRecord record;
      record.kind = ChainRecord::Kind::kKeys;
      record.checkpoint_id = chain->checkpoint_id;
      record.nominal_bytes = chain->nominal_bytes;
      record.watermarks = chain->watermarks;
      record.body = run;
      AppendChainRecord(record, &framed);
      ASSERT_LE(chain_bytes[vnode] + framed.size(), 2 * base_bytes[vnode])
          << "vnode " << vnode << ": a " << framed.size()
          << "-byte key record on a " << chain_bytes[vnode]
          << "-byte chain with a " << base_bytes[vnode] << "-byte base";
    }
    EXPECT_EQ(chain->records, records[vnode] + changed.count(vnode))
        << "vnode " << vnode;
    EXPECT_EQ(chain->valid_bytes, cluster.ChainBytes(vnode));

    // The chain alone still restores to the live state.
    lsm::MemEnv env;
    auto backend = state::LsmStateBackend::Open(&env, "/restored", kOp, 0);
    ASSERT_TRUE(backend.ok());
    ASSERT_TRUE(RestoreChain(*chain, vnode, backend->get()).ok());
    auto rows = (*backend)->ScanPrefix(vnode, "");
    ASSERT_TRUE(rows.ok());
    std::map<std::string, uint64_t> want, got;
    for (const auto& [key, count] : expected) {
      if (VnodeForKey(key, kNumVnodes) == vnode) want[CounterKey(key)] = count;
    }
    for (const auto& [key, value] : *rows) got[key] = DecodeCount(value);
    EXPECT_EQ(got, want) << "vnode " << vnode;
  }
  EXPECT_EQ(ImageCounter("vnodes", 0, "whole"), whole + promoted.size());
  EXPECT_EQ(ImageCounter("vnodes", 0, "keys"), key_records + changed.size());
  cluster.ExpectCounts(expected);
}

/// One vnode's state as the model sees it.
struct VnodeModel {
  std::map<std::string, std::string> rows;
  uint64_t bytes = 0;
  std::map<int, uint64_t> marks;

  bool operator==(const VnodeModel&) const = default;
};

std::ostream& operator<<(std::ostream& os, const VnodeModel& state) {
  os << state.rows.size() << " rows, " << state.bytes << " bytes, marks {";
  for (const auto& [source, offset] : state.marks) {
    os << " " << source << ":" << offset;
  }
  return os << " }";
}

/// The whole image of `vnode` in `state`.
VnodeImage ModelImage(uint32_t vnode, const VnodeModel& state) {
  VnodeImage image;
  image.vnode = vnode;
  image.bytes = state.bytes;
  image.watermarks = state.marks;
  state::EntryWriter entries(&image.entries);
  for (const auto& [key, value] : state.rows) entries.Put(key, value);
  return image;
}

/// The state of `vnode` a list of whole images carries: its image's rows,
/// size and replay watermarks.
VnodeModel ImageState(const std::vector<VnodeImage>& images, uint32_t vnode) {
  VnodeModel state;
  for (const VnodeImage& image : images) {
    if (image.vnode != vnode) continue;
    EXPECT_EQ(image.base_seq, 0u) << "vnode " << vnode << ": not whole";
    state::EntryReader entries(image.entries);
    while (!entries.AtEnd()) {
      if (!entries.Next().ok()) {
        ADD_FAILURE() << "vnode " << vnode << ": undecodable run";
        break;
      }
      state.rows[std::string(entries.key())] = entries.value();
    }
    state.bytes = image.bytes;
    state.marks = image.watermarks;
  }
  return state;
}

/// An extract of `vnodes` of kOp, whole.
ExtractRequest ExtractOf(uint64_t id, const std::vector<uint32_t>& vnodes) {
  ExtractRequest req;
  req.id = id;
  req.op = kOp;
  req.vnodes = vnodes;
  return req;
}

/// An ingest of `images` of kOp from `origin`, streamed to `holder` after.
IngestRequest IngestOf(uint64_t id, uint32_t origin, uint32_t holder) {
  IngestRequest req;
  req.id = id;
  req.op = kOp;
  req.origin = origin;
  req.holder = holder;
  return req;
}

// The held-rows invariant against a std::map model: one node (node 1),
// driven through seeded random rounds by two origins (nodes 0 and 2) —
// whole vnodes, key deltas in and out of chain and from the wrong origin,
// stale deltas for vnodes the node owns, promotions, replica-local and
// full-path ingests, demotes, relabels, batches and drops. The model
// keeps what the node owns, per vnode the one copy it holds and whose it
// is, and per vnode the state its checkpoint chain ends in. After every
// round each owned vnode extracts to the model (a promoted vnode to the
// origin's copy the model held, else to its chain's state, else empty; a
// replica-ingested one to the held copy), the node's size and stats count
// owned vnodes only, and once a checkpoint and the stream have taken what
// they captured, neither capture reader is left holding a key: held rows,
// demoted ones included, reach neither.
TEST(DistClusterTest, HeldRowsMatchAMapModelOverRandomRounds) {
  constexpr uint32_t kVnodes = 8;
  constexpr uint32_t kNode = 1;
  const uint32_t origins[] = {0, 2};
  lsm::MemEnv env;
  LoopbackTransport transport;
  // The node's own streams go to a sink that acks every delta: both
  // origins' endpoints.
  transport.Register("sink", [](MessageType, std::string_view) {
    return Result<std::string>(std::string());
  });
  NodeServer node(&env, &transport, NodeServerOptions{"/data/n1", "/ckpt"});
  auto call = [&node](MessageType type, const auto& msg) {
    std::string body;
    msg.EncodeTo(&body);
    return node.Handle(type, body);
  };
  HelloRequest hello;
  hello.node_id = kNode;
  hello.peers = {"sink", "", "sink"};
  ASSERT_TRUE(call(MessageType::kHello, hello).ok());
  AddOperatorRequest add;
  add.spec.kind = dataflow::OperatorKind::kKeyedCounter;
  add.spec.name = kOp;
  add.spec.num_vnodes = kVnodes;
  add.spec.input_arity = 1;
  add.owned_vnodes = {0, 1, 2};
  ASSERT_TRUE(call(MessageType::kAddOperator, add).ok());

  struct HeldModel {
    uint32_t origin = 0;
    uint64_t seq = 0;
    VnodeModel state;
  };
  std::map<uint32_t, VnodeModel> owned = {{0, {}}, {1, {}}, {2, {}}};
  std::map<uint32_t, HeldModel> held;
  // What each vnode's chain ends in: every owned vnode's state at each
  // checkpoint, or what a handover origin wrote before its ingest.
  std::map<uint32_t, VnodeModel> chains;
  // Promoted vnodes by source: the origin's copy, a chain, nothing.
  uint64_t from_copy = 0, from_chain = 0, from_nothing = 0;
  // Copies demoted here, relabelled, and dropped by a relabel.
  uint64_t demoted = 0, relabelled = 0, relabel_dropped = 0;
  std::map<uint32_t, uint64_t> stream_seq;  // per origin
  uint64_t offset = 0, handover_id = 0, checkpoint_id = 0;
  uint64_t rng = 19;
  auto next = [&rng](uint64_t n) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % n;
  };
  std::map<uint32_t, std::vector<uint64_t>> keys_of;
  for (uint64_t key = 0; key < 96; ++key) {
    keys_of[VnodeForKey(key, kVnodes)].push_back(key);
  }
  auto random_state = [&](uint32_t vnode) {
    VnodeModel state;
    for (uint64_t key : keys_of[vnode]) {
      if (next(2) == 0) state.rows[CounterKey(key)] = CountValue(1 + next(9));
    }
    state.bytes = 16 * state.rows.size() + next(100);
    state.marks = {{7, next(1000)}};
    return state;
  };
  auto unowned = [&] {
    std::vector<uint32_t> out;
    for (uint32_t v = 0; v < kVnodes; ++v) {
      if (owned.count(v) == 0) out.push_back(v);
    }
    return out;
  };
  auto some_of = [&](const std::vector<uint32_t>& vnodes) {
    std::vector<uint32_t> out;
    for (uint32_t v : vnodes) {
      if (next(2) == 0) out.push_back(v);
    }
    if (out.empty() && !vnodes.empty()) out.push_back(vnodes[next(vnodes.size())]);
    return out;
  };
  // A stream delta of `image` from `origin`. Returns the node's answer.
  auto deliver = [&](uint32_t origin, const VnodeImage& image) {
    ReplicateStateRequest req;
    req.origin_node = origin;
    req.op = kOp;
    req.stream_seq = ++stream_seq[origin];
    req.vnodes.push_back(image);
    return call(MessageType::kReplicateState, req).status().code();
  };
  // A key delta of `vnode` on top of `base_seq` (never 0, which would make
  // it whole): random puts and tombstones of the vnode's keys, a new size
  // and new watermarks, applied to `state` too.
  auto key_delta = [&](uint32_t vnode, uint64_t base_seq, VnodeModel* state) {
    VnodeImage image;
    image.vnode = vnode;
    image.base_seq = base_seq;
    state::EntryWriter run(&image.entries);
    for (uint64_t key : keys_of[vnode]) {
      if (next(3) != 0) continue;
      if (next(3) == 0) {
        run.Delete(CounterKey(key));
        state->rows.erase(CounterKey(key));
      } else {
        const std::string value = CountValue(1 + next(9));
        run.Put(CounterKey(key), value);
        state->rows[CounterKey(key)] = value;
      }
    }
    state->bytes = 16 * state->rows.size() + next(100);
    state->marks = {{7, next(1000)}};
    image.bytes = state->bytes;
    image.watermarks = state->marks;
    return image;
  };

  // The chain a handover origin's extract leaves before the ingest: the
  // moved vnode's state as one whole record.
  auto write_chain = [&](uint32_t vnode, const VnodeModel& state) {
    const VnodeImage image = ModelImage(vnode, state);
    ChainRecord record;
    record.checkpoint_id = handover_id;
    record.nominal_bytes = state.bytes;
    record.watermarks = state.marks;
    record.body = image.entries;
    std::string framed;
    AppendChainRecord(record, &framed);
    ASSERT_TRUE(env.WriteFile(ChainAt(vnode), framed).ok());
    chains[vnode] = state;
  };

  // Half the time a vnode the model holds a copy of, else `fallback`.
  auto held_vnode = [&](uint32_t fallback) {
    if (held.empty() || next(2) == 0) return fallback;
    auto it = held.begin();
    std::advance(it, next(held.size()));
    return it->first;
  };
  enum Op {
    kWhole, kKeys, kOutOfChain, kStale, kPromote, kReplicaIngest,
    kFullIngest, kDemote, kRelabel, kDrop, kBatch
  };
  // Whole vnodes and key deltas come most often, so copies stay held for
  // the ops that check and consume them.
  const Op ops[] = {kWhole,      kWhole,   kWhole,   kWhole,      kKeys,
                    kKeys,       kKeys,    kOutOfChain, kOutOfChain, kStale,
                    kPromote,    kReplicaIngest, kFullIngest, kDemote,
                    kRelabel,    kRelabel, kDrop,    kBatch,      kBatch};
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const uint32_t origin = origins[next(2)];
    switch (ops[next(std::size(ops))]) {
      case kWhole: {  // a whole vnode, which replaces whatever is held
        const std::vector<uint32_t> candidates = unowned();
        if (candidates.empty()) break;
        const uint32_t vnode = candidates[next(candidates.size())];
        VnodeModel state = random_state(vnode);
        const VnodeImage image = ModelImage(vnode, state);
        ASSERT_EQ(deliver(origin, image), StatusCode::kOk);
        held[vnode] = HeldModel{origin, stream_seq[origin], state};
        break;
      }
      case kKeys: {  // a key delta in chain
        if (held.empty()) break;
        auto it = held.begin();
        std::advance(it, next(held.size()));
        HeldModel& copy = it->second;
        VnodeModel state = copy.state;
        const VnodeImage image = key_delta(it->first, copy.seq, &state);
        ASSERT_EQ(deliver(copy.origin, image), StatusCode::kOk);
        copy.seq = stream_seq[copy.origin];
        copy.state = state;
        break;
      }
      case kOutOfChain: {  // a key delta out of chain, or from the other origin
        const std::vector<uint32_t> candidates = unowned();
        if (candidates.empty()) break;
        const uint32_t vnode =
            held_vnode(candidates[next(candidates.size())]);
        auto copy = held.find(vnode);
        uint64_t base = 1 + next(5);
        if (copy != held.end()) {
          // The other origin's delta at the copy's very seq, or this
          // origin's past it.
          base = copy->second.origin != origin ? copy->second.seq
                                               : copy->second.seq + 1 + next(3);
        }
        VnodeModel state;
        const VnodeImage image = key_delta(vnode, base, &state);
        ASSERT_EQ(deliver(origin, image), StatusCode::kFailedPrecondition);
        if (copy != held.end() && copy->second.origin == origin) {
          held.erase(copy);
        }
        break;
      }
      case kStale: {  // a stale delta of a vnode the node owns
        if (owned.empty()) break;
        auto it = owned.begin();
        std::advance(it, next(owned.size()));
        VnodeModel state = random_state(it->first);
        VnodeImage image = ModelImage(it->first, state);
        if (next(2) == 0) image = key_delta(it->first, 1 + next(5), &state);
        ASSERT_EQ(deliver(origin, image), StatusCode::kOk);
        break;
      }
      case kPromote: {  // a promotion: the origin's copy, its chain, or nothing
        const std::vector<uint32_t> candidates = unowned();
        if (candidates.empty()) break;
        ReplicaFetchRequest fetch;
        fetch.origin_node = origin;
        fetch.op = kOp;
        fetch.vnodes = some_of(candidates);
        auto reply = call(MessageType::kPromoteReplica, fetch);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        auto images = DecodeVnodeImages(*reply);
        ASSERT_TRUE(images.ok()) << images.status().ToString();
        ASSERT_EQ(images->size(), fetch.vnodes.size());
        for (size_t i = 0; i < fetch.vnodes.size(); ++i) {
          const uint32_t vnode = fetch.vnodes[i];
          const VnodeImage& image = (*images)[i];
          auto copy = held.find(vnode);
          auto chain = chains.find(vnode);
          if (copy != held.end() && copy->second.origin == origin) {
            EXPECT_EQ(image.base_seq, copy->second.seq) << "vnode " << vnode;
            owned[vnode] = copy->second.state;
            ++from_copy;
          } else if (chain != chains.end()) {
            EXPECT_NE(image.base_seq, 0u) << "vnode " << vnode;
            owned[vnode] = chain->second;
            ++from_chain;
          } else {
            EXPECT_EQ(image.base_seq, 0u) << "vnode " << vnode;
            owned[vnode] = VnodeModel();
            ++from_nothing;
          }
          EXPECT_EQ(image.vnode, vnode);
          EXPECT_EQ(image.bytes, owned[vnode].bytes) << "vnode " << vnode;
          EXPECT_EQ(image.watermarks, owned[vnode].marks) << "vnode " << vnode;
          if (copy != held.end()) held.erase(copy);
        }
        break;
      }
      case kReplicaIngest: {  // the origin's held vnodes, replica-local
        std::vector<uint32_t> candidates;
        for (const auto& [v, copy] : held) {
          if (copy.origin == origin) candidates.push_back(v);
        }
        if (candidates.empty()) break;
        IngestRequest ingest = IngestOf(++handover_id, origin, origin);
        const std::vector<uint32_t> moved = some_of(candidates);
        for (uint32_t vnode : moved) {
          write_chain(vnode, held[vnode].state);
          VnodeImage image;
          image.vnode = vnode;
          image.base_seq = held[vnode].seq;
          image.bytes = held[vnode].state.bytes;
          image.watermarks = held[vnode].state.marks;
          ingest.images.push_back(image);
        }
        const bool stale = next(4) == 0;
        if (stale) ingest.images.front().base_seq += 1;
        auto reply = call(MessageType::kIngestVnodes, ingest);
        if (stale) {
          ASSERT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
          break;
        }
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        auto reserved = IngestReply::Decode(*reply);
        ASSERT_TRUE(reserved.ok()) << reserved.status().ToString();
        EXPECT_NE(reserved->seq, 0u);
        for (uint32_t vnode : moved) {
          owned[vnode] = held[vnode].state;
          held.erase(vnode);
        }
        break;
      }
      case kFullIngest: {  // a full-path ingest, which replaces held rows
        const std::vector<uint32_t> candidates = unowned();
        if (candidates.empty()) break;
        IngestRequest ingest = IngestOf(++handover_id, origin, origin);
        std::map<uint32_t, VnodeModel> states;
        for (uint32_t vnode : some_of(candidates)) {
          states[vnode] = random_state(vnode);
          write_chain(vnode, states[vnode]);
          ingest.images.push_back(ModelImage(vnode, states[vnode]));
        }
        auto reply = call(MessageType::kIngestVnodes, ingest);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        for (auto& [vnode, state] : states) {
          owned[vnode] = std::move(state);
          held.erase(vnode);
        }
        break;
      }
      case kDemote: {  // owned vnodes demoted to a copy for their new owner
        std::vector<uint32_t> candidates;
        for (const auto& [v, state] : owned) candidates.push_back(v);
        if (candidates.empty()) break;
        ReleaseRequest demote;
        demote.op = kOp;
        demote.vnodes = some_of(candidates);
        demote.target = origin;
        demote.seq = ++stream_seq[origin];  // the new owner's reserved seq
        auto reply = call(MessageType::kDropVnodes, demote);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        for (uint32_t vnode : demote.vnodes) {
          held[vnode] = HeldModel{origin, demote.seq, owned[vnode]};
          owned.erase(vnode);
          ++demoted;
        }
        break;
      }
      case kRelabel: {  // a cold move's old holder hands copies on
        if (held.empty()) break;
        std::vector<uint32_t> copies;
        for (const auto& [v, copy] : held) copies.push_back(v);
        RelabelRequest relabel;
        relabel.op = kOp;
        relabel.origin = origin;
        relabel.target = origins[0] == origin ? origins[1] : origins[0];
        relabel.seq = ++stream_seq[relabel.target];
        for (uint32_t vnode : some_of(copies)) {
          // Mostly at the copy's seq; else one it is not at, or 0 (the
          // origin had unshipped writes).
          const uint64_t seq = held[vnode].seq;
          const uint64_t pick = next(4);
          relabel.shipped[vnode] = pick == 0 ? seq + 1 : pick == 1 ? 0 : seq;
        }
        ASSERT_TRUE(call(MessageType::kRelabelVnodes, relabel).ok());
        for (const auto& [vnode, shipped] : relabel.shipped) {
          HeldModel& copy = held[vnode];
          if (copy.origin != origin) continue;  // another origin's: kept
          if (shipped != 0 && shipped == copy.seq) {
            copy.origin = relabel.target;
            copy.seq = relabel.seq;
            ++relabelled;
          } else {
            held.erase(vnode);
            ++relabel_dropped;
          }
        }
        break;
      }
      case kDrop: {  // a drop of owned vnodes
        std::vector<uint32_t> candidates;
        for (const auto& [v, state] : owned) candidates.push_back(v);
        if (candidates.empty()) break;
        ReleaseRequest drop;
        drop.op = kOp;
        drop.vnodes = some_of(candidates);
        auto reply = call(MessageType::kDropVnodes, drop);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        auto released = ReleaseReply::Decode(*reply);
        ASSERT_TRUE(released.ok()) << released.status().ToString();
        // The last checkpoint drained the node's stream: each vnode's
        // holder has it as last shipped, unless a batch wrote it since.
        EXPECT_EQ(released->shipped.size(), drop.vnodes.size());
        for (uint32_t vnode : drop.vnodes) owned.erase(vnode);
        break;
      }
      case kBatch: {  // a batch into owned vnodes
        if (owned.empty()) break;
        ProcessBatchRequest req;
        req.op = kOp;
        req.batch.source_id = 0;
        req.batch.source_offset = offset++;
        for (uint64_t i = 0, n = 1 + next(20); i < n; ++i) {
          auto it = owned.begin();
          std::advance(it, next(owned.size()));
          const std::vector<uint64_t>& keys = keys_of[it->first];
          dataflow::Record rec;
          rec.key = keys[next(keys.size())];
          rec.size = 8;
          req.batch.records.push_back(rec);
          req.batch.count += 1;
          req.batch.bytes += rec.size;
          VnodeModel& state = it->second;
          auto row = state.rows.find(CounterKey(rec.key));
          if (row == state.rows.end()) {
            state.bytes += 16;
            state.rows[CounterKey(rec.key)] = CountValue(1);
          } else {
            row->second = CountValue(DecodeCount(row->second) + 1);
          }
          state.marks[0] = req.batch.source_offset + 1;
        }
        ASSERT_TRUE(call(MessageType::kProcessBatch, req).ok());
        break;
      }
    }

    // Every owned vnode is the model's state of it.
    if (!owned.empty()) {
      std::vector<uint32_t> vnodes;
      for (const auto& [v, state] : owned) vnodes.push_back(v);
      auto reply =
          call(MessageType::kExtractVnodes, ExtractOf(++handover_id, vnodes));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      auto images = DecodeVnodeImages(*reply);
      ASSERT_TRUE(images.ok()) << images.status().ToString();
      for (const auto& [vnode, state] : owned) {
        ASSERT_EQ(ImageState(*images, vnode), state) << "vnode " << vnode;
      }
    }
    // The node's size and stats count owned vnodes only.
    auto stats_body = node.Handle(MessageType::kStats, "");
    ASSERT_TRUE(stats_body.ok());
    auto stats = StatsReply::Decode(*stats_body);
    ASSERT_TRUE(stats.ok());
    uint64_t bytes = 0;
    for (const auto& [v, state] : owned) bytes += state.bytes;
    std::set<uint32_t> holders;
    for (const auto& [v, copy] : held) holders.insert(copy.origin);
    EXPECT_EQ(stats->state_bytes, bytes);
    EXPECT_EQ(stats->owned_vnodes, owned.size());
    EXPECT_EQ(stats->replicas_held, holders.size());
    // A checkpoint takes the checkpoint reader's keys of every owned vnode
    // and drains the stream, which takes the stream reader's: neither may
    // hold a held row's key. Every owned vnode's chain now ends in its
    // state.
    const CheckpointRequest checkpoint{++checkpoint_id};
    ASSERT_TRUE(call(MessageType::kCheckpoint, checkpoint).ok());
    for (const auto& [vnode, state] : owned) chains[vnode] = state;
    for (const char* gauge :
         {"rhino_repl_captured_keys", "rhino_checkpoint_captured_keys"}) {
      EXPECT_EQ(obs::Observability::Default()
                    ->metrics()
                    .GetGauge(gauge, {{"node", std::to_string(kNode)}})
                    ->value(),
                0.0)
          << gauge;
    }
  }
  // The rounds reach every source of a promoted vnode, and both ends of a
  // relabel.
  EXPECT_GT(from_copy, 0u);
  EXPECT_GT(from_chain, 0u);
  EXPECT_GT(from_nothing, 0u);
  EXPECT_GT(demoted, 0u);
  EXPECT_GT(relabelled, 0u);
  EXPECT_GT(relabel_dropped, 0u);
}

/// Appends one wave of tagged records to `part` (payload "<tag><key>").
void AppendTagged(broker::Partition* part, const std::string& tag) {
  dataflow::Batch batch;
  for (uint64_t key = 0; key < kNumKeys; ++key) {
    dataflow::Record rec;
    rec.key = key;
    rec.event_time = 1000;
    rec.size = 32;
    rec.payload = tag + std::to_string(key);
    batch.records.push_back(rec);
    batch.count += 1;
    batch.bytes += rec.size;
  }
  part->Append(std::move(batch));
}

TEST(DistClusterTest, SymmetricHashJoinHandoverAndKillExactlyOnce) {
  // The full Rhino story for a two-input operator: a symmetric hash join
  // sharded across 3 nodes, checkpointed, live-migrated mid-stream, then
  // one node killed and recovered — with an exactly-once audit of the
  // JOIN OUTPUTS (no result lost, none duplicated), not just the state.
  Cluster cluster;
  broker::Partition left{0};
  broker::Partition right{1};
  ASSERT_TRUE(cluster.driver->ConnectAll().ok());
  dataflow::OperatorSpec spec;
  spec.kind = dataflow::OperatorKind::kSymmetricHashJoin;
  spec.name = "join";
  spec.num_vnodes = kNumVnodes;
  spec.input_arity = 2;
  ASSERT_TRUE(cluster.driver->AddOperator(spec).ok());
  cluster.driver->AddPartition(&left);
  cluster.driver->AddPartition(&right);
  ASSERT_TRUE(cluster.driver->ConnectPartition("join", 0, /*side=*/0).ok());
  ASSERT_TRUE(cluster.driver->ConnectPartition("join", 1, /*side=*/1).ok());
  ASSERT_TRUE(cluster.driver->CollectOutputs("join").ok());

  // Wave 1 on both sides: the right wave probes the stored left wave, so
  // every key joins exactly once.
  AppendTagged(&left, "L1-");
  AppendTagged(&right, "R1-");
  auto pumped = cluster.driver->Pump();
  ASSERT_TRUE(pumped.ok()) << pumped.status().ToString();
  EXPECT_EQ(cluster.driver->OutputRecords("join").size(), kNumKeys);
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());

  // Live handover mid-stream: node 0's share of the join state (BOTH side
  // columns, one consistent image per vnode) moves to node 1.
  std::vector<uint32_t> moved = cluster.driver->VnodesOwnedBy("join", 0);
  ASSERT_FALSE(moved.empty());
  ASSERT_TRUE(cluster.driver->TriggerHandover("join", 0, 1, moved).ok());

  // Wave 2 on the left lands after checkpoint AND handover: each record
  // probes the (possibly migrated) right column.
  AppendTagged(&left, "L2-");
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // SIGKILL-equivalent: node 2 vanishes; recovery promotes its replica
  // (or falls back to the durable image) and replays the tail.
  cluster.transport.Kill("node2");
  EXPECT_EQ(cluster.driver->ProbeFailures(), (std::vector<uint32_t>{2}));
  ASSERT_TRUE(cluster.driver->RecoverNode(2).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();

  // Exactly-once audit over the actual join RESULTS: every expected
  // match present exactly once — records.lost == 0, no duplicates.
  auto outputs = cluster.driver->OutputRecords("join");
  EXPECT_EQ(outputs.size(), 2 * kNumKeys);
  std::map<std::string, int> seen;
  for (const auto& rec : outputs) seen[rec.payload] += 1;
  for (uint64_t key = 0; key < kNumKeys; ++key) {
    const std::string k = std::to_string(key);
    EXPECT_EQ(seen["L1-" + k + "|R1-" + k], 1) << "key " << key;
    EXPECT_EQ(seen["L2-" + k + "|R1-" + k], 1) << "key " << key;
  }
  // Per-side state survived migration + recovery exactly once too.
  for (uint64_t key = 0; key < kNumKeys; ++key) {
    auto state = cluster.driver->QueryState("join", key);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(state->left, 2u) << "key " << key;
    EXPECT_EQ(state->right, 1u) << "key " << key;
  }

  // Steady state on the survivors: a right wave joins both left waves.
  AppendTagged(&right, "R2-");
  ASSERT_TRUE(cluster.driver->Pump().ok());
  EXPECT_EQ(cluster.driver->OutputRecords("join").size(), 4 * kNumKeys);
}

TEST(DistClusterTest, OperatorEdgeFeedsDownstreamExactlyOnceThroughRecovery) {
  // counter -> counter through the driver-resident edge log: stage2's
  // input is stage1's OUTPUT stream, with its own source id, cursor, and
  // replay watermarks. Recovery of a node rewinds both the partition
  // input of stage1 and the edge input of stage2; the edge log replays
  // retained outputs, and dedup keeps both stages exact.
  Cluster cluster;
  ASSERT_TRUE(cluster.driver->ConnectAll().ok());
  ASSERT_TRUE(cluster.driver->AddOperator("stage1", kNumVnodes).ok());
  ASSERT_TRUE(cluster.driver->AddOperator("stage2", kNumVnodes).ok());
  cluster.driver->AddPartition(&cluster.partition);
  ASSERT_TRUE(cluster.driver->ConnectPartition("stage1", 0).ok());
  ASSERT_TRUE(cluster.driver->ConnectOperators("stage1", "stage2").ok());

  cluster.AppendWave();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ASSERT_TRUE(cluster.driver->Checkpoint().ok());
  cluster.AppendWave();  // post-checkpoint tail, must replay through BOTH
  ASSERT_TRUE(cluster.driver->Pump().ok());

  // stage1 emits one output record per applied input record, so stage2's
  // per-key count equals stage1's wave count.
  for (uint64_t key = 0; key < kNumKeys; ++key) {
    auto s1 = cluster.driver->QueryCount("stage1", key);
    auto s2 = cluster.driver->QueryCount("stage2", key);
    ASSERT_TRUE(s1.ok() && s2.ok());
    EXPECT_EQ(*s1, 3u);
    EXPECT_EQ(*s2, 3u);
  }

  cluster.transport.Kill("node1");
  ASSERT_TRUE(cluster.driver->RecoverNode(1).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  for (uint64_t key = 0; key < kNumKeys; ++key) {
    auto s1 = cluster.driver->QueryCount("stage1", key);
    auto s2 = cluster.driver->QueryCount("stage2", key);
    ASSERT_TRUE(s1.ok() && s2.ok());
    EXPECT_EQ(*s1, 4u) << "key " << key;
    EXPECT_EQ(*s2, 4u) << "key " << key;
  }
}

/// Wires stage1 (fed by the partition) -> stage2, both keyed counters.
void WireTwoStages(Cluster& cluster) {
  ASSERT_TRUE(cluster.driver->ConnectAll().ok());
  ASSERT_TRUE(cluster.driver->AddOperator("stage1", kNumVnodes).ok());
  ASSERT_TRUE(cluster.driver->AddOperator("stage2", kNumVnodes).ok());
  cluster.driver->AddPartition(&cluster.partition);
  ASSERT_TRUE(cluster.driver->ConnectPartition("stage1", 0).ok());
  ASSERT_TRUE(cluster.driver->ConnectOperators("stage1", "stage2").ok());
}

/// True for a stage1 batch that `reply` says applied records.
bool AppliedStage1Batch(MessageType type, std::string_view body,
                        const Result<std::string>& reply) {
  if (type != MessageType::kProcessBatch || !reply.ok()) return false;
  auto req = ProcessBatchRequest::Decode(body);
  auto rep = ProcessBatchReply::Decode(*reply);
  return req.ok() && rep.ok() && req->op == "stage1" && rep->applied > 0;
}

/// Both stages count every key exactly `waves` times.
void ExpectBothStages(Cluster& cluster, uint64_t waves) {
  for (uint64_t key = 0; key < kNumKeys; ++key) {
    for (const char* op : {"stage1", "stage2"}) {
      auto count = cluster.driver->QueryCount(op, key);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(*count, waves) << op << " key " << key;
    }
  }
}

TEST(DistClusterTest, LostBatchReplyKeepsEdgeOutputs) {
  // Node 0 applies a stage1 batch, but its reply never arrives. The
  // driver's replay is deduplicated there; the node answers it with the
  // outputs its first apply kept, so stage2 misses none of them.
  Cluster cluster;
  WireTwoStages(cluster);
  bool dropped = false;
  cluster.Tap(0, [&dropped](MessageType type, std::string_view body,
                            Result<std::string>& reply) {
    // Only the driver's thread sends batches; peers' replicators call too.
    if (AppliedStage1Batch(type, body, reply) && !dropped) {
      dropped = true;
      reply = Status::IOError("reply lost");
    }
  });
  cluster.AppendWave();
  EXPECT_FALSE(cluster.driver->Pump().ok());
  ASSERT_TRUE(dropped);
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GT(replayed->deduped, 0u);
  ExpectBothStages(cluster, 1);

  // Later waves trim the kept rows and stay exact.
  cluster.AppendWave();
  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ExpectBothStages(cluster, 3);
}

TEST(DistClusterTest, CrashBeforeBatchReplyKeepsEdgeOutputs) {
  // Node 1 applies a stage1 batch and its stream ships the result to the
  // holder, then the node dies before it replies. The holder's promoted
  // copy deduplicates the replay and answers it with the kept outputs.
  Cluster cluster;
  WireTwoStages(cluster);
  bool crashed = false;
  NodeServer* server = cluster.nodes[1].get();
  cluster.Tap(1, [&](MessageType type, std::string_view body,
                     Result<std::string>& reply) {
    if (!AppliedStage1Batch(type, body, reply) || crashed) return;
    crashed = true;
    for (int waited = 0; waited < 5000; waited += 5) {
      auto stats = StatsReply::Decode(*server->Handle(MessageType::kStats, {}));
      if (stats.ok() && stats->repl_dirty == 0 && stats->repl_inflight == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    cluster.transport.Kill("node1");
    reply = Status::IOError("node died before replying");
  });
  cluster.AppendWave();
  EXPECT_FALSE(cluster.driver->Pump().ok());
  ASSERT_TRUE(crashed);
  EXPECT_EQ(cluster.driver->ProbeFailures(), (std::vector<uint32_t>{1}));
  ASSERT_TRUE(cluster.driver->RecoverNode(1).ok());
  auto replayed = cluster.driver->Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectBothStages(cluster, 1);

  cluster.AppendWave();
  ASSERT_TRUE(cluster.driver->Pump().ok());
  ExpectBothStages(cluster, 2);
}

TEST(DistClusterTest, ModeledOperatorIsRefused) {
  // Modeled operators count bytes and store no values; only the simulator
  // hosts them.
  Cluster cluster;
  ASSERT_TRUE(cluster.driver->ConnectAll().ok());
  dataflow::OperatorSpec spec;
  spec.kind = dataflow::OperatorKind::kModeledState;
  spec.name = "modeled";
  spec.num_vnodes = kNumVnodes;
  EXPECT_EQ(cluster.driver->AddOperator(spec).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rhino::net
