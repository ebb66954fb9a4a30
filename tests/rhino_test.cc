#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "broker/broker.h"
#include "dataflow/engine.h"
#include "dataflow/graph.h"
#include "dataflow/sink.h"
#include "dataflow/source.h"
#include "dataflow/stateful.h"
#include "lsm/env.h"
#include "rhino/checkpoint_storage.h"
#include "rhino/handover_manager.h"
#include "rhino/replication_manager.h"
#include "rhino/replication_runtime.h"
#include "sim/simulation.h"
#include "state/lsm_state_backend.h"

namespace rhino::rhino {
namespace {

using dataflow::Batch;
using dataflow::Engine;
using dataflow::EngineOptions;
using dataflow::ExecutionGraph;
using dataflow::HandoverMove;
using dataflow::ProcessingProfile;
using dataflow::QueryDef;
using dataflow::Record;

/// A whole image of `vnode` whose run is `entries`.
state::VnodeImage Image(uint32_t vnode, std::string entries) {
  state::VnodeImage image;
  image.vnode = vnode;
  image.entries = std::move(entries);
  return image;
}

// ---------------------------------------------------- ReplicationManager --

TEST(ReplicationManagerTest, GroupsExcludeHomeAndHaveSizeR) {
  ReplicationManager rm({0, 1, 2, 3}, /*r=*/2);
  rm.BuildGroups({{"join", 0, 0, 100},
                  {"join", 1, 1, 100},
                  {"join", 2, 2, 100},
                  {"join", 3, 3, 100}});
  for (uint32_t i = 0; i < 4; ++i) {
    const auto& group = rm.Group("join", i);
    ASSERT_EQ(group.size(), 2u);
    std::set<int> distinct(group.begin(), group.end());
    EXPECT_EQ(distinct.size(), 2u);
    EXPECT_FALSE(distinct.count(static_cast<int>(i)))
        << "secondary copies must live off the home worker";
  }
}

TEST(ReplicationManagerTest, BinPackingBalancesLoad) {
  ReplicationManager rm({0, 1, 2, 3, 4, 5, 6, 7}, 1);
  std::vector<InstanceInfo> instances;
  for (uint32_t i = 0; i < 64; ++i) {
    instances.push_back({"join", i, static_cast<int>(i % 8), 1000});
  }
  rm.BuildGroups(instances);
  uint64_t min_load = ~0ull, max_load = 0;
  for (int w = 0; w < 8; ++w) {
    min_load = std::min(min_load, rm.WorkerLoad(w));
    max_load = std::max(max_load, rm.WorkerLoad(w));
  }
  EXPECT_EQ(min_load, max_load) << "equal weights must pack evenly";
  EXPECT_EQ(max_load, 8 * 1000u);
}

TEST(ReplicationManagerTest, SkewedWeightsStayBalanced) {
  ReplicationManager rm({0, 1, 2, 3}, 1);
  std::vector<InstanceInfo> instances;
  for (uint32_t i = 0; i < 16; ++i) {
    instances.push_back({"op", i, static_cast<int>(i % 4),
                         (i % 4 == 0) ? 8000ull : 1000ull});
  }
  rm.BuildGroups(instances);
  uint64_t total = 0, max_load = 0;
  for (int w = 0; w < 4; ++w) {
    total += rm.WorkerLoad(w);
    max_load = std::max(max_load, rm.WorkerLoad(w));
  }
  EXPECT_LT(max_load, total / 4 * 2) << "no worker hoards the heavy copies";
}

TEST(ReplicationManagerTest, FailureRepairReplacesWorker) {
  ReplicationManager rm({0, 1, 2, 3}, 1);
  rm.BuildGroups({{"op", 0, 0, 100}, {"op", 1, 1, 100}});
  int replica_of_0 = rm.Group("op", 0)[0];
  auto repairs = rm.HandleWorkerFailure(replica_of_0);
  const auto& group = rm.Group("op", 0);
  ASSERT_EQ(group.size(), 1u);
  EXPECT_NE(group[0], replica_of_0);
  EXPECT_NE(group[0], 0) << "replacement must still avoid the home worker";
  // The repair names the substitute so the runtime can catch it up.
  ASSERT_EQ(repairs.size(), 1u);
  EXPECT_EQ(repairs[0].op_name, "op");
  EXPECT_EQ(repairs[0].subtask, 0u);
  EXPECT_EQ(repairs[0].substitute, group[0]);
}

TEST(ReplicationManagerTest, CascadingFailuresDegradeGracefully) {
  // 3 workers, r=2: after one failure no eligible substitute remains for
  // home 0 (the survivors are the home and the remaining member), so the
  // group shrinks instead of the process aborting.
  ReplicationManager rm({0, 1, 2}, 2);
  rm.BuildGroups({{"op", 0, 0, 100}});
  ASSERT_EQ(rm.Group("op", 0).size(), 2u);
  auto repairs = rm.HandleWorkerFailure(2);
  ASSERT_EQ(repairs.size(), 1u);
  EXPECT_EQ(repairs[0].substitute, -1) << "no substitute exists";
  EXPECT_EQ(rm.Group("op", 0).size(), 1u);
  ASSERT_EQ(rm.degraded_groups().size(), 1u);
  EXPECT_EQ(rm.degraded_groups()[0], "op#0");

  // Rebuilding with the shrunken worker set also degrades without dying.
  rm.BuildGroups({{"op", 0, 0, 100}});
  EXPECT_EQ(rm.Group("op", 0).size(), 1u);
  EXPECT_EQ(rm.degraded_groups().size(), 1u);
}

// ---------------------------------------------------- ReplicationRuntime --

class ReplicationRuntimeTest : public ::testing::Test {
 protected:
  ReplicationRuntimeTest() : cluster_(&sim_, 4, Spec()), rm_({0, 1, 2, 3}, 2) {
    rm_.BuildGroups({{"op", 0, 0, 100}});
  }
  static sim::NodeSpec Spec() {
    sim::NodeSpec spec;
    spec.net_bytes_per_sec = 1e9;
    spec.disk_write_bytes_per_sec = 1e9;
    spec.net_latency = 0;
    return spec;
  }
  state::CheckpointDescriptor Desc(uint64_t id, uint64_t delta) {
    state::CheckpointDescriptor desc;
    desc.checkpoint_id = id;
    desc.operator_name = "op";
    desc.instance_id = 0;
    desc.files = {{"base", 0}, {"delta-" + std::to_string(id), delta}};
    desc.delta_files = {{"delta-" + std::to_string(id), delta}};
    return desc;
  }
  sim::Simulation sim_;
  sim::Cluster cluster_;
  ReplicationManager rm_;
};

TEST_F(ReplicationRuntimeTest, ChainDeliversToAllReplicas) {
  ReplicationRuntime runtime(&cluster_, &rm_);
  bool done = false;
  runtime.ReplicateCheckpoint("op", 0, 0, Desc(1, 64 * kMiB),
                              {{0, Image(0, "run0")}, {1, Image(1, "run1")}},
                              [&](Status st) {
                                EXPECT_TRUE(st.ok());
                                done = true;
                              });
  sim_.Run();
  EXPECT_TRUE(done);
  for (int node : rm_.Group("op", 0)) {
    const ReplicaState* rep = runtime.ReplicaOn("op", 0, node);
    ASSERT_NE(rep, nullptr) << "node " << node;
    EXPECT_EQ(rep->latest_checkpoint_id, 1u);
    EXPECT_EQ(rep->images.at(0).entries, "run0");
  }
  EXPECT_EQ(runtime.ReplicaOn("op", 0, 0), nullptr) << "home holds primary";
  // Two hops of 64 MiB each.
  EXPECT_EQ(runtime.bytes_replicated(), 2 * 64 * kMiB);
}

TEST_F(ReplicationRuntimeTest, PipeliningBeatsStoreAndForward) {
  ReplicationRuntime runtime(&cluster_, &rm_);
  SimTime completed = 0;
  runtime.ReplicateCheckpoint("op", 0, 0, Desc(1, 256 * kMiB), {},
                              [&](Status) { completed = sim_.Now(); });
  sim_.Run();
  // Store-and-forward over 2 hops would take >= 2 * bytes/bw (plus the
  // disk writes). Chain replication pipelines chunks, so the total is
  // close to one transfer time plus a small pipeline ramp.
  double one_hop_secs = 256.0 * kMiB / 1e9;
  EXPECT_LT(ToSeconds(completed), 1.6 * one_hop_secs);
  EXPECT_GT(ToSeconds(completed), one_hop_secs);
}

TEST_F(ReplicationRuntimeTest, CreditWindowBoundsInFlightChunks) {
  ReplicationOptions options;
  options.credit_window = 2;
  ReplicationRuntime runtime(&cluster_, &rm_, options);
  runtime.ReplicateCheckpoint("op", 0, 0, Desc(1, 128 * kMiB), {},
                              [](Status) {});
  sim_.Run();
  EXPECT_LE(runtime.max_in_flight_chunks(), 2);
}

TEST_F(ReplicationRuntimeTest, EmptyDeltaCompletesWithoutTransfer) {
  ReplicationRuntime runtime(&cluster_, &rm_);
  bool done = false;
  auto desc = Desc(2, 0);
  desc.delta_files.clear();
  runtime.ReplicateCheckpoint("op", 0, 0, desc, {}, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(runtime.bytes_replicated(), 0u);
  ASSERT_NE(runtime.ReplicaOn("op", 0, rm_.Group("op", 0)[0]), nullptr);
}

TEST_F(ReplicationRuntimeTest, ChainMemberCrashAbortsWithError) {
  ReplicationRuntime runtime(&cluster_, &rm_);
  // Kill the mid-chain member three chunks into the transfer: the done
  // callback must fire with an error instead of the chain hanging.
  int victim = rm_.Group("op", 0)[0];
  uint64_t chunks_seen = 0;
  runtime.SetFaultProbe([&](const std::string& event) {
    if (event == "replication_chunk" && ++chunks_seen == 3) {
      sim_.Schedule(0, [&, victim] { cluster_.FailNode(victim); });
    }
  });
  bool done = false;
  Status status;
  runtime.ReplicateCheckpoint("op", 0, 0, Desc(1, 64 * kMiB),
                              {{0, Image(0, "run")}}, [&](Status st) {
                                done = true;
                                status = st;
                              });
  sim_.Run();
  ASSERT_TRUE(done) << "chain transfer hung on the dead member";
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(runtime.transfers_aborted(), 1u);
  // The catalog never advertises the dead node.
  EXPECT_EQ(runtime.ReplicaOn("op", 0, victim), nullptr);
}

TEST_F(ReplicationRuntimeTest, PurgeNodeDropsCatalogEntries) {
  ReplicationRuntime runtime(&cluster_, &rm_);
  runtime.SeedReplica("op", 0, Desc(5, 1 * kGiB), {{3, Image(3, "run")}});
  int member = rm_.Group("op", 0)[0];
  ASSERT_NE(runtime.ReplicaOn("op", 0, member), nullptr);
  runtime.PurgeNode(member);
  // The node is still alive — the nullptr proves the entry itself is gone.
  ASSERT_TRUE(cluster_.node(member).alive());
  EXPECT_EQ(runtime.ReplicaOn("op", 0, member), nullptr);
}

TEST_F(ReplicationRuntimeTest, SeedReplicaRegistersWithoutIo) {
  ReplicationRuntime runtime(&cluster_, &rm_);
  runtime.SeedReplica("op", 0, Desc(5, 1 * kGiB), {{3, Image(3, "run")}});
  EXPECT_EQ(sim_.PendingEvents(), 0u);
  const ReplicaState* rep = runtime.ReplicaOn("op", 0, rm_.Group("op", 0)[0]);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->latest_checkpoint_id, 5u);
}

// ----------------------------------------------------- end-to-end Rhino --

/// Full stack: engine + RM + replication runtime + HM + Rhino storage over
/// a 5-node cluster (node 0 = broker, 1-4 = workers).
class RhinoEndToEndTest : public ::testing::Test {
 protected:
  static constexpr int kPartitions = 2;

  RhinoEndToEndTest()
      : cluster_(&sim_, 5),
        broker_({0}),
        engine_(&cluster_, &broker_, SmallEngineOptions()),
        rm_({1, 2, 3, 4}, 1),
        runtime_(&cluster_, &rm_),
        storage_(&cluster_, &runtime_),
        hm_(&engine_, &rm_, &runtime_) {
    broker_.CreateTopic("events", kPartitions);
    engine_.SetCheckpointStorage(&storage_);
  }

  static EngineOptions SmallEngineOptions() {
    EngineOptions opts;
    opts.num_key_groups = 64;
    opts.vnodes_per_instance = 2;
    return opts;
  }

  void BuildCounterQuery(int parallelism = 4) {
    QueryDef def;
    def.AddSource("src", "events", kPartitions)
        .AddStateful("counter", parallelism, {"src"},
                     [this](Engine* engine, int subtask, int node) {
                       auto backend = state::LsmStateBackend::Open(
                           &env_, "/state/c" + std::to_string(subtask),
                           "counter", static_cast<uint32_t>(subtask));
                       RHINO_CHECK(backend.ok());
                       return std::make_unique<dataflow::KeyedCounterOperator>(
                           engine, "counter", subtask, node,
                           ProcessingProfile(), std::move(backend).MoveValue());
                     })
        .AddSink("sink", 1, {"counter"});
    graph_ = ExecutionGraph::Build(&engine_, def, {1, 2, 3, 4});
    graph_->sinks("sink")[0]->SetCollector([this](const Record& r) {
      uint64_t c = std::stoull(r.payload);
      if (c > counts_[r.key]) counts_[r.key] = c;
    });

    std::vector<InstanceInfo> infos;
    for (auto* inst : graph_->stateful("counter")) {
      infos.push_back({"counter", static_cast<uint32_t>(inst->subtask()),
                       inst->node_id(), 1});
    }
    rm_.BuildGroups(infos);
    graph_->StartSources();
  }

  void ProduceWave(uint64_t keys) {
    for (uint64_t key = 0; key < keys; ++key) {
      Batch batch;
      batch.create_time = sim_.Now();
      batch.count = 1;
      batch.bytes = 8;
      batch.records.push_back(Record{key, sim_.Now(), 8, "x"});
      broker_.topic("events")
          .partition(static_cast<int>(key) % kPartitions)
          .Append(std::move(batch));
    }
  }

  sim::Simulation sim_;
  sim::Cluster cluster_;
  broker::Broker broker_;
  lsm::MemEnv env_;
  Engine engine_;
  ReplicationManager rm_;
  ReplicationRuntime runtime_;
  RhinoCheckpointStorage storage_;
  HandoverManager hm_;
  std::unique_ptr<ExecutionGraph> graph_;
  std::map<uint64_t, uint64_t> counts_;
};

TEST_F(RhinoEndToEndTest, CheckpointReplicatesToReplicaGroups) {
  BuildCounterQuery();
  ProduceWave(40);
  sim_.Run();
  engine_.TriggerCheckpoint();
  sim_.Run();

  ASSERT_NE(engine_.LastCompletedCheckpoint(), nullptr);
  EXPECT_EQ(runtime_.checkpoints_replicated(), 4u) << "one per instance";
  for (auto* inst : graph_->stateful("counter")) {
    auto subtask = static_cast<uint32_t>(inst->subtask());
    for (int node : rm_.Group("counter", subtask)) {
      const ReplicaState* rep = runtime_.ReplicaOn("counter", subtask, node);
      ASSERT_NE(rep, nullptr);
      EXPECT_EQ(rep->latest_checkpoint_id,
                engine_.LastCompletedCheckpoint()->id);
      EXPECT_FALSE(rep->images.empty());
    }
  }
}

TEST_F(RhinoEndToEndTest, LoadBalanceMovesHalfTheVnodes) {
  BuildCounterQuery();
  ProduceWave(40);
  sim_.Run();
  engine_.TriggerCheckpoint();
  sim_.Run();

  size_t before = graph_->stateful("counter")[0]->owned_vnodes().size();
  uint64_t id = hm_.TriggerLoadBalance("counter", 0, 1, 0.5);
  sim_.Run();

  ASSERT_FALSE(engine_.handovers().empty());
  EXPECT_TRUE(engine_.handovers().back().completed);
  EXPECT_EQ(graph_->stateful("counter")[0]->owned_vnodes().size(), before / 2);
  const HandoverStats* stats = hm_.StatsFor(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->local_fetch)
      << "the target worker is in the replica group; only the tail moves";
}

TEST_F(RhinoEndToEndTest, LoadBalancePreservesCounts) {
  BuildCounterQuery();
  ProduceWave(30);
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  engine_.TriggerCheckpoint();
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  hm_.TriggerLoadBalance("counter", 0, 1, 1.0);  // move everything
  ProduceWave(30);
  sim_.Run();

  for (uint64_t key = 0; key < 30; ++key) {
    EXPECT_EQ(counts_[key], 2u) << "key " << key;
  }
}

TEST_F(RhinoEndToEndTest, FailureRecoveryIsExactlyOnce) {
  BuildCounterQuery();
  ProduceWave(30);
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  engine_.TriggerCheckpoint();
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  ASSERT_NE(engine_.LastCompletedCheckpoint(), nullptr);

  // Records after the checkpoint are the interesting case: they are lost
  // with the failed instance and must be replayed from the broker.
  ProduceWave(30);
  sim_.RunUntil(sim_.Now() + 2 * kSecond);

  engine_.FailNode(1);
  auto handovers = hm_.RecoverFailedNode(1);
  ASSERT_FALSE(handovers.empty());
  sim_.RunUntil(sim_.Now() + 5 * kSecond);

  ProduceWave(30);
  sim_.Run();

  for (const auto& record : engine_.handovers()) {
    EXPECT_TRUE(record.completed);
  }
  // Every key was produced three times; no count may be lost or doubled.
  for (uint64_t key = 0; key < 30; ++key) {
    EXPECT_EQ(counts_[key], 3u) << "key " << key;
  }
  // The failed instance's vnodes found a new owner.
  EXPECT_TRUE(graph_->stateful("counter")[0]->halted());
  for (uint32_t v = 0;
       v < engine_.routing("counter")->map().num_vnodes(); ++v) {
    EXPECT_NE(engine_.routing("counter")->InstanceForVnode(v), 0u);
  }
}

TEST_F(RhinoEndToEndTest, TargetCrashMidHandoverDoesNotWedge) {
  BuildCounterQuery();
  ProduceWave(30);
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  engine_.TriggerCheckpoint();
  sim_.RunUntil(sim_.Now() + 2 * kSecond);

  // Move everything from instance 0 to instance 1, then kill the target's
  // node while the transfer is in flight.
  int victim = graph_->stateful("counter")[1]->node_id();
  hm_.TriggerLoadBalance("counter", 0, 1, 1.0);
  sim_.Schedule(5 * kMillisecond, [&] {
    engine_.FailNode(victim);
    sim_.Schedule(200 * kMillisecond, [&, victim] {
      hm_.RecoverFailedNode(victim);
    });
  });
  sim_.RunUntil(sim_.Now() + 10 * kSecond);
  ProduceWave(30);
  sim_.Run();

  for (const auto& record : engine_.handovers()) {
    EXPECT_TRUE(record.completed) << "handover " << record.spec->id;
  }
  for (uint64_t key = 0; key < 30; ++key) {
    EXPECT_EQ(counts_[key], 2u) << "key " << key;
  }
  // No vnode may end up owned by the dead instance.
  for (uint32_t v = 0; v < engine_.routing("counter")->map().num_vnodes();
       ++v) {
    uint32_t inst = engine_.routing("counter")->InstanceForVnode(v);
    EXPECT_FALSE(graph_->stateful("counter")[inst]->halted()) << "vnode " << v;
  }
}

TEST_F(RhinoEndToEndTest, RecoveryStatsShowLocalFetch) {
  BuildCounterQuery();
  ProduceWave(40);
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  engine_.TriggerCheckpoint();
  sim_.RunUntil(sim_.Now() + 2 * kSecond);

  engine_.FailNode(2);
  auto ids = hm_.RecoverFailedNode(2);
  sim_.Run();

  ASSERT_EQ(ids.size(), 1u);
  const HandoverStats* stats = hm_.StatsFor(ids[0]);
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->local_fetch);
  // Local fetch is hard-linking: fast and size-independent (paper ~0.2 s).
  EXPECT_LE(stats->state_fetch_us, kSecond);
  EXPECT_GT(stats->state_load_us, 0);
}

}  // namespace
}  // namespace rhino::rhino
