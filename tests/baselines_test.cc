#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "baselines/flink_restart.h"
#include "baselines/megaphone.h"
#include "broker/broker.h"
#include "dataflow/engine.h"
#include "dataflow/graph.h"
#include "dataflow/sink.h"
#include "dataflow/stateful.h"
#include "dfs/dfs.h"
#include "lsm/env.h"
#include "rhino/checkpoint_storage.h"
#include "sim/simulation.h"
#include "state/lsm_state_backend.h"

namespace rhino::baselines {
namespace {

using dataflow::Batch;
using dataflow::Engine;
using dataflow::EngineOptions;
using dataflow::ExecutionGraph;
using dataflow::ProcessingProfile;
using dataflow::QueryDef;
using dataflow::Record;

// ------------------------------------------------------------- Megaphone --

TEST(MegaphoneModelTest, MemoryCeilingMatchesPaper) {
  sim::Simulation sim;
  sim::NodeSpec spec;  // 64 GiB per node
  sim::Cluster cluster(&sim, 8, spec);
  MegaphoneModel model(&cluster, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_TRUE(model.FitsMemory(250 * kGiB));
  EXPECT_TRUE(model.FitsMemory(500 * kGiB));
  EXPECT_FALSE(model.FitsMemory(750 * kGiB)) << "paper: OOM at >= 750 GB";
  EXPECT_FALSE(model.FitsMemory(1000 * kGiB));
}

TEST(MegaphoneModelTest, MigrationTimeScalesWithState) {
  sim::Simulation sim;
  sim::Cluster cluster(&sim, 8);
  MegaphoneModel model(&cluster, {0, 1, 2, 3, 4, 5, 6, 7});
  std::map<uint64_t, SimTime> durations;
  for (uint64_t size : {64ull * kGiB, 128ull * kGiB}) {
    std::map<int, uint64_t> per_origin;
    for (int n = 0; n < 8; ++n) per_origin[n] = size / 8;
    MegaphoneResult result;
    bool done = false;
    model.Migrate(per_origin, size, 1 << 15, [&](MegaphoneResult r) {
      result = r;
      done = true;
    });
    sim.Run();
    ASSERT_TRUE(done);
    EXPECT_FALSE(result.oom);
    durations[size] = result.duration_us;
  }
  EXPECT_GT(durations[128ull * kGiB], durations[64ull * kGiB]);
  EXPECT_NEAR(static_cast<double>(durations[128ull * kGiB]) /
                  static_cast<double>(durations[64ull * kGiB]),
              2.0, 0.3)
      << "migration is throughput-bound: time ~ linear in state";
}

TEST(MegaphoneModelTest, OomReportedWithoutTransfers) {
  sim::Simulation sim;
  sim::Cluster cluster(&sim, 8);
  MegaphoneModel model(&cluster, {0, 1, 2, 3, 4, 5, 6, 7});
  MegaphoneResult result;
  model.Migrate({{0, kGiB}}, 1000 * kGiB, 1 << 15,
                [&](MegaphoneResult r) { result = r; });
  sim.Run();
  EXPECT_TRUE(result.oom);
  EXPECT_EQ(result.bytes_moved, 0u);
}

// --------------------------------------------------------- Flink restart --

class FlinkRestartTest : public ::testing::Test {
 protected:
  FlinkRestartTest()
      : cluster_(&sim_, 5),
        broker_({0}),
        engine_(&cluster_, &broker_, SmallEngineOptions()),
        dfs_(&cluster_, {1, 2, 3, 4}),
        storage_(&cluster_, &dfs_) {
    broker_.CreateTopic("events", 2);
    engine_.SetCheckpointStorage(&storage_);
  }

  static EngineOptions SmallEngineOptions() {
    EngineOptions opts;
    opts.num_key_groups = 64;
    opts.vnodes_per_instance = 2;
    return opts;
  }

  void BuildQuery() {
    QueryDef def;
    def.AddSource("src", "events", 2)
        .AddStateful("counter", 4, {"src"},
                     [this](Engine* eng, int subtask, int node) {
                       auto backend = state::LsmStateBackend::Open(
                           &env_, "/state/c" + std::to_string(subtask),
                           "counter", static_cast<uint32_t>(subtask));
                       RHINO_CHECK(backend.ok());
                       return std::make_unique<dataflow::KeyedCounterOperator>(
                           eng, "counter", subtask, node, ProcessingProfile(),
                           std::move(backend).MoveValue());
                     })
        .AddSink("sink", 1, {"counter"});
    graph_ = ExecutionGraph::Build(&engine_, def, {1, 2, 3, 4});
    graph_->sinks("sink")[0]->SetCollector([this](const Record& r) {
      uint64_t c = std::stoull(r.payload);
      if (c > counts_[r.key]) counts_[r.key] = c;
    });
    controller_ = std::make_unique<FlinkRestartController>(
        &engine_, &storage_, [this](const std::string& op, uint32_t subtask) {
          auto backend = state::LsmStateBackend::Open(
              &env_, "/state/restored-" + op + "-" + std::to_string(subtask) +
                         "-" + std::to_string(generation_++),
              op, subtask);
          RHINO_CHECK(backend.ok());
          return std::move(backend).MoveValue();
        });
    graph_->StartSources();
  }

  void ProduceWave(uint64_t keys) {
    for (uint64_t key = 0; key < keys; ++key) {
      Batch b;
      b.create_time = sim_.Now();
      b.count = 1;
      b.bytes = 8;
      b.records.push_back(Record{key, sim_.Now(), 8, "x"});
      broker_.topic("events").partition(static_cast<int>(key % 2)).Append(
          std::move(b));
    }
  }

  sim::Simulation sim_;
  sim::Cluster cluster_;
  broker::Broker broker_;
  lsm::MemEnv env_;
  Engine engine_;
  dfs::DistributedFileSystem dfs_;
  rhino::DfsCheckpointStorage storage_;
  std::unique_ptr<ExecutionGraph> graph_;
  std::unique_ptr<FlinkRestartController> controller_;
  std::map<uint64_t, uint64_t> counts_;
  int generation_ = 0;
};

TEST_F(FlinkRestartTest, RestartRestoresCheckpointAndReplays) {
  BuildQuery();
  ProduceWave(20);
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  engine_.TriggerCheckpoint();
  sim_.RunUntil(sim_.Now() + 5 * kSecond);
  ASSERT_NE(engine_.LastCompletedCheckpoint(), nullptr);

  // Post-checkpoint records are only in the upstream backup.
  ProduceWave(20);
  sim_.RunUntil(sim_.Now() + 2 * kSecond);

  engine_.FailNode(1);
  bool finished = false;
  RestartBreakdown breakdown;
  controller_->RestartFromLastCheckpoint(1, [&](RestartBreakdown b) {
    breakdown = b;
    finished = true;
  });
  sim_.Run();
  ASSERT_TRUE(finished);
  EXPECT_GT(breakdown.scheduling_us, 0);
  EXPECT_GT(breakdown.state_load_us, 0);

  ProduceWave(20);
  sim_.Run();

  // Exactly-once state semantics across the restart: each key counted 3x.
  for (uint64_t key = 0; key < 20; ++key) {
    EXPECT_EQ(counts_[key], 3u) << "key " << key;
  }
}

TEST_F(FlinkRestartTest, RestartWithoutFailureAlsoWorks) {
  BuildQuery();
  ProduceWave(10);
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  engine_.TriggerCheckpoint();
  sim_.RunUntil(sim_.Now() + 5 * kSecond);

  bool finished = false;
  controller_->RestartFromLastCheckpoint(-1,
                                         [&](RestartBreakdown) { finished = true; });
  sim_.Run();
  ASSERT_TRUE(finished);

  ProduceWave(10);
  sim_.Run();
  for (uint64_t key = 0; key < 10; ++key) {
    EXPECT_EQ(counts_[key], 2u) << "key " << key;
  }
}

// A rebalance (`Testbed::TriggerLoadBalance` for Flink) reassigns vnodes
// and restarts: each moved vnode comes back at its new owner from the
// entry of the instance that checkpointed it, and no state is lost.
TEST_F(FlinkRestartTest, RestartAfterARebalanceRestoresMovedVnodes) {
  BuildQuery();
  ProduceWave(64);
  sim_.RunUntil(sim_.Now() + 2 * kSecond);
  engine_.TriggerCheckpoint();
  sim_.RunUntil(sim_.Now() + 5 * kSecond);
  ASSERT_NE(engine_.LastCompletedCheckpoint(), nullptr);

  uint64_t checkpointed = 0;
  std::map<uint32_t, uint64_t> vnode_bytes;
  for (dataflow::StatefulInstance* inst : graph_->stateful("counter")) {
    checkpointed += inst->backend()->SizeBytes();
    for (uint32_t v : inst->owned_vnodes()) {
      vnode_bytes[v] = inst->backend()->VnodeBytes(v);
    }
  }
  ASSERT_GT(checkpointed, 0u);

  // Instances 0 and 1 each give half their vnodes to instances 2 and 3.
  auto* table = engine_.routing("counter");
  std::map<uint32_t, uint32_t> moved;  // vnode -> new owner
  for (uint32_t origin : {0u, 1u}) {
    auto vnodes = table->VnodesOfInstance(origin);
    vnodes.resize(vnodes.size() / 2);
    for (uint32_t v : vnodes) {
      table->Assign(v, origin + 2);
      moved[v] = origin + 2;
    }
  }
  ASSERT_FALSE(moved.empty());
  engine_.ReinitKeyedGates("counter");
  for (dataflow::StatefulInstance* inst : graph_->stateful("counter")) {
    inst->InitOwnedVnodes(
        table->VnodesOfInstance(static_cast<uint32_t>(inst->subtask())));
  }

  bool finished = false;
  controller_->RestartFromLastCheckpoint(
      -1, [&](RestartBreakdown) { finished = true; });
  sim_.Run();
  ASSERT_TRUE(finished);

  uint64_t restored = 0;
  for (dataflow::StatefulInstance* inst : graph_->stateful("counter")) {
    restored += inst->backend()->SizeBytes();
  }
  EXPECT_EQ(restored, checkpointed);
  const auto& instances = graph_->stateful("counter");
  for (const auto& [v, owner] : moved) {
    ASSERT_EQ(instances[owner]->subtask(), static_cast<int>(owner));
    EXPECT_GT(vnode_bytes[v], 0u) << "vnode " << v;
    EXPECT_EQ(instances[owner]->backend()->VnodeBytes(v), vnode_bytes[v])
        << "vnode " << v << " at instance " << owner;
  }
}

}  // namespace
}  // namespace rhino::baselines
