#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "broker/broker.h"
#include "dataflow/engine.h"
#include "dataflow/graph.h"
#include "dataflow/sink.h"
#include "dataflow/source.h"
#include "dataflow/stateful.h"
#include "lsm/env.h"
#include "sim/simulation.h"
#include "state/lsm_state_backend.h"

namespace rhino::dataflow {
namespace {

/// Harness: 1 broker node + 3 worker nodes, one topic, and helpers to
/// build small real-mode pipelines.
class DataflowTest : public ::testing::Test {
 protected:
  static constexpr int kBrokerNode = 0;
  static constexpr int kPartitions = 2;

  DataflowTest()
      : cluster_(&sim_, 4),
        broker_({kBrokerNode}),
        engine_(&cluster_, &broker_, SmallEngineOptions()) {
    broker_.CreateTopic("events", kPartitions);
    broker_.CreateTopic("left", kPartitions);
    broker_.CreateTopic("right", kPartitions);
  }

  static EngineOptions SmallEngineOptions() {
    EngineOptions opts;
    opts.num_key_groups = 64;
    opts.vnodes_per_instance = 2;
    return opts;
  }

  StatefulFactory CounterFactory() {
    return [this](Engine* engine, int subtask, int node) {
      auto backend = state::LsmStateBackend::Open(
          &env_, "/state/counter-" + std::to_string(subtask), "counter",
          static_cast<uint32_t>(subtask));
      RHINO_CHECK(backend.ok());
      return std::make_unique<KeyedCounterOperator>(
          engine, "counter", subtask, node, ProcessingProfile(),
          std::move(backend).MoveValue());
    };
  }

  StatefulFactory JoinFactory() {
    return [this](Engine* engine, int subtask, int node) {
      auto backend = state::LsmStateBackend::Open(
          &env_, "/state/join-" + std::to_string(subtask), "join",
          static_cast<uint32_t>(subtask));
      RHINO_CHECK(backend.ok());
      return std::make_unique<SymmetricHashJoinOperator>(
          engine, "join", subtask, node, ProcessingProfile(),
          std::move(backend).MoveValue());
    };
  }

  /// Appends a single-record batch to a topic partition.
  void Produce(const std::string& topic, int partition, uint64_t key,
               const std::string& payload) {
    Batch batch;
    batch.create_time = sim_.Now();
    batch.count = 1;
    batch.bytes = payload.size();
    Record r;
    r.key = key;
    r.event_time = sim_.Now();
    r.size = static_cast<uint32_t>(payload.size());
    r.payload = payload;
    batch.records.push_back(std::move(r));
    broker_.topic(topic).partition(partition).Append(std::move(batch));
  }

  sim::Simulation sim_;
  sim::Cluster cluster_;
  broker::Broker broker_;
  lsm::MemEnv env_;
  Engine engine_;
};

TEST_F(DataflowTest, SourceToSinkDeliversAllRecords) {
  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", 2, {"src"}, CounterFactory())
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});
  graph->StartSources();

  for (int i = 0; i < 50; ++i) {
    Produce("events", i % kPartitions, static_cast<uint64_t>(i % 10), "x");
  }
  sim_.Run();

  // Every input record produces exactly one (key, count) output record.
  EXPECT_EQ(graph->sinks("sink")[0]->records_consumed(), 50u);
}

TEST_F(DataflowTest, CounterStateAccumulatesPerKey) {
  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", 2, {"src"}, CounterFactory())
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});

  std::map<uint64_t, uint64_t> final_count;
  graph->sinks("sink")[0]->SetCollector([&](const Record& r) {
    uint64_t count = std::stoull(r.payload);
    if (count > final_count[r.key]) final_count[r.key] = count;
  });
  graph->StartSources();

  for (int i = 0; i < 60; ++i) {
    Produce("events", i % kPartitions, static_cast<uint64_t>(i % 3), "x");
  }
  sim_.Run();

  EXPECT_EQ(final_count[0], 20u);
  EXPECT_EQ(final_count[1], 20u);
  EXPECT_EQ(final_count[2], 20u);
}

TEST_F(DataflowTest, KeyedExchangePartitionsByVnodeOwner) {
  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", 2, {"src"}, CounterFactory())
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});
  graph->StartSources();

  for (uint64_t key = 0; key < 40; ++key) {
    Produce("events", static_cast<int>(key) % kPartitions, key, "x");
  }
  sim_.Run();

  // Each instance must have exactly the state of its owned vnodes.
  auto* table = engine_.routing("counter");
  for (StatefulInstance* inst : graph->stateful("counter")) {
    for (uint64_t key = 0; key < 40; ++key) {
      uint32_t vnode = table->map().VnodeForKey(key);
      auto entries = inst->backend()->ScanPrefix(vnode, "");
      ASSERT_TRUE(entries.ok());
      bool owns = table->InstanceForVnode(vnode) ==
                  static_cast<uint32_t>(inst->subtask());
      if (!owns) {
        EXPECT_TRUE(entries->empty());
      }
    }
  }
}

TEST_F(DataflowTest, LatencyListenerReceivesSamples) {
  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", 2, {"src"}, CounterFactory())
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});

  int samples = 0;
  SimTime max_latency = 0;
  engine_.SetLatencyListener([&](const std::string& op, SimTime, SimTime lat) {
    EXPECT_EQ(op, "counter");
    EXPECT_GE(lat, 0);
    max_latency = std::max(max_latency, lat);
    ++samples;
  });
  graph->StartSources();
  for (int i = 0; i < 10; ++i) Produce("events", i % kPartitions, 1, "x");
  sim_.Run();

  EXPECT_GT(samples, 0);
  EXPECT_GT(max_latency, 0);  // network + processing takes modeled time
}

TEST_F(DataflowTest, SymmetricJoinEmitsMatches) {
  QueryDef def;
  def.AddSource("src_l", "left", kPartitions)
      .AddSource("src_r", "right", kPartitions)
      .AddStateful("join", 2, {"src_l", "src_r"}, JoinFactory())
      .AddSink("sink", 1, {"join"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});

  std::multiset<std::string> outputs;
  graph->sinks("sink")[0]->SetCollector(
      [&](const Record& r) { outputs.insert(r.payload); });
  graph->StartSources();

  Produce("left", 0, 7, "L1");
  Produce("left", 1, 7, "L2");
  Produce("right", 0, 7, "R1");
  Produce("right", 1, 8, "R2");  // no left match
  sim_.Run();

  EXPECT_EQ(outputs, (std::multiset<std::string>{"L1|R1", "L2|R1"}));
}

TEST_F(DataflowTest, CheckpointCompletesWithDescriptors) {
  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", 2, {"src"}, CounterFactory())
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});
  graph->StartSources();

  for (int i = 0; i < 20; ++i) Produce("events", i % kPartitions, 5, "x");
  sim_.Run();

  engine_.TriggerCheckpoint();
  sim_.Run();

  const CheckpointRecord* ckpt = engine_.LastCompletedCheckpoint();
  ASSERT_NE(ckpt, nullptr);
  EXPECT_TRUE(ckpt->completed);
  EXPECT_GE(ckpt->complete_time, ckpt->trigger_time);
  // 2 sources + 2 stateful instances snapshot.
  EXPECT_EQ(ckpt->descriptors.size(), 4u);
  // Source snapshots carry their replay offsets.
  const auto& src0 = ckpt->descriptors.at("src#0");
  EXPECT_EQ(src0.source_offsets.at(0), 10u);
  // Stateful snapshots list checkpoint files.
  const auto& counter0 = ckpt->descriptors.at("counter#0");
  EXPECT_FALSE(counter0.files.empty());
}

TEST_F(DataflowTest, PeriodicCheckpointsRecur) {
  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", 2, {"src"}, CounterFactory())
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});
  graph->StartSources();

  engine_.StartPeriodicCheckpoints(10 * kSecond);
  sim_.RunUntil(35 * kSecond);
  engine_.StopPeriodicCheckpoints();
  sim_.Run();

  EXPECT_EQ(engine_.checkpoints().size(), 3u);
  for (const auto& c : engine_.checkpoints()) EXPECT_TRUE(c.completed);
}

TEST_F(DataflowTest, FailNodeHaltsItsInstances) {
  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", 2, {"src"}, CounterFactory())
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});
  graph->StartSources();
  sim_.Run();

  int live_before = engine_.CountLiveInstances();
  engine_.FailNode(1);  // src#0, counter#0, and sink#0 live on node 1
  EXPECT_TRUE(graph->sources("src")[0]->halted());
  EXPECT_TRUE(graph->stateful("counter")[0]->halted());
  EXPECT_TRUE(graph->sinks("sink")[0]->halted());
  EXPECT_FALSE(graph->stateful("counter")[1]->halted());
  EXPECT_FALSE(graph->sources("src")[1]->halted());
  EXPECT_EQ(engine_.CountLiveInstances(), live_before - 3);
}

// ---------------------------------------------------------- handover ----

/// Minimal delegate: extract the moved vnodes at the origin's alignment
/// point, deliver them to the target after a modeled delay.
class InlineDelegate : public HandoverDelegate {
 public:
  InlineDelegate(sim::Simulation* sim, SimTime delay)
      : sim_(sim), delay_(delay) {}

  void TransferState(const HandoverSpec& spec, const HandoverMove& move,
                     StatefulInstance* origin, StatefulInstance* target,
                     std::function<void()> done) override {
    ASSERT_NE(origin, nullptr);
    auto images = origin->ReadImages(move.vnodes);
    ASSERT_TRUE(images.ok());
    HandoverSpec spec_copy = spec;
    HandoverMove move_copy = move;
    sim_->Schedule(delay_, [=, images = std::move(images).MoveValue()] {
      RHINO_CHECK_OK(target->IngestImages(images, false));
      origin->CompleteHandoverAsOrigin(spec_copy, move_copy);
      target->CompleteHandoverAsTarget(spec_copy, move_copy);
      done();
    });
    ++transfers_;
  }

  int transfers() const { return transfers_; }

 private:
  sim::Simulation* sim_;
  SimTime delay_;
  int transfers_ = 0;
};

TEST_F(DataflowTest, HandoverMovesVnodesAndState) {
  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", 2, {"src"}, CounterFactory())
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});
  InlineDelegate delegate(&sim_, 5 * kMillisecond);
  engine_.SetHandoverDelegate(&delegate);
  graph->StartSources();

  for (uint64_t key = 0; key < 30; ++key) {
    Produce("events", static_cast<int>(key) % kPartitions, key, "x");
  }
  sim_.Run();

  // Move all vnodes of instance 0 to instance 1.
  auto vnodes = engine_.routing("counter")->VnodesOfInstance(0);
  ASSERT_FALSE(vnodes.empty());
  auto spec = std::make_shared<HandoverSpec>();
  spec->id = 1;
  spec->operator_name = "counter";
  spec->moves = {HandoverMove{0, 1, vnodes}};
  uint64_t origin_bytes_before =
      graph->stateful("counter")[0]->backend()->SizeBytes();
  EXPECT_GT(origin_bytes_before, 0u);

  ASSERT_TRUE(engine_.StartHandover(spec).ok());
  sim_.Run();

  ASSERT_EQ(engine_.handovers().size(), 1u);
  EXPECT_TRUE(engine_.handovers()[0].completed);
  EXPECT_EQ(delegate.transfers(), 1);
  // Origin dropped the state; target now owns it.
  EXPECT_EQ(graph->stateful("counter")[0]->backend()->SizeBytes(), 0u);
  EXPECT_GE(graph->stateful("counter")[1]->backend()->SizeBytes(),
            origin_bytes_before);
  // Coordinator routing table reflects the new epoch.
  for (uint32_t v : vnodes) {
    EXPECT_EQ(engine_.routing("counter")->InstanceForVnode(v), 1u);
  }
  EXPECT_TRUE(graph->stateful("counter")[0]->owned_vnodes().empty());
}

TEST_F(DataflowTest, HandoverPreservesExactlyOnceCounts) {
  // Golden run: no handover.
  std::map<uint64_t, uint64_t> golden;
  {
    sim::Simulation sim;
    sim::Cluster cluster(&sim, 4);
    broker::Broker broker({kBrokerNode});
    broker.CreateTopic("events", kPartitions);
    lsm::MemEnv env;
    Engine engine(&cluster, &broker, SmallEngineOptions());
    QueryDef def;
    def.AddSource("src", "events", kPartitions)
        .AddStateful("counter", 2, {"src"},
                     [&](Engine* eng, int subtask, int node) {
                       auto backend = state::LsmStateBackend::Open(
                           &env, "/state/c" + std::to_string(subtask), "counter",
                           static_cast<uint32_t>(subtask));
                       RHINO_CHECK(backend.ok());
                       return std::make_unique<KeyedCounterOperator>(
                           eng, "counter", subtask, node, ProcessingProfile(),
                           std::move(backend).MoveValue());
                     })
        .AddSink("sink", 1, {"counter"});
    auto graph = ExecutionGraph::Build(&engine, def, {1, 2, 3});
    graph->sinks("sink")[0]->SetCollector([&](const Record& r) {
      uint64_t c = std::stoull(r.payload);
      if (c > golden[r.key]) golden[r.key] = c;
    });
    graph->StartSources();
    for (int wave = 0; wave < 4; ++wave) {
      for (uint64_t key = 0; key < 20; ++key) {
        Batch b;
        b.create_time = sim.Now();
        b.count = 1;
        b.bytes = 1;
        b.records.push_back(Record{key, sim.Now(), 1, "x"});
        broker.topic("events")
            .partition(static_cast<int>(key) % kPartitions)
            .Append(std::move(b));
      }
      sim.RunUntil(sim.Now() + kSecond);
    }
    sim.Run();
  }

  // Handover run: same input schedule, reconfiguration between waves.
  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", 2, {"src"}, CounterFactory())
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});
  InlineDelegate delegate(&sim_, 20 * kMillisecond);
  engine_.SetHandoverDelegate(&delegate);
  std::map<uint64_t, uint64_t> observed;
  graph->sinks("sink")[0]->SetCollector([&](const Record& r) {
    uint64_t c = std::stoull(r.payload);
    if (c > observed[r.key]) observed[r.key] = c;
  });
  graph->StartSources();

  for (int wave = 0; wave < 4; ++wave) {
    for (uint64_t key = 0; key < 20; ++key) {
      Produce("events", static_cast<int>(key) % kPartitions, key, "x");
    }
    if (wave == 1) {
      auto spec = std::make_shared<HandoverSpec>();
      spec->id = 1;
      spec->operator_name = "counter";
      spec->moves = {
          HandoverMove{0, 1, engine_.routing("counter")->VnodesOfInstance(0)}};
      ASSERT_TRUE(engine_.StartHandover(spec).ok());
    }
    sim_.RunUntil(sim_.Now() + kSecond);
  }
  sim_.Run();

  // No record lost, none double-counted: the final per-key counts match
  // the golden run exactly (Theorem 1).
  EXPECT_EQ(observed, golden);
}

TEST_F(DataflowTest, HandoverToFreshInstanceBuffersUntilStateArrives) {
  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", 2, {"src"}, CounterFactory())
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine_, def, {1, 2, 3});
  // Long transfer: records for moved vnodes must queue at the target.
  InlineDelegate delegate(&sim_, 2 * kSecond);
  engine_.SetHandoverDelegate(&delegate);
  std::map<uint64_t, uint64_t> observed;
  graph->sinks("sink")[0]->SetCollector([&](const Record& r) {
    uint64_t c = std::stoull(r.payload);
    if (c > observed[r.key]) observed[r.key] = c;
  });
  graph->StartSources();

  for (uint64_t key = 0; key < 10; ++key) Produce("events", 0, key, "x");
  sim_.Run();

  auto spec = std::make_shared<HandoverSpec>();
  spec->id = 1;
  spec->operator_name = "counter";
  spec->moves = {
      HandoverMove{0, 1, engine_.routing("counter")->VnodesOfInstance(0)}};
  ASSERT_TRUE(engine_.StartHandover(spec).ok());

  // Records arriving during the transfer are buffered, not lost.
  for (uint64_t key = 0; key < 10; ++key) Produce("events", 0, key, "x");
  sim_.Run();

  ASSERT_TRUE(engine_.handovers()[0].completed);
  for (uint64_t key = 0; key < 10; ++key) {
    EXPECT_EQ(observed[key], 2u) << "key " << key;
  }
}

}  // namespace
}  // namespace rhino::dataflow
