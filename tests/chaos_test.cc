// Chaos integration tests: seeded random fault schedules injected into a
// running pipeline while periodic checkpoints, replication chains, and
// handovers are all in flight. After the dust settles the run must have
// converged: exactly-once keyed output, every handover completed, no vnode
// owned by a dead instance, no replica advertised on a dead node, and the
// replication factor restored.
//
// The exactly-once assertions run on the real KeyedCounter pipeline (the
// NEXMark operators are statistically modeled and carry byte counts, not
// records); a Testbed-based NEXMark chaos run asserts the convergence
// invariants at bench scale. A second schedule adds transient faults
// (network partitions, link delays, slow disks), which the retry and
// backoff paths must absorb. The networked runtime's chaos suite is
// dist_chaos_test.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>

#include "broker/broker.h"
#include "dataflow/engine.h"
#include "dataflow/graph.h"
#include "dataflow/sink.h"
#include "dataflow/stateful.h"
#include "harness.h"
#include "lsm/env.h"
#include "obs/observability.h"
#include "rhino/checkpoint_storage.h"
#include "rhino/handover_manager.h"
#include "rhino/replication_manager.h"
#include "rhino/replication_runtime.h"
#include "sim/fault_injector.h"
#include "sim/simulation.h"
#include "state/lsm_state_backend.h"

namespace rhino::rhino {
namespace {

using dataflow::Batch;
using dataflow::Engine;
using dataflow::EngineOptions;
using dataflow::ExecutionGraph;
using dataflow::ProcessingProfile;
using dataflow::QueryDef;
using dataflow::Record;

constexpr int kPartitions = 4;
constexpr int kParallelism = 4;
constexpr uint64_t kKeys = 40;
constexpr int kWaves = 10;

/// Trace-shape form of exactly-once: no record delivered to an instance
/// strictly inside one of its buffering-hold spans. A hold left open is
/// legal only when the holder crashed — it then extends to infinity, so
/// any later delivery on that scope still fails the check.
void AssertNoDeliveryDuringHold(const obs::TraceLog& trace) {
  auto delivers = trace.Select("data", "deliver");
  for (const obs::TraceEvent* hold : trace.Spans("handover", "buffering_hold")) {
    SimTime end = hold->is_open() ? std::numeric_limits<SimTime>::max()
                                  : hold->end_us();
    for (const obs::TraceEvent* d : delivers) {
      if (d->scope != hold->scope) continue;
      EXPECT_FALSE(hold->time_us < d->time_us && d->time_us < end)
          << "record delivered to " << d->scope << " at t=" << d->time_us
          << " inside hold [" << hold->time_us << ", " << end
          << ") of handover " << hold->id;
    }
  }
}

/// Pipeline over a 7-node cluster (0 = broker, 1-6 = workers; 4 stateful
/// instances plus spare capacity to absorb up to two failures).
struct ChaosStack {
  sim::Simulation sim;
  obs::Observability obs;
  sim::Cluster cluster;
  broker::Broker broker;
  lsm::MemEnv env;
  Engine engine;
  ReplicationManager rm;
  ReplicationRuntime runtime;
  RhinoCheckpointStorage storage;
  HandoverManager hm;
  sim::FaultInjector injector;
  std::unique_ptr<ExecutionGraph> graph;
  std::map<uint64_t, uint64_t> counts;

  explicit ChaosStack(uint64_t seed)
      : cluster(&sim, 7),
        broker({0}),
        engine(&cluster, &broker, Opts()),
        rm({1, 2, 3, 4, 5, 6}, /*r=*/2),
        runtime(&cluster, &rm),
        storage(&cluster, &runtime),
        hm(&engine, &rm, &runtime),
        injector(&cluster, seed) {
    obs.SetClock([this] { return sim.Now(); });
    obs.trace().set_data_events(true);
    engine.SetObservability(&obs);
    runtime.SetObservability(&obs);
    rm.SetObservability(&obs);
    injector.SetObservability(&obs);
    broker.CreateTopic("events", kPartitions);
    engine.SetCheckpointStorage(&storage);
    engine.SetFaultProbe([this](const std::string& e) { injector.Notify(e); });
    runtime.SetFaultProbe([this](const std::string& e) { injector.Notify(e); });
    injector.SetCrashHandler([this](int node) {
      engine.FailNode(node);
      sim.Schedule(300 * kMillisecond,
                   [this, node] { hm.RecoverFailedNode(node); });
    });

    QueryDef def;
    def.AddSource("src", "events", kPartitions)
        .AddStateful("counter", kParallelism, {"src"},
                     [this](Engine* eng, int subtask, int node) {
                       auto backend = state::LsmStateBackend::Open(
                           &env, "/state/c" + std::to_string(subtask),
                           "counter", static_cast<uint32_t>(subtask));
                       RHINO_CHECK(backend.ok());
                       return std::make_unique<dataflow::KeyedCounterOperator>(
                           eng, "counter", subtask, node, ProcessingProfile(),
                           std::move(backend).MoveValue());
                     })
        .AddSink("sink", 1, {"counter"});
    graph = ExecutionGraph::Build(&engine, def, {1, 2, 3, 4, 5, 6});
    graph->sinks("sink")[0]->SetCollector([this](const Record& r) {
      uint64_t c = std::stoull(r.payload);
      if (c > counts[r.key]) counts[r.key] = c;
    });
    std::vector<InstanceInfo> infos;
    for (auto* inst : graph->stateful("counter")) {
      infos.push_back({"counter", static_cast<uint32_t>(inst->subtask()),
                       inst->node_id(), 1});
    }
    rm.BuildGroups(infos);
    graph->StartSources();
  }

  static EngineOptions Opts() {
    EngineOptions opts;
    opts.num_key_groups = 64;
    opts.vnodes_per_instance = 2;
    return opts;
  }

  void ProduceWave() {
    for (uint64_t key = 0; key < kKeys; ++key) {
      Batch batch;
      batch.create_time = sim.Now();
      batch.count = 1;
      batch.bytes = 8;
      batch.records.push_back(Record{key, sim.Now(), 8, "x"});
      broker.topic("events")
          .partition(static_cast<int>(key) % kPartitions)
          .Append(std::move(batch));
    }
  }
};

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosTest, RandomFaultScheduleIsExactlyOnce) {
  uint64_t seed = GetParam();
  ChaosStack stack(seed);
  stack.engine.StartPeriodicCheckpoints(800 * kMillisecond);

  // 1-2 crashes at seeded random times while waves, checkpoints, and
  // replication chains are in flight.
  int crash_count = 1 + static_cast<int>(seed % 2);
  auto schedule = stack.injector.ScheduleRandomCrashes(
      crash_count, {1, 2, 3, 4, 5, 6}, 2 * kSecond, 7 * kSecond,
      /*min_gap=*/1500 * kMillisecond);
  ASSERT_EQ(schedule.size(), static_cast<size_t>(crash_count));
  // Any failure below names the seed and the full fault schedule — paste
  // the seed back into this suite's INSTANTIATE range to replay the run.
  SCOPED_TRACE("chaos repro: " + stack.injector.Recipe());

  for (int wave = 0; wave < kWaves; ++wave) {
    stack.ProduceWave();
    stack.sim.RunUntil(stack.sim.Now() + kSecond);
  }
  stack.engine.StopPeriodicCheckpoints();
  stack.sim.RunUntil(stack.sim.Now() + 5 * kSecond);
  stack.ProduceWave();
  stack.sim.Run();

  // Every planned crash fired.
  EXPECT_EQ(stack.injector.crashes().size(), schedule.size());

  // Exactly-once: each of the kWaves+1 waves incremented every key once.
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(stack.counts[key], static_cast<uint64_t>(kWaves) + 1)
        << "seed " << seed << " key " << key;
  }
  // Every handover (including recovery handovers) converged.
  for (const auto& record : stack.engine.handovers()) {
    EXPECT_TRUE(record.completed) << "handover " << record.spec->id;
  }
  // Routing converged onto live instances only.
  auto* table = stack.engine.routing("counter");
  for (uint32_t v = 0; v < table->map().num_vnodes(); ++v) {
    uint32_t inst = table->InstanceForVnode(v);
    EXPECT_FALSE(stack.graph->stateful("counter")[inst]->halted())
        << "vnode " << v;
  }
  // The catalog advertises nothing on dead nodes and the replication
  // factor was restored (enough live workers remain for r=2).
  for (const auto& crash : stack.injector.crashes()) {
    for (uint32_t sub = 0; sub < kParallelism; ++sub) {
      EXPECT_EQ(stack.runtime.ReplicaOn("counter", sub, crash.node), nullptr);
    }
  }
  EXPECT_TRUE(stack.rm.degraded_groups().empty());

  // Trace-shape assertions: no delivery inside a buffering hold, every
  // crash and recovery recorded, and the chain shipped at least one
  // checkpoint transfer during the run.
  const obs::TraceLog& trace = stack.obs.trace();
  AssertNoDeliveryDuringHold(trace);
  EXPECT_EQ(trace.Count("fault", "crash"), stack.injector.crashes().size());
  EXPECT_EQ(trace.Count("handover", "recovery_start"),
            stack.injector.crashes().size());
  EXPECT_GT(trace.Spans("replication", "transfer").size(), 0u);
  // (Open alignment spans are legal here: an instance halted by a crash
  // keeps its in-flight alignment forever.)
}

TEST_P(ChaosTest, TransientFaultScheduleIsExactlyOnce) {
  // 1-2 crashes plus two transient faults, all drawn from the seed, and a
  // checkpoint every third wave: dropped state transfers are resent and
  // nothing is permanently lost.
  const uint64_t seed = GetParam();
  ChaosStack stack(seed);
  stack.injector.InstallNetworkFaults();
  const int crash_count = 1 + static_cast<int>(seed % 2);
  auto crashes = stack.injector.ScheduleRandomCrashes(
      crash_count, {1, 2, 3, 4, 5, 6}, 2 * kSecond, 7 * kSecond,
      /*min_gap=*/1500 * kMillisecond);
  ASSERT_EQ(crashes.size(), static_cast<size_t>(crash_count));
  auto transients = stack.injector.ScheduleRandomTransients(
      2, {1, 2, 3, 4, 5, 6}, 1500 * kMillisecond, 6 * kSecond,
      500 * kMillisecond, 1500 * kMillisecond);
  ASSERT_EQ(transients.size(), 2u);
  SCOPED_TRACE("chaos repro: " + stack.injector.Recipe());

  for (int wave = 0; wave < kWaves; ++wave) {
    stack.ProduceWave();
    if (wave % 3 == 2 && !stack.engine.checkpoint_in_flight()) {
      stack.engine.TriggerCheckpoint();
    }
    stack.sim.RunUntil(stack.sim.Now() + kSecond);
  }
  stack.sim.Run();
  // One more wave after convergence: routing and liveness settled.
  stack.ProduceWave();
  stack.sim.Run();

  EXPECT_EQ(stack.injector.crashes().size(), crashes.size());
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(stack.counts[key], static_cast<uint64_t>(kWaves) + 1)
        << "key " << key;
  }
  for (const auto& record : stack.engine.handovers()) {
    EXPECT_TRUE(record.completed) << "handover " << record.spec->id;
  }
  auto* table = stack.engine.routing("counter");
  for (uint32_t v = 0; v < table->map().num_vnodes(); ++v) {
    uint32_t inst = table->InstanceForVnode(v);
    EXPECT_FALSE(stack.graph->stateful("counter")[inst]->halted())
        << "vnode " << v;
  }
  for (const auto& crash : stack.injector.crashes()) {
    for (uint32_t sub = 0; sub < kParallelism; ++sub) {
      EXPECT_EQ(stack.runtime.ReplicaOn("counter", sub, crash.node), nullptr);
    }
  }
  // The injector is the cluster's fault policy; nothing may consult it
  // once it is gone.
  stack.cluster.SetFaultPolicy(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Range<uint64_t>(1, 9));

// ------------------------------------------------ NEXMark testbed chaos ----

TEST(NexmarkChaos, TwoRandomFailuresConverge) {
  bench::TestbedOptions opts;
  opts.sut = bench::Sut::kRhino;
  opts.query = "NBQ5";
  opts.num_workers = 8;
  opts.checkpoint_interval = 10 * kSecond;
  opts.gen_tick = kSecond;
  bench::Testbed tb(opts);
  tb.observability.trace().set_data_events(true);
  tb.SeedState(64 * kMiB);

  sim::FaultInjector injector(&tb.cluster, /*seed=*/7);
  injector.SetObservability(&tb.observability);
  injector.SetCrashHandler([&](int node) {
    tb.engine.FailNode(node);
    tb.sim.Schedule(tb.hm->options().recovery_scheduling_us,
                    [&tb, node] { tb.hm->RecoverFailedNode(node); });
  });
  tb.engine.SetFaultProbe(
      [&](const std::string& e) { injector.Notify(e); });
  tb.replication.SetFaultProbe(
      [&](const std::string& e) { injector.Notify(e); });

  tb.Start();
  tb.Run(opts.checkpoint_interval + 2 * kSecond);

  // Two worker crashes drawn at random inside one checkpoint interval —
  // the second lands while the first recovery may still be in flight.
  auto schedule = injector.ScheduleRandomCrashes(
      2, tb.worker_nodes(), tb.sim.Now() + kSecond,
      tb.sim.Now() + opts.checkpoint_interval, /*min_gap=*/2 * kSecond);
  ASSERT_EQ(schedule.size(), 2u);
  SCOPED_TRACE("chaos repro: " + injector.Recipe());
  tb.Run(4 * opts.checkpoint_interval);
  tb.StopGenerators();
  tb.Run(2 * opts.checkpoint_interval);

  EXPECT_EQ(injector.crashes().size(), 2u);
  for (const auto& record : tb.engine.handovers()) {
    EXPECT_TRUE(record.completed) << "handover " << record.spec->id;
  }
  EXPECT_GT(tb.engine.CountLiveInstances(), 0);
  for (const std::string& op : tb.stateful_ops) {
    auto* table = tb.engine.routing(op);
    for (uint32_t v = 0; v < table->map().num_vnodes(); ++v) {
      uint32_t inst = table->InstanceForVnode(v);
      auto* owner = tb.engine.FindStateful(op, inst);
      ASSERT_NE(owner, nullptr);
      EXPECT_FALSE(owner->halted()) << op << " vnode " << v;
    }
    // Dead nodes advertise no replicas.
    for (const auto& crash : injector.crashes()) {
      for (uint32_t sub = 0; sub < 64; ++sub) {
        EXPECT_EQ(tb.replication.ReplicaOn(op, sub, crash.node), nullptr);
      }
    }
  }

  // Same invariants, read off the protocol trace at bench scale.
  const obs::TraceLog& trace = tb.observability.trace();
  AssertNoDeliveryDuringHold(trace);
  EXPECT_EQ(trace.Count("fault", "crash"), 2u);
  EXPECT_EQ(trace.Count("handover", "recovery_start"), 2u);
  // Recovery moved state: every completed state_transfer span belongs to a
  // target scope, and the engine-level handover spans all closed.
  EXPECT_GT(trace.Spans("handover", "state_transfer").size(), 0u);
  size_t completed = 0;
  for (const auto& record : tb.engine.handovers()) {
    if (record.completed) ++completed;
  }
  EXPECT_EQ(trace.Spans("handover", "handover").size(), completed);
}

}  // namespace
}  // namespace rhino::rhino
