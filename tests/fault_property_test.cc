// Property-based fault-injection tests: sweep the crash instant across an
// *entire* replication-chain transfer and an *entire* handover, asserting
// that for every injection instant
//
//   * every `done` callback fires exactly once with a definite Status
//     (never hangs, never double-fires),
//   * the replica catalog never advertises copies on dead nodes,
//   * every handover converges (completes) despite the crash, and
//   * keyed results remain exactly-once after recovery.
//
// Plus the catch-up criterion: after a replica-holding worker dies, the
// substitute group member reaches latest_checkpoint_id parity with the
// newest live copy without waiting for another checkpoint.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "broker/broker.h"
#include "dataflow/engine.h"
#include "dataflow/graph.h"
#include "dataflow/sink.h"
#include "dataflow/stateful.h"
#include "lsm/env.h"
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

/// A whole image of `vnode` whose run is `entries`.
state::VnodeImage Image(uint32_t vnode, std::string entries) {
  state::VnodeImage image;
  image.vnode = vnode;
  image.entries = std::move(entries);
  return image;
}

// ------------------------------------------ replication chain crash sweep --

sim::NodeSpec FastSpec() {
  sim::NodeSpec spec;
  spec.net_bytes_per_sec = 1e9;
  spec.disk_write_bytes_per_sec = 1e9;
  spec.net_latency = 0;
  return spec;
}

state::CheckpointDescriptor ChainDesc(uint64_t id, uint64_t delta) {
  state::CheckpointDescriptor desc;
  desc.checkpoint_id = id;
  desc.operator_name = "op";
  desc.instance_id = 0;
  desc.files = {{"base", 0}, {"delta-" + std::to_string(id), delta}};
  desc.delta_files = {{"delta-" + std::to_string(id), delta}};
  return desc;
}

struct ChainOutcome {
  int done_count = 0;
  std::optional<Status> status;
  SimTime completed_at = 0;
};

/// One chain transfer with a crash of `victim` at `crash_time` (victim < 0
/// = fault-free). All protocol invariants are asserted inside.
ChainOutcome RunChainTransfer(SimTime crash_time, int victim) {
  sim::Simulation sim;
  sim::Cluster cluster(&sim, 4, FastSpec());
  ReplicationManager rm({0, 1, 2, 3}, /*r=*/2);
  rm.BuildGroups({{"op", 0, 0, 100}});
  ReplicationRuntime runtime(&cluster, &rm);
  sim::FaultInjector injector(&cluster, /*seed=*/1);
  if (victim >= 0) injector.CrashAt(crash_time, victim);

  ChainOutcome outcome;
  runtime.ReplicateCheckpoint("op", 0, /*primary_node=*/0,
                              ChainDesc(1, 64 * kMiB),
                              {{0, Image(0, "run0")}, {1, Image(1, "run1")}},
                              [&](Status st) {
                                ++outcome.done_count;
                                outcome.status = st;
                                outcome.completed_at = sim.Now();
                              });
  sim.Run();

  // The simulation drained and the callback fired exactly once with a
  // definite status — a hang would leave done_count at 0.
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(outcome.done_count, 1)
      << "crash_time=" << crash_time << " victim=" << victim;
  EXPECT_TRUE(outcome.status.has_value());

  // Dead nodes never advertise replicas.
  if (victim >= 0) {
    EXPECT_EQ(runtime.ReplicaOn("op", 0, victim), nullptr)
        << "dead node " << victim << " still advertised";
  }
  // A successful transfer left full copies on every live group member.
  if (outcome.status.has_value() && outcome.status->ok()) {
    for (int node : rm.Group("op", 0)) {
      if (node == victim) continue;
      const ReplicaState* rep = runtime.ReplicaOn("op", 0, node);
      EXPECT_NE(rep, nullptr) << "node " << node;
      if (rep != nullptr) {
        EXPECT_EQ(rep->latest_checkpoint_id, 1u);
      }
    }
  } else {
    EXPECT_GE(runtime.transfers_aborted(), 1u);
  }
  return outcome;
}

TEST(ReplicationChainCrashSweep, EveryInstantEveryVictimConverges) {
  // Fault-free baseline gives the sweep window.
  ChainOutcome baseline = RunChainTransfer(0, /*victim=*/-1);
  ASSERT_TRUE(baseline.status.has_value() && baseline.status->ok());
  SimTime duration = baseline.completed_at;
  ASSERT_GT(duration, 0);

  // Victims: both chain members and the primary itself; instants sweep
  // from before the first chunk to past completion.
  sim::Simulation probe_sim;
  sim::Cluster probe_cluster(&probe_sim, 4, FastSpec());
  ReplicationManager probe_rm({0, 1, 2, 3}, 2);
  probe_rm.BuildGroups({{"op", 0, 0, 100}});
  std::vector<int> victims = probe_rm.Group("op", 0);
  victims.push_back(0);  // the primary

  constexpr int kSteps = 24;
  for (int victim : victims) {
    for (int step = 0; step <= kSteps; ++step) {
      SimTime t = duration * step / (kSteps - 2);  // overshoots the end
      SCOPED_TRACE("victim=" + std::to_string(victim) +
                   " t=" + std::to_string(t));
      ChainOutcome outcome = RunChainTransfer(t, victim);
      // Crashes strictly after completion must not retroactively fail it.
      if (t > duration) {
        EXPECT_TRUE(outcome.status->ok());
      }
    }
  }
}

// -------------------------------------------------- full-stack test rig ----

/// Engine + replication + Rhino storage + handover manager + injector over
/// a 5-node cluster (node 0 = broker, 1-4 = workers).
struct RhinoStack {
  static constexpr int kPartitions = 2;

  sim::Simulation sim;
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

  explicit RhinoStack(int replication_factor = 1, uint64_t seed = 42)
      : cluster(&sim, 5),
        broker({0}),
        engine(&cluster, &broker, SmallEngineOptions()),
        rm({1, 2, 3, 4}, replication_factor),
        runtime(&cluster, &rm),
        storage(&cluster, &runtime),
        hm(&engine, &rm, &runtime),
        injector(&cluster, seed) {
    broker.CreateTopic("events", kPartitions);
    engine.SetCheckpointStorage(&storage);
    // A crash fail-stops the node engine-wide, then the coordinator
    // notices and recovers after a detection delay.
    injector.SetCrashHandler([this](int node) {
      engine.FailNode(node);
      sim.Schedule(200 * kMillisecond,
                   [this, node] { hm.RecoverFailedNode(node); });
    });
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
    graph = ExecutionGraph::Build(&engine, def, {1, 2, 3, 4});
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

  void ProduceWave(uint64_t keys) {
    for (uint64_t key = 0; key < keys; ++key) {
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

// ------------------------------------------------- handover crash sweep ----

/// One full run: two waves, a checkpoint, a load-balance handover with a
/// crash `crash_offset` after its trigger, recovery, and a final wave.
/// Returns false (with test failures recorded) when any invariant broke.
void RunHandoverCrashRun(SimTime crash_offset, bool crash_origin) {
  // r=2: surviving an arbitrary single-node crash requires two secondaries —
  // with r=1 the sole copy of a moved vnode can land (by checkpoint-time
  // placement) on the very node the sweep kills, which no protocol recovers.
  RhinoStack stack(/*replication_factor=*/2);
  stack.BuildCounterQuery();
  stack.ProduceWave(30);
  stack.sim.RunUntil(stack.sim.Now() + 2 * kSecond);
  stack.engine.TriggerCheckpoint();
  stack.sim.RunUntil(stack.sim.Now() + 2 * kSecond);
  ASSERT_NE(stack.engine.LastCompletedCheckpoint(), nullptr);
  stack.ProduceWave(30);
  stack.sim.RunUntil(stack.sim.Now() + 2 * kSecond);

  int victim = crash_origin ? stack.graph->stateful("counter")[0]->node_id()
                            : stack.graph->stateful("counter")[1]->node_id();
  stack.hm.TriggerLoadBalance("counter", 0, 1, 1.0);
  stack.injector.CrashAfter(crash_offset, victim);
  stack.sim.RunUntil(stack.sim.Now() + 10 * kSecond);

  stack.ProduceWave(30);
  stack.sim.Run();

  // Convergence: every handover (the load balance *and* the recovery)
  // completed — i.e. every transfer's done callback fired.
  for (const auto& record : stack.engine.handovers()) {
    EXPECT_TRUE(record.completed)
        << "handover " << record.spec->id << " wedged (crash_offset="
        << crash_offset << " victim=" << victim << ")";
  }
  // Exactly-once: every key was produced three times.
  for (uint64_t key = 0; key < 30; ++key) {
    EXPECT_EQ(stack.counts[key], 3u)
        << "key " << key << " crash_offset=" << crash_offset
        << " crash_origin=" << crash_origin;
  }
  // Every vnode ended up owned by a live instance.
  auto* table = stack.engine.routing("counter");
  for (uint32_t v = 0; v < table->map().num_vnodes(); ++v) {
    uint32_t inst = table->InstanceForVnode(v);
    EXPECT_FALSE(stack.graph->stateful("counter")[inst]->halted())
        << "vnode " << v << " owned by dead instance " << inst;
  }
  // Dead nodes advertise nothing.
  for (uint32_t sub = 0; sub < 4; ++sub) {
    EXPECT_EQ(stack.runtime.ReplicaOn("counter", sub, victim), nullptr);
  }
}

class HandoverCrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(HandoverCrashSweep, TargetNodeCrash) {
  // The handover spans marker propagation through state transfer; sweep
  // the crash from the trigger instant to well past completion.
  SimTime offset = static_cast<SimTime>(GetParam()) * 100 * kMillisecond;
  RunHandoverCrashRun(offset, /*crash_origin=*/false);
}

TEST_P(HandoverCrashSweep, OriginNodeCrash) {
  SimTime offset = static_cast<SimTime>(GetParam()) * 100 * kMillisecond;
  RunHandoverCrashRun(offset, /*crash_origin=*/true);
}

INSTANTIATE_TEST_SUITE_P(Instants, HandoverCrashSweep,
                         ::testing::Range(0, 12));

// ---------------------------------------------------- catch-up criterion --

TEST(CatchUpReplication, SubstituteReachesCheckpointParity) {
  RhinoStack stack(/*replication_factor=*/2);
  stack.BuildCounterQuery();
  stack.ProduceWave(40);
  stack.sim.RunUntil(stack.sim.Now() + 2 * kSecond);
  stack.engine.TriggerCheckpoint();
  stack.sim.Run();
  const auto* ckpt = stack.engine.LastCompletedCheckpoint();
  ASSERT_NE(ckpt, nullptr);

  // Kill a worker that holds secondary copies (any group member of
  // instance 0) and recover.
  int victim = stack.rm.Group("counter", 0)[0];
  stack.engine.FailNode(victim);
  auto handovers = stack.hm.RecoverFailedNode(victim);
  stack.sim.Run();

  for (const auto& record : stack.engine.handovers()) {
    EXPECT_TRUE(record.completed);
  }
  // The repair replaced the dead member and the catch-up transfer brought
  // the substitute to checkpoint parity — r=2 is restored *before* the
  // next checkpoint runs.
  EXPECT_GE(stack.runtime.catchup_transfers(), 1u);
  EXPECT_GT(stack.runtime.catchup_bytes(), 0u);
  EXPECT_TRUE(stack.rm.degraded_groups().empty());
  for (auto* inst : stack.graph->stateful("counter")) {
    if (inst->halted()) continue;
    auto sub = static_cast<uint32_t>(inst->subtask());
    const auto& group = stack.rm.Group("counter", sub);
    EXPECT_EQ(group.size(), 2u);
    for (int node : group) {
      EXPECT_TRUE(stack.cluster.node(node).alive());
      const ReplicaState* rep = stack.runtime.ReplicaOn("counter", sub, node);
      ASSERT_NE(rep, nullptr)
          << "counter#" << sub << " has no copy on group node " << node;
      EXPECT_EQ(rep->latest_checkpoint_id, ckpt->id)
          << "substitute for counter#" << sub << " lags on node " << node;
    }
  }
}

// -------------------------------------------- event-armed crash schedule ---

TEST(EventArmedCrash, KthCheckpointAndMidChain) {
  RhinoStack stack;
  stack.BuildCounterQuery();
  // Crash worker 3 on the 2nd checkpoint trigger, and (cascading) worker 4
  // three chunks into a subsequent replication transfer.
  stack.engine.SetFaultProbe(
      [&](const std::string& e) { stack.injector.Notify(e); });
  stack.runtime.SetFaultProbe(
      [&](const std::string& e) { stack.injector.Notify(e); });
  stack.injector.CrashOnEvent("checkpoint_trigger", 2, 3);

  stack.ProduceWave(30);
  stack.sim.RunUntil(stack.sim.Now() + 2 * kSecond);
  stack.engine.TriggerCheckpoint();  // #1: completes normally
  stack.sim.RunUntil(stack.sim.Now() + 2 * kSecond);
  stack.ProduceWave(30);
  stack.sim.RunUntil(stack.sim.Now() + 2 * kSecond);
  stack.engine.TriggerCheckpoint();  // #2: fires the crash
  stack.sim.RunUntil(stack.sim.Now() + 10 * kSecond);

  EXPECT_TRUE(stack.injector.crashed(3));
  EXPECT_EQ(stack.injector.EventCount("checkpoint_trigger"), 2u);

  stack.ProduceWave(30);
  stack.sim.Run();
  for (const auto& record : stack.engine.handovers()) {
    EXPECT_TRUE(record.completed);
  }
  for (uint64_t key = 0; key < 30; ++key) {
    EXPECT_EQ(stack.counts[key], 3u) << "key " << key;
  }
}

}  // namespace
}  // namespace rhino::rhino
