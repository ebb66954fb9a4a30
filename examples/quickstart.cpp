// Quickstart: build a small stateful streaming pipeline on the Rhino
// library, run it, and reconfigure it on the fly with a handover.
//
//   broker("events") -> source x2 -> keyed counter x2 -> sink
//
// The pipeline runs in *real mode*: every record is materialized and the
// operator state lives in the embedded LSM store. After some traffic, the
// Handover Manager moves half of instance 0's virtual nodes to instance 1
// while the query keeps running — no restart, no lost or duplicated
// counts.

#include <cstdio>
#include <map>

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
#include "sim/simulation.h"
#include "state/lsm_state_backend.h"

namespace sim = rhino::sim;
namespace broker = rhino::broker;
namespace lsm = rhino::lsm;
namespace state = rhino::state;
namespace core = rhino::rhino;  // the Rhino library proper
using namespace rhino::dataflow;  // NOLINT: example brevity

int main() {
  std::printf("== Rhino quickstart ==\n\n");

  // 1. A simulated 4-node cluster: node 0 hosts the broker, 1-3 are
  //    workers.
  sim::Simulation sim;
  sim::Cluster cluster(&sim, 4);
  broker::Broker broker({0});
  broker.CreateTopic("events", 2);

  // 2. The engine (the host SPE) with small key-group/vnode settings.
  EngineOptions engine_opts;
  engine_opts.num_key_groups = 128;
  engine_opts.vnodes_per_instance = 4;
  Engine engine(&cluster, &broker, engine_opts);

  // 3. Rhino: replica groups, chain replication, handover manager.
  core::ReplicationManager rm({1, 2, 3}, /*replication_factor=*/1);
  core::ReplicationRuntime replication(&cluster, &rm);
  core::RhinoCheckpointStorage storage(&cluster, &replication);
  engine.SetCheckpointStorage(&storage);
  core::HandoverManager hm(&engine, &rm, &replication);

  // 4. The query: source -> keyed counter (LSM-backed state) -> sink.
  lsm::MemEnv env;
  QueryDef def;
  def.AddSource("src", "events", 2)
      .AddStateful("counter", 2, {"src"},
                   [&env](Engine* eng, int subtask, int node) {
                     auto backend = state::LsmStateBackend::Open(
                         &env, "/state/counter-" + std::to_string(subtask),
                         "counter", static_cast<uint32_t>(subtask));
                     RHINO_CHECK(backend.ok());
                     return std::make_unique<KeyedCounterOperator>(
                         eng, "counter", subtask, node, ProcessingProfile(),
                         std::move(backend).MoveValue());
                   })
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine, def, {1, 2, 3});

  std::map<uint64_t, uint64_t> counts;
  graph->sinks("sink")[0]->SetCollector([&](const Record& r) {
    uint64_t c = std::stoull(r.payload);
    if (c > counts[r.key]) counts[r.key] = c;
  });

  rm.BuildGroups({{"counter", 0, 1, 1}, {"counter", 1, 2, 1}});
  graph->StartSources();

  // 5. Produce two waves of records with a reconfiguration in between.
  auto produce_wave = [&] {
    for (uint64_t key = 0; key < 16; ++key) {
      Batch batch;
      batch.create_time = sim.Now();
      batch.count = 1;
      batch.bytes = 8;
      batch.records.push_back(Record{key, sim.Now(), 8, "x"});
      broker.topic("events").partition(static_cast<int>(key % 2))
          .Append(std::move(batch));
    }
  };

  produce_wave();
  sim.Run();
  engine.TriggerCheckpoint();  // replicate state to the replica groups
  sim.Run();

  std::printf("before handover: instance 0 owns %zu vnodes, instance 1 owns %zu\n",
              graph->stateful("counter")[0]->owned_vnodes().size(),
              graph->stateful("counter")[1]->owned_vnodes().size());

  // 6. On-the-fly reconfiguration: move half of instance 0's virtual
  //    nodes to instance 1 while records keep flowing.
  hm.TriggerLoadBalance("counter", /*origin=*/0, /*target=*/1, 0.5);
  produce_wave();
  sim.Run();

  std::printf("after handover:  instance 0 owns %zu vnodes, instance 1 owns %zu\n",
              graph->stateful("counter")[0]->owned_vnodes().size(),
              graph->stateful("counter")[1]->owned_vnodes().size());
  std::printf("handover completed: %s\n",
              engine.handovers().back().completed ? "yes" : "no");

  // 7. Exactly-once check: every key was produced twice.
  bool ok = true;
  for (uint64_t key = 0; key < 16; ++key) ok = ok && counts[key] == 2;
  std::printf("every key counted exactly twice: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
