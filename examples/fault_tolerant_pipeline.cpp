// Fault tolerance end to end (paper §3.5.3): a join pipeline with real
// LSM-backed state loses a worker VM mid-run; Rhino recovers it with a
// handover — the target instance restores the failed instance's virtual
// nodes from its local secondary copy, every source rewinds to the last
// checkpoint, and replay watermarks drop the duplicates at the surviving
// instances. The query never restarts, and no join output is lost.

#include <cstdio>
#include <set>

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
  std::printf("== Fault-tolerant join pipeline ==\n\n");

  sim::Simulation sim;
  sim::Cluster cluster(&sim, 5);  // node 0: broker; 1-4: workers
  broker::Broker broker({0});
  broker.CreateTopic("left", 2);
  broker.CreateTopic("right", 2);

  EngineOptions engine_opts;
  engine_opts.num_key_groups = 128;
  engine_opts.vnodes_per_instance = 2;
  Engine engine(&cluster, &broker, engine_opts);

  core::ReplicationManager rm({1, 2, 3, 4}, 1);
  core::ReplicationRuntime replication(&cluster, &rm);
  core::RhinoCheckpointStorage storage(&cluster, &replication);
  engine.SetCheckpointStorage(&storage);
  core::HandoverManager hm(&engine, &rm, &replication);

  lsm::MemEnv env;
  QueryDef def;
  def.AddSource("src_l", "left", 2)
      .AddSource("src_r", "right", 2)
      .AddStateful("join", 4, {"src_l", "src_r"},
                   [&env](Engine* eng, int subtask, int node) {
                     auto backend = state::LsmStateBackend::Open(
                         &env, "/state/join-" + std::to_string(subtask),
                         "join", static_cast<uint32_t>(subtask));
                     RHINO_CHECK(backend.ok());
                     return std::make_unique<SymmetricHashJoinOperator>(
                         eng, "join", subtask, node, ProcessingProfile(),
                         std::move(backend).MoveValue());
                   })
      .AddSink("sink", 1, {"join"});
  auto graph = ExecutionGraph::Build(&engine, def, {1, 2, 3, 4});

  std::multiset<std::string> results;
  graph->sinks("sink")[0]->SetCollector(
      [&](const Record& r) { results.insert(r.payload); });

  std::vector<core::InstanceInfo> infos;
  for (auto* inst : graph->stateful("join")) {
    infos.push_back({"join", static_cast<uint32_t>(inst->subtask()),
                     inst->node_id(), 1});
  }
  rm.BuildGroups(infos);
  graph->StartSources();

  auto produce = [&](const std::string& topic, uint64_t key,
                     const std::string& payload) {
    Batch b;
    b.create_time = sim.Now();
    b.count = 1;
    b.bytes = payload.size();
    b.records.push_back(Record{key, sim.Now(), 8, payload});
    broker.topic(topic).partition(static_cast<int>(key % 2)).Append(std::move(b));
  };

  // Build up join state, checkpoint (replicates to the replica groups).
  for (uint64_t key = 0; key < 32; ++key) {
    produce("left", key, "L" + std::to_string(key));
  }
  sim.Run();
  engine.TriggerCheckpoint();
  sim.Run();
  std::printf("checkpoint complete; %llu replica checkpoints shipped\n",
              static_cast<unsigned long long>(replication.checkpoints_replicated()));

  // More state AFTER the checkpoint — this is exactly the data that must
  // come back via upstream-backup replay.
  for (uint64_t key = 32; key < 48; ++key) {
    produce("left", key, "L" + std::to_string(key));
  }
  sim.Run();

  // Fail worker 1 (it runs src_l#0, src_r#0, join#0, the sink).
  std::printf("\nfailing worker 1...\n");
  engine.FailNode(1);
  auto handovers = hm.RecoverFailedNode(1);
  sim.Run();
  for (uint64_t id : handovers) {
    const core::HandoverStats* stats = hm.StatsFor(id);
    std::printf("recovery handover %llu: %d move(s), local fetch: %s, "
                "fetch %.2f s, load %.2f s\n",
                static_cast<unsigned long long>(id), stats->moves,
                stats->local_fetch ? "yes" : "no",
                rhino::ToSeconds(stats->state_fetch_us),
                rhino::ToSeconds(stats->state_load_us));
  }

  // Probe the (recovered) join state from the other side: every left
  // record — checkpointed or replayed — must match.
  for (uint64_t key = 0; key < 48; ++key) {
    produce("right", key, "R" + std::to_string(key));
  }
  sim.Run();

  bool ok = true;
  for (uint64_t key = 0; key < 48; ++key) {
    std::string expected = "L" + std::to_string(key) + "|R" + std::to_string(key);
    if (results.count(expected) != 1) {
      std::printf("MISSING OR DUPLICATED: %s (count %zu)\n", expected.c_str(),
                  results.count(expected));
      ok = false;
    }
  }
  std::printf("\nall 48 joins produced exactly once across the failure: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
