#include "harness.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "common/logging.h"
#include "obs/exporters.h"
#include "dataflow/sink.h"
#include "dataflow/source.h"
#include "dataflow/stateful.h"
#include "sim/resource.h"

namespace rhino::bench {

using dataflow::HandoverMove;
using dataflow::StatefulInstance;

const char* SutName(Sut sut) {
  switch (sut) {
    case Sut::kFlink:
      return "Flink";
    case Sut::kRhino:
      return "Rhino";
    case Sut::kRhinoDfs:
      return "RhinoDFS";
    case Sut::kMegaphone:
      return "Megaphone";
  }
  return "?";
}

namespace {

/// Megaphone's migration path as an in-engine HandoverDelegate: full-state
/// moves with serialization costs, everything resident in memory.
class MegaphoneDelegate : public dataflow::HandoverDelegate {
 public:
  MegaphoneDelegate(dataflow::Engine* engine,
                    baselines::MegaphoneOptions options)
      : engine_(engine), options_(options) {}

  void TransferState(const dataflow::HandoverSpec& spec,
                     const HandoverMove& move, StatefulInstance* origin,
                     StatefulInstance* target,
                     std::function<void()> done) override {
    RHINO_CHECK(origin != nullptr)
        << "Megaphone has no fault tolerance (paper §5.2.2)";
    auto images = origin->ReadImages(move.vnodes);
    RHINO_CHECK(images.ok());
    uint64_t bytes = 0;
    for (const state::VnodeImage& image : *images) bytes += image.bytes;
    dataflow::HandoverSpec spec_copy = spec;
    HandoverMove move_copy = move;

    sim::QueueResource* ser = QueueFor(origin->node_id());
    sim::QueueResource* deser = QueueFor(target->node_id() + 100000);
    int origin_node = origin->node_id();
    int target_node = target->node_id();
    ser->Submit(bytes, [this, origin_node, target_node, bytes, deser,
                        spec_copy, move_copy, origin, target, done,
                        images = std::move(images).MoveValue()] {
      engine_->cluster()->Transfer(
          origin_node, target_node, bytes,
          [this, deser, bytes, spec_copy, move_copy, origin, target, done,
           images] {
            deser->Submit(bytes, [spec_copy, move_copy, origin, target, done,
                                  images] {
              RHINO_CHECK_OK(target->IngestImages(images, false));
              origin->CompleteHandoverAsOrigin(spec_copy, move_copy);
              target->CompleteHandoverAsTarget(spec_copy, move_copy);
              done();
            });
          });
      (void)bytes;
    });
  }

 private:
  sim::QueueResource* QueueFor(int key) {
    auto it = queues_.find(key);
    if (it == queues_.end()) {
      it = queues_
               .emplace(key, std::make_unique<sim::QueueResource>(
                                 engine_->sim(), "megaphone-serde",
                                 options_.serialize_bytes_per_sec))
               .first;
    }
    return it->second.get();
  }

  dataflow::Engine* engine_;
  baselines::MegaphoneOptions options_;
  std::map<int, std::unique_ptr<sim::QueueResource>> queues_;
};

dataflow::EngineOptions MakeEngineOptions(const TestbedOptions& options) {
  dataflow::EngineOptions eo;
  eo.num_key_groups = options.num_key_groups;
  eo.vnodes_per_instance = options.vnodes_per_instance;
  return eo;
}

std::vector<int> BrokerNodes(const TestbedOptions& options) {
  std::vector<int> nodes;
  for (int i = 0; i < options.num_broker_nodes; ++i) {
    nodes.push_back(options.num_workers + i);
  }
  return nodes;
}

std::vector<int> WorkerNodeList(const TestbedOptions& options) {
  std::vector<int> nodes;
  for (int i = 0; i < options.num_workers; ++i) nodes.push_back(i);
  return nodes;
}

}  // namespace

std::vector<int> Testbed::worker_nodes() const {
  return WorkerNodeList(options);
}

Testbed::Testbed(TestbedOptions opts)
    : options(std::move(opts)),
      cluster(&sim, options.num_workers + options.num_broker_nodes),
      broker(BrokerNodes(options)),
      engine(&cluster, &broker, MakeEngineOptions(options)),
      dfs(&cluster, WorkerNodeList(options)),
      rm(WorkerNodeList(options), options.replication_factor),
      replication(&cluster, &rm, options.replication),
      rhino_storage(&cluster, &replication),
      dfs_storage(&cluster, &dfs),
      latency(&engine) {
  observability.SetClock([this] { return sim.Now(); });
  engine.SetObservability(&observability);  // before BuildQuery: instances
                                            // cache handles at registration
  replication.SetObservability(&observability);
  dfs.SetObservability(&observability);
  rm.SetObservability(&observability);
  stateful_ops = nexmark::StatefulOpsOf(options.query);
  BuildQuery();
  WireSut();
  BuildReplicaGroups();
  monitor = std::make_unique<metrics::ResourceMonitor>(
      &cluster, WorkerNodeList(options), kSecond);
  monitor->SetMemoryProbe([this] { return TotalStateBytes(); });
}

Testbed::~Testbed() {
  const char* dir = std::getenv("RHINO_TRACE_DUMP");
  if (dir == nullptr || *dir == '\0') return;
  // One pair of files per testbed: suffix with the SUT so multi-SUT
  // sweeps don't clobber each other (later runs of the same SUT do).
  std::string base = std::string(dir) + "/" + SutName(options.sut) + "_" +
                     options.query;
  Status s = obs::WriteTextFile(base + "_trace.json",
                                obs::TraceToChromeJson(observability.trace()));
  if (s.ok()) {
    s = obs::WriteTextFile(base + "_metrics.prom",
                           obs::ToPrometheusText(observability.metrics()));
  }
  if (!s.ok()) {
    RHINO_LOG(Warn) << "RHINO_TRACE_DUMP: " << s.ToString();
  }
}

void Testbed::BuildQuery() {
  nexmark::QueryConfig config;
  config.source_parallelism = options.source_parallelism;
  config.stateful_parallelism = options.stateful_parallelism;
  config.sink_parallelism = options.num_workers;
  config.source_profile.records_per_sec = options.source_records_per_sec;
  config.stateful_profile.records_per_sec = options.stateful_records_per_sec;

  // Topics + generators per query.
  auto add_stream = [&](const std::string& topic, uint32_t record_bytes,
                        double rate) {
    broker.CreateTopic(topic, options.source_parallelism);
    nexmark::GeneratorOptions gen;
    gen.tick = options.gen_tick;
    gen.bytes_per_sec = rate;
    gen.record_bytes = record_bytes;
    gen.rate_factor = options.rate_factor;
    generators.push_back(std::make_unique<nexmark::NexmarkGenerator>(
        &sim, &broker.topic(topic), gen,
        /*seed=*/42 + generators.size()));
  };

  dataflow::QueryDef def;
  if (options.query == "NBQ5") {
    add_stream("bids", nexmark::kBidBytes, options.gen_bytes_per_sec);
    def = nexmark::BuildNBQ5(config);
  } else if (options.query == "NBQ8") {
    add_stream("auctions", nexmark::kAuctionBytes, options.gen_bytes_per_sec);
    add_stream("persons", nexmark::kPersonBytes, options.gen_bytes_per_sec);
    def = nexmark::BuildNBQ8(config);
  } else if (options.query == "NBQX") {
    add_stream("auctions", nexmark::kAuctionBytes, options.gen_bytes_per_sec);
    add_stream("bids", nexmark::kBidBytes, options.gen_bytes_per_sec);
    def = nexmark::BuildNBQX(config);
  } else {
    RHINO_LOG(Fatal) << "unknown query " << options.query;
  }

  // Spare instances (rescale scenario): pre-create the routing tables and
  // move the spares' vnodes onto the active instances before wiring, so
  // gates and ownership start in the 56-of-64 configuration.
  if (options.spare_instances > 0) {
    for (const auto& op : stateful_ops) {
      auto* table = engine.GetOrCreateRouting(
          op, static_cast<uint32_t>(options.stateful_parallelism));
      uint32_t active = static_cast<uint32_t>(options.stateful_parallelism -
                                              options.spare_instances);
      uint32_t cursor = 0;
      for (uint32_t spare = active;
           spare < static_cast<uint32_t>(options.stateful_parallelism);
           ++spare) {
        for (uint32_t v : table->VnodesOfInstance(spare)) {
          table->Assign(v, cursor++ % active);
        }
      }
    }
  }

  graph = dataflow::ExecutionGraph::Build(&engine, def, WorkerNodeList(options));
}

void Testbed::WireSut() {
  switch (options.sut) {
    case Sut::kRhino: {
      engine.SetCheckpointStorage(&rhino_storage);
      hm = std::make_unique<rhino::HandoverManager>(&engine, &rm, &replication);
      break;
    }
    case Sut::kRhinoDfs: {
      engine.SetCheckpointStorage(&dfs_storage);
      rhino::HandoverOptions ho;
      ho.fetch_mode = rhino::HandoverOptions::FetchMode::kDfs;
      ho.dfs = &dfs;
      ho.dfs_paths = [this](const std::string& op, uint32_t subtask) {
        return dfs_storage.PathsFor(op, subtask);
      };
      ho.dfs_replica_lookup = [this](const std::string& op, uint32_t subtask) {
        return dfs_storage.LatestFor(op, subtask);
      };
      hm = std::make_unique<rhino::HandoverManager>(&engine, &rm, &replication,
                                                    ho);
      break;
    }
    case Sut::kFlink: {
      engine.SetCheckpointStorage(&dfs_storage);
      flink = std::make_unique<baselines::FlinkRestartController>(
          &engine, &dfs_storage,
          [](const std::string& op, uint32_t subtask) {
            return std::make_unique<state::ModeledStateBackend>(op, subtask);
          });
      break;
    }
    case Sut::kMegaphone: {
      // No checkpointing, no fault tolerance; migrations run in band.
      megaphone_delegate =
          std::make_unique<MegaphoneDelegate>(&engine, options.megaphone);
      engine.SetHandoverDelegate(megaphone_delegate.get());
      megaphone = std::make_unique<baselines::MegaphoneModel>(
          &cluster, WorkerNodeList(options), options.megaphone);
      break;
    }
  }
}

void Testbed::BuildReplicaGroups() {
  std::vector<rhino::InstanceInfo> infos;
  for (StatefulInstance* inst : engine.stateful()) {
    infos.push_back({inst->op_name(), static_cast<uint32_t>(inst->subtask()),
                     inst->node_id(),
                     std::max<uint64_t>(1, inst->backend()->SizeBytes())});
  }
  rm.BuildGroups(std::move(infos));
}

void Testbed::Start() {
  for (auto& gen : generators) gen->Start();
  graph->StartSources();
  if (options.sut != Sut::kMegaphone) {
    engine.StartPeriodicCheckpoints(options.checkpoint_interval);
  }
  monitor->Start();
}

void Testbed::StopGenerators() {
  for (auto& gen : generators) gen->Stop();
}

void Testbed::SeedState(uint64_t total_bytes) {
  // Spread evenly over stateful instances that own vnodes, then over their
  // vnodes.
  std::vector<StatefulInstance*> owners;
  for (StatefulInstance* inst : engine.stateful()) {
    if (!inst->owned_vnodes().empty()) owners.push_back(inst);
  }
  RHINO_CHECK(!owners.empty());
  uint64_t per_instance = total_bytes / owners.size();
  for (StatefulInstance* inst : owners) {
    uint64_t per_vnode = per_instance / inst->owned_vnodes().size();
    std::vector<state::StateWrite> seed;
    for (uint32_t v : inst->owned_vnodes()) {
      seed.push_back({v, false, "", "", per_vnode});
    }
    RHINO_CHECK_OK(inst->backend()->ApplyBatch(seed));
    // Register the seed as checkpoint 0, already persisted per the SUT.
    auto desc = inst->backend()->Checkpoint(0);
    RHINO_CHECK(desc.ok());
    auto images = rhino::CaptureImages(inst);
    auto subtask = static_cast<uint32_t>(inst->subtask());
    switch (options.sut) {
      case Sut::kRhino:
        replication.SeedReplica(inst->op_name(), subtask, *desc,
                                std::move(images));
        break;
      case Sut::kFlink:
      case Sut::kRhinoDfs:
        dfs_storage.SeedCheckpoint(inst->op_name(), subtask, inst->node_id(),
                                   *desc, std::move(images));
        break;
      case Sut::kMegaphone:
        break;  // all state lives on the heap; nothing is persisted
    }
  }
  BuildReplicaGroups();  // re-pack with real weights
}

uint64_t Testbed::TotalStateBytes() const {
  uint64_t total = 0;
  for (StatefulInstance* inst : engine.stateful()) {
    total += inst->backend()->SizeBytes();
  }
  return total;
}

void Testbed::FailWorker(int worker_index) {
  engine.FailNode(worker_index);
}

Testbed::RecoveryBreakdown Testbed::Recover(int worker_index) {
  RecoveryBreakdown breakdown;
  SimTime start = sim.Now();
  switch (options.sut) {
    case Sut::kRhino:
    case Sut::kRhinoDfs: {
      // Failure detection + reconfiguration planning before the markers
      // are injected (part of the paper's "scheduling" phase).
      Run(hm->options().recovery_scheduling_us);
      size_t before = engine.handovers().size();
      auto ids = hm->RecoverFailedNode(worker_index);
      // Run until every recovery handover completes.
      while (true) {
        bool all_done = true;
        for (size_t i = before; i < engine.handovers().size(); ++i) {
          if (!engine.handovers()[i].completed) all_done = false;
        }
        if (all_done && engine.handovers().size() > before) break;
        if (!sim.Step()) break;
      }
      breakdown.total_us = sim.Now() - start;
      for (uint64_t id : ids) {
        const rhino::HandoverStats* stats = hm->StatsFor(id);
        if (stats == nullptr) continue;
        breakdown.state_fetch_us =
            std::max(breakdown.state_fetch_us, stats->state_fetch_us);
        breakdown.state_load_us =
            std::max(breakdown.state_load_us, stats->state_load_us);
      }
      breakdown.scheduling_us = breakdown.total_us - breakdown.state_fetch_us -
                                breakdown.state_load_us;
      if (breakdown.scheduling_us < 0) breakdown.scheduling_us = 0;
      break;
    }
    case Sut::kFlink: {
      bool finished = false;
      baselines::RestartBreakdown result;
      flink->RestartFromLastCheckpoint(worker_index,
                                       [&](baselines::RestartBreakdown b) {
                                         result = b;
                                         finished = true;
                                       });
      while (!finished && sim.Step()) {
      }
      breakdown.scheduling_us = result.scheduling_us;
      breakdown.state_fetch_us = result.state_fetch_us;
      breakdown.state_load_us = result.state_load_us;
      breakdown.total_us = sim.Now() - start;
      break;
    }
    case Sut::kMegaphone: {
      // Megaphone has no fault tolerance; the comparable operation (as in
      // the paper's benchmark) is a planned migration of the same state
      // volume off the node.
      std::map<int, uint64_t> per_origin;
      for (StatefulInstance* inst : engine.stateful()) {
        if (inst->node_id() == worker_index) {
          per_origin[worker_index] += inst->backend()->SizeBytes();
        }
      }
      bool finished = false;
      baselines::MegaphoneResult result;
      megaphone->Migrate(per_origin, TotalStateBytes(),
                         static_cast<int>(options.num_key_groups),
                         [&](baselines::MegaphoneResult r) {
                           result = r;
                           finished = true;
                         });
      while (!finished && sim.Step()) {
      }
      breakdown.oom = result.oom;
      breakdown.total_us = result.oom ? 0 : result.duration_us;
      break;
    }
  }
  return breakdown;
}

void Testbed::TriggerRescale(double) {
  // Equalize virtual-node ownership across the full parallelism: each
  // spare instance receives its fair share from the most loaded actives
  // (switching from 7/8 to 8/8 parallelism as in §5.4.1).
  uint32_t parallelism = static_cast<uint32_t>(options.stateful_parallelism);
  uint32_t active = parallelism - static_cast<uint32_t>(options.spare_instances);
  for (const auto& op : stateful_ops) {
    auto* table = engine.routing(op);
    uint32_t fair = table->map().num_vnodes() / parallelism;
    std::map<std::pair<uint32_t, uint32_t>, std::vector<uint32_t>> pair_moves;
    std::set<uint32_t> taken;  // vnodes already earmarked for a move
    uint32_t donor = 0;
    for (uint32_t spare = active; spare < parallelism; ++spare) {
      uint32_t need =
          fair - std::min<uint32_t>(
                     fair, static_cast<uint32_t>(
                               table->VnodesOfInstance(spare).size()));
      uint32_t dry_scans = 0;
      while (need > 0 && dry_scans < active) {
        uint32_t movable = 0;
        uint32_t pick = 0;
        for (uint32_t v : table->VnodesOfInstance(donor)) {
          if (!taken.count(v)) {
            ++movable;
            pick = v;
          }
        }
        if (movable > fair) {
          taken.insert(pick);
          pair_moves[{donor, spare}].push_back(pick);
          // For Flink the table changes up front (restart semantics); for
          // handovers the spec carries the reassignment.
          if (options.sut == Sut::kFlink) table->Assign(pick, spare);
          --need;
          dry_scans = 0;
        } else {
          ++dry_scans;
        }
        donor = (donor + 1) % active;
      }
    }

    if (options.sut == Sut::kFlink) {
      engine.ReinitKeyedGates(op);
      for (StatefulInstance* inst : engine.stateful()) {
        if (inst->op_name() == op) {
          inst->InitOwnedVnodes(table->VnodesOfInstance(
              static_cast<uint32_t>(inst->subtask())));
        }
      }
      continue;
    }
    std::vector<HandoverMove> moves;
    for (auto& [pair, vnodes] : pair_moves) {
      moves.push_back(HandoverMove{pair.first, pair.second, std::move(vnodes)});
    }
    if (moves.empty()) continue;
    if (hm != nullptr) {
      hm->TriggerReconfiguration(op, std::move(moves));
    } else {
      auto spec = std::make_shared<dataflow::HandoverSpec>();
      spec->id = 1000 + next_adhoc_id_++;
      spec->operator_name = op;
      spec->moves = std::move(moves);
      RHINO_CHECK_OK(engine.StartHandover(spec));
    }
  }
  if (options.sut == Sut::kFlink) {
    flink->RestartFromLastCheckpoint(-1, [](baselines::RestartBreakdown) {});
  }
}

void Testbed::TriggerLoadBalance(int origins, double fraction) {
  if (options.sut == Sut::kFlink) {
    // Flink has no load balancing (paper §5.4.2); the comparable action is
    // a restart with a rebalanced key-group assignment.
    for (const auto& op : stateful_ops) {
      auto* table = engine.routing(op);
      for (int i = 0; i < origins; ++i) {
        auto origin = static_cast<uint32_t>(i);
        auto target = static_cast<uint32_t>(i + origins);
        auto vnodes = table->VnodesOfInstance(origin);
        size_t take = std::max<size_t>(
            1, static_cast<size_t>(static_cast<double>(vnodes.size()) * fraction));
        for (size_t v = 0; v < std::min(take, vnodes.size()); ++v) {
          table->Assign(vnodes[v], target);
        }
      }
      engine.ReinitKeyedGates(op);
      for (StatefulInstance* inst : engine.stateful()) {
        if (inst->op_name() == op) {
          inst->InitOwnedVnodes(table->VnodesOfInstance(
              static_cast<uint32_t>(inst->subtask())));
        }
      }
    }
    flink->RestartFromLastCheckpoint(-1, [](baselines::RestartBreakdown) {});
    return;
  }
  for (const auto& op : stateful_ops) {
    auto* table = engine.routing(op);
    std::vector<HandoverMove> moves;
    for (int i = 0; i < origins; ++i) {
      auto origin = static_cast<uint32_t>(i);
      auto target = static_cast<uint32_t>(i + origins);
      auto vnodes = table->VnodesOfInstance(origin);
      size_t take =
          std::max<size_t>(1, static_cast<size_t>(
                                  static_cast<double>(vnodes.size()) * fraction));
      vnodes.resize(std::min(take, vnodes.size()));
      if (vnodes.empty()) continue;
      moves.push_back(HandoverMove{origin, target, vnodes});
    }
    if (moves.empty()) continue;
    if (hm != nullptr) {
      hm->TriggerReconfiguration(op, std::move(moves));
    } else {
      auto spec = std::make_shared<dataflow::HandoverSpec>();
      spec->id = 1000 + next_adhoc_id_++;
      spec->operator_name = op;
      spec->moves = std::move(moves);
      RHINO_CHECK_OK(engine.StartHandover(spec));
    }
  }
}

}  // namespace rhino::bench
