#include "rhino/handover_manager.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "dataflow/source.h"
#include "dataflow/stateful.h"

namespace rhino::rhino {

using dataflow::HandoverMove;
using dataflow::HandoverSpec;
using dataflow::SourceInstance;
using dataflow::StatefulInstance;

namespace {

/// Seed of the shipments' backoff jitter, mixed with the handover id.
constexpr uint64_t kRetrySeed = 0x4a0b;

/// Local-fetch cost: hard links + metadata only (paper ~0.2 s).
constexpr SimTime kLocalFetchUs = 200 * kMillisecond;
/// RocksDB-style state loading: open files + read metadata
/// (paper: 1.3-1.5 s regardless of size).
constexpr SimTime kLoadFixedUs = 1300 * kMillisecond;
constexpr SimTime kLoadPerFileUs = 2 * kMillisecond;

/// One bulk state shipment (migration tail / remote replica fetch) with a
/// durability timeout and retransmission. `settled` makes the first
/// terminal event win: a timed-out attempt's late delivery cannot fire
/// `deliver` twice, and a retry racing a death cannot fire both callbacks.
struct Shipment {
  dataflow::Engine* engine = nullptr;
  int src = -1;
  int dst = -1;
  uint64_t bytes = 0;
  std::function<void()> deliver;
  std::function<void(Status)> give_up;
  std::shared_ptr<sim::Retrier> retrier;
  bool settled = false;

  /// True the first time only.
  bool Settle() { return !std::exchange(settled, true); }

  static void Attempt(std::shared_ptr<Shipment> s) {
    if (s->settled) return;
    sim::Cluster* cluster = s->engine->cluster();
    // Fail-stops are permanent — retrying cannot revive a dead endpoint.
    if (!cluster->node(s->src).alive() || !cluster->node(s->dst).alive()) {
      int dead = cluster->node(s->src).alive() ? s->dst : s->src;
      if (s->Settle()) {
        s->give_up(Status::Aborted("shipment endpoint node " +
                                   std::to_string(dead) + " fail-stopped"));
      }
      return;
    }
    cluster->Transfer(
        s->src, s->dst, s->bytes,
        [s] {
          if (s->settled) return;
          sim::Node& tgt = s->engine->cluster()->node(s->dst);
          tgt.disk(0).Write(s->bytes, [s] {
            if (s->Settle()) s->deliver();
          });
        },
        sim::TransferKind::kState);
    // Durability timeout: a generous multiple of the fault-free duration.
    // An injected partition swallows the shipment entirely; the timeout is
    // what turns that silence into a retry.
    const sim::NodeSpec& spec = cluster->node(s->dst).spec();
    SimTime expected = TransferTime(s->bytes, spec.net_bytes_per_sec) +
                       TransferTime(s->bytes, spec.disk_write_bytes_per_sec) +
                       spec.net_latency;
    SimTime timeout = expected * 3 + 50 * kMillisecond;
    s->engine->sim()->Schedule(timeout, [s] {
      if (s->settled) return;
      sim::Simulation* sim = s->engine->sim();
      SimTime backoff = 0;
      if (!s->retrier->NextBackoff(sim->Now(), &backoff)) {
        if (s->Settle()) {
          s->give_up(s->retrier->Exhausted(
              sim->Now(), Status::TimedOut("state shipment to node " +
                                           std::to_string(s->dst) +
                                           " not durable in time")));
        }
        return;
      }
      sim->Schedule(backoff, [s] { Attempt(s); });
    });
  }
};

}  // namespace

void HandoverManager::ShipStateWithRetry(int src, int dst, uint64_t bytes,
                                         uint64_t handover_id,
                                         std::function<void()> deliver,
                                         std::function<void(Status)> give_up) {
  auto s = std::make_shared<Shipment>();
  s->engine = engine_;
  s->src = src;
  s->dst = dst;
  s->bytes = bytes;
  s->deliver = std::move(deliver);
  s->give_up = std::move(give_up);
  s->retrier = std::make_shared<sim::Retrier>(
      engine_->sim()->Now(), kReplicationRetry, kRetrySeed ^ handover_id,
      "handover_shipment", engine_->obs());
  Shipment::Attempt(std::move(s));
}

uint64_t HandoverManager::TriggerReconfiguration(
    const std::string& op, std::vector<HandoverMove> moves) {
  auto spec = std::make_shared<HandoverSpec>();
  spec->id = NextHandoverId();
  spec->operator_name = op;
  spec->moves = std::move(moves);
  UpdateStats(spec->id, [&](HandoverStats& stats) {
    stats.handover_id = spec->id;
    stats.triggered_at = engine_->sim()->Now();
    stats.moves = static_cast<int>(spec->moves.size());
  });
  Status started = engine_->StartHandover(spec);
  if (!started.ok()) {
    RHINO_LOG(Warn) << "handover " << spec->id
                    << " refused: " << started.ToString();
    return 0;
  }
  return spec->id;
}

// Observability note: per-move state movement is spanned as
// "handover"/"state_transfer" on scope `<op>#<target>`; the span ends when
// the move resolves (ingested, restored, abandoned, or dropped as stale).

uint64_t HandoverManager::TriggerLoadBalance(const std::string& op,
                                             uint32_t origin, uint32_t target,
                                             double fraction) {
  auto vnodes = engine_->routing(op)->VnodesOfInstance(origin);
  size_t count = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(vnodes.size()) * fraction));
  vnodes.resize(std::min(count, vnodes.size()));
  return TriggerReconfiguration(op, {HandoverMove{origin, target, vnodes}});
}

std::vector<uint64_t> HandoverManager::RecoverFailedNode(int node) {
  std::vector<uint64_t> handovers;
  engine_->obs()->metrics().GetCounter("rhino_recovery_total")->Increment();
  engine_->obs()->trace().Emit("handover", "recovery_start",
                               "node" + std::to_string(node));
  const auto* ckpt = engine_->LastCompletedCheckpoint();

  // The dead node's secondary copies died with its disks.
  runtime_->PurgeNode(node);

  // Redeploy the failed node's stateless instances (sources, sinks) on
  // live workers, round-robin.
  std::vector<int> live;
  for (int w : manager_->workers()) {
    if (w != node && engine_->cluster()->node(w).alive()) live.push_back(w);
  }
  if (live.empty()) {
    RHINO_LOG(Error) << "no live workers to recover node " << node
                     << " onto; the job stalls until capacity returns";
    return handovers;
  }
  size_t cursor = 0;
  for (SourceInstance* src : engine_->sources()) {
    if (!src->halted()) continue;
    src->set_node_id(live[cursor++ % live.size()]);
    src->Resume();
  }
  for (dataflow::SinkInstance* sink : engine_->sinks()) {
    if (!sink->halted()) continue;
    sink->set_node_id(live[cursor++ % live.size()]);
    sink->Resume();
  }

  // Effective vnode ownership: the coordinator's routing table plus every
  // still-incomplete handover applied in trigger order. Gates rewire at
  // marker passage, so the vnodes of an uncommitted in-flight move already
  // route to its target — planning from the committed table alone would
  // strand them on a dead instance.
  std::map<std::string, std::vector<uint32_t>> effective;
  for (StatefulInstance* inst : engine_->stateful()) {
    const std::string& op = inst->op_name();
    if (effective.count(op) != 0) continue;
    hashring::RoutingTable* table = engine_->routing(op);
    std::vector<uint32_t> owner(table->map().num_vnodes());
    for (uint32_t v = 0; v < owner.size(); ++v) {
      owner[v] = table->InstanceForVnode(v);
    }
    for (const auto& record : engine_->handovers()) {
      if (record.completed || record.spec->operator_name != op) continue;
      for (const HandoverMove& mv : record.spec->moves) {
        for (uint32_t v : mv.vnodes) owner[v] = mv.target_instance;
      }
    }
    effective.emplace(op, std::move(owner));
  }

  // One recovery handover per stateful operator with orphaned vnodes.
  std::map<std::string, std::vector<HandoverMove>> moves_per_op;
  std::map<int, size_t> target_node_usage;
  for (StatefulInstance* inst : engine_->stateful()) {
    if (!inst->halted()) continue;
    auto me = static_cast<uint32_t>(inst->subtask());
    const std::vector<uint32_t>& owner = effective[inst->op_name()];
    std::vector<uint32_t> vnodes;
    for (uint32_t v = 0; v < owner.size(); ++v) {
      if (owner[v] == me) vnodes.push_back(v);
    }
    if (vnodes.empty()) continue;
    // Target: a live instance of the same operator, preferring workers
    // that hold a secondary copy of the failed instance's state (local
    // fetch). Targets are spread over distinct nodes so recovery fetching
    // parallelizes across the cluster. When no replica holder is live
    // (e.g. the whole group died), any live instance qualifies and the
    // restore path degrades to remote-replica / DFS / replay-only.
    StatefulInstance* best = nullptr;
    size_t best_score = ~0ull;
    for (StatefulInstance* candidate : engine_->stateful()) {
      if (candidate->halted() || candidate->op_name() != inst->op_name()) {
        continue;
      }
      size_t score = candidate->owned_vnodes().size() +
                     1000 * target_node_usage[candidate->node_id()];
      if (options_.fetch_mode == HandoverOptions::FetchMode::kLocalReplica &&
          runtime_->ReplicaOn(inst->op_name(), me, candidate->node_id()) ==
              nullptr) {
        score += 1000000;  // last resort: no local copy on this worker
      }
      if (best == nullptr || score < best_score) {
        best = candidate;
        best_score = score;
      }
    }
    if (best == nullptr) {
      RHINO_LOG(Error) << "no live instance of " << inst->op_name()
                       << " to adopt the vnodes of subtask " << me
                       << "; they stay orphaned";
      continue;
    }
    if (best_score >= 1000000) {
      RHINO_LOG(Warn) << "no live worker holds a replica of "
                      << inst->op_name() << "#" << me
                      << "; recovery degrades to remote fetch";
    }
    ++target_node_usage[best->node_id()];
    moves_per_op[inst->op_name()].push_back(
        HandoverMove{me, static_cast<uint32_t>(best->subtask()), vnodes});
  }

  // Markers go in *before* the rewind (they rewire the upstream gates, so
  // every replayed record routes to the new owners), and both land on each
  // source in one step: a fetch completing in between would emit a
  // pre-rewind record through an already-rewired gate, and the new owner's
  // replay watermark would then jump past the tail about to be replayed.
  std::vector<dataflow::ControlEvent> markers;
  for (auto& [op, moves] : moves_per_op) {
    auto spec = std::make_shared<HandoverSpec>();
    spec->id = NextHandoverId();
    spec->operator_name = op;
    spec->moves = std::move(moves);
    spec->origin_failed = true;
    UpdateStats(spec->id, [&](HandoverStats& stats) {
      stats.handover_id = spec->id;
      stats.triggered_at = engine_->sim()->Now();
      stats.moves = static_cast<int>(spec->moves.size());
    });
    RHINO_CHECK_OK(engine_->StartHandover(spec, /*inject_markers=*/false));
    markers.push_back(dataflow::Engine::HandoverMarkerFor(spec));
    handovers.push_back(spec->id);
  }

  // Rewind every source to the last completed checkpoint so the upstream
  // backup replays the tail lost with the failed state. Live instances
  // drop the duplicates via their replay watermarks.
  for (SourceInstance* src : engine_->sources()) {
    uint64_t offset = 0;
    if (ckpt != nullptr) {
      auto it = ckpt->descriptors.find(src->op_name() + "#" +
                                       std::to_string(src->subtask()));
      if (it != ckpt->descriptors.end()) {
        auto oit = it->second.source_offsets.find(src->subtask());
        if (oit != it->second.source_offsets.end()) offset = oit->second;
      }
    }
    src->RewindThroughMarkers(markers, offset);
  }

  // Repair the replica groups that lost the failed worker, then catch the
  // substitutes up to the newest replicated checkpoint so the replication
  // factor is restored before the next failure (§4.2.3).
  for (const GroupRepair& repair : manager_->HandleWorkerFailure(node)) {
    if (repair.substitute < 0) continue;  // degraded: no worker to catch up
    runtime_->CatchUpReplicas(
        repair.op_name, repair.subtask,
        [op = repair.op_name, sub = repair.subtask](Status st) {
          if (!st.ok()) {
            RHINO_LOG(Warn) << "catch-up re-replication of " << op << "#"
                            << sub << " failed: " << st.ToString();
          }
        });
  }
  return handovers;
}

void HandoverManager::TransferState(const HandoverSpec& spec,
                                    const HandoverMove& move,
                                    StatefulInstance* origin,
                                    StatefulInstance* target,
                                    std::function<void()> done) {
  SimTime start = engine_->sim()->Now();
  HandoverSpec spec_copy = spec;
  HandoverMove move_copy = move;

  uint64_t span = engine_->obs()->trace().BeginSpan(
      "handover", "state_transfer",
      spec.operator_name + "#" + std::to_string(move.target_instance), spec.id,
      {{"origin", static_cast<int64_t>(move.origin_instance)},
       {"vnodes", static_cast<int64_t>(move.vnodes.size())},
       {"origin_failed", origin == nullptr ? 1 : 0}});
  // Every completion path resolves through `done`; closing the span there
  // covers ingest, restore, abandon, and stale-drop alike.
  done = [this, span, inner = std::move(done)]() {
    engine_->obs()->trace().EndSpan(span);
    inner();
  };

  // The target's worker fail-stopped before the transfer began: abandon
  // the move (the origin keeps its state, the recovery handover re-homes
  // the vnodes later).
  auto abandon = [this, spec_copy, move_copy, origin, done]() {
    abandoned_moves_ += 1;
    engine_->obs()
        ->metrics()
        .GetCounter("rhino_handover_abandoned_moves_total")
        ->Increment();
    engine_->obs()->trace().Emit(
        "handover", "move_abandoned",
        spec_copy.operator_name + "#" +
            std::to_string(move_copy.target_instance),
        spec_copy.id);
    RHINO_LOG(Warn) << "handover " << spec_copy.id << ": target instance "
                    << move_copy.target_instance
                    << " fail-stopped; move abandoned, origin keeps state";
    if (origin != nullptr && !origin->halted()) {
      origin->AbandonHandoverMoveAsOrigin(spec_copy, move_copy);
    }
    done();
  };

  if (origin != nullptr) {
    // ---- live migration: incremental checkpoint + tail transfer --------
    if (target == nullptr || target->halted()) {
      engine_->sim()->Schedule(0, abandon);
      return;
    }
    auto images = origin->ReadImages(move.vnodes);
    RHINO_CHECK(images.ok()) << images.status().ToString();
    uint64_t moved_bytes = 0;
    for (const state::VnodeImage& image : *images) moved_bytes += image.bytes;
    uint64_t total_bytes = std::max<uint64_t>(1, origin->backend()->SizeBytes());

    auto mini = origin->backend()->Checkpoint(next_mini_checkpoint_++);
    RHINO_CHECK(mini.ok()) << mini.status().ToString();
    // The target worker already holds the state when it is the origin's
    // own worker (primary copy) or a member of the replica group.
    bool target_has_replica =
        origin->node_id() == target->node_id() ||
        (options_.fetch_mode == HandoverOptions::FetchMode::kLocalReplica &&
         runtime_->ReplicaOn(origin->op_name(),
                             static_cast<uint32_t>(origin->subtask()),
                             target->node_id()) != nullptr);
    // The share of the final incremental checkpoint belonging to the
    // moved vnodes; everything older is already on the target's worker
    // when it is in the replica group.
    uint64_t tail_bytes = static_cast<uint64_t>(
        static_cast<double>(mini->DeltaBytes()) *
        (static_cast<double>(moved_bytes) / static_cast<double>(total_bytes)));
    uint64_t wire_bytes = target_has_replica ? tail_bytes : moved_bytes;

    UpdateStats(spec.id, [&](HandoverStats& stats) {
      stats.bytes_transferred +=
          origin->node_id() == target->node_id() ? 0 : wire_bytes;
      stats.local_fetch = target_has_replica;
    });
    if (origin->node_id() != target->node_id()) {
      engine_->obs()
          ->metrics()
          .GetCounter("rhino_handover_bytes_total")
          ->Increment(wire_bytes);
    }

    auto ingest = [this, spec_copy, move_copy, origin, target, done, abandon,
                   start, target_has_replica,
                   images = std::move(images).MoveValue()]() {
      SimTime fetch = engine_->sim()->Now() - start;
      UpdateStats(spec_copy.id, [&](HandoverStats& s) {
        s.state_fetch_us = std::max(s.state_fetch_us, fetch);
      });
      engine_->obs()
          ->metrics()
          .GetHistogram("rhino_handover_state_fetch_us")
          ->Observe(fetch);
      SimTime load = kLoadPerFileUs * 8;
      engine_->sim()->Schedule(load, [this, spec_copy, move_copy, origin,
                                      target, done, abandon,
                                      target_has_replica, images, load] {
        if (target->halted()) {
          // Target died while the tail was in flight.
          abandon();
          return;
        }
        if (origin->halted()) {
          // Origin died after extracting the tail: this copy is stale
          // relative to the recovery plan. The target's re-issued restore
          // from the replicated checkpoint plus the source rewind supply
          // the state; ingesting here would double-apply the tail.
          done();
          return;
        }
        UpdateStats(spec_copy.id, [&](HandoverStats& s2) {
          s2.state_load_us = std::max(s2.state_load_us, load);
        });
        engine_->obs()
            ->metrics()
            .GetHistogram("rhino_handover_state_load_us")
            ->Observe(load);
        RHINO_CHECK_OK(target->IngestImages(images, target_has_replica));
        origin->CompleteHandoverAsOrigin(spec_copy, move_copy);
        target->CompleteHandoverAsTarget(spec_copy, move_copy);
        done();
      });
    };

    int origin_node = origin->node_id();
    int target_node = target->node_id();
    if (origin_node == target_node) {
      engine_->sim()->Schedule(0, std::move(ingest));
    } else {
      // Write the tail locally (part of the checkpoint), then ship it and
      // spool it at the target. A shipment swallowed by an injected fault
      // is retransmitted; exhausting the retry budget abandons the move
      // (the origin keeps its state, like a target fail-stop).
      ShipStateWithRetry(origin_node, target_node, wire_bytes, spec.id,
                         std::move(ingest),
                         [spec_id = spec.id, abandon](Status st) {
                           RHINO_LOG(Warn)
                               << "handover " << spec_id
                               << ": tail shipment failed permanently: "
                               << st.ToString();
                           abandon();
                         });
    }
    return;
  }

  // ---- failed origin: restore from a secondary copy --------------------
  RHINO_CHECK(target != nullptr);
  if (target->halted()) {
    // Cascading failure: the chosen substitute died too. The next
    // RecoverFailedNode re-plans these vnodes.
    engine_->sim()->Schedule(0, abandon);
    return;
  }
  const std::string& op = spec.operator_name;

  // Snapshot everything the restore needs *by value*: the catalog entry a
  // pointer would reference can be purged by a concurrent node failure
  // before the (simulated) fetch completes.
  struct RestorePlan {
    std::vector<state::VnodeImage> images;       // sizes, marks, entries
    size_t files = 0;                            // load-time model input
    uint64_t remote_bytes = 0;                   // bytes crossing the wire
    int remote_source = -1;                      // node shipping them
    size_t missing = 0;                          // vnodes with no live copy
  };
  auto plan = std::make_shared<RestorePlan>();

  auto add_from = [&](const ReplicaState* rep, int holder, uint32_t v) {
    auto it = rep->images.find(v);
    if (it == rep->images.end()) return false;
    plan->images.push_back(it->second);
    plan->files = std::max(plan->files, rep->latest_descriptor.files.size());
    if (holder != target->node_id()) {
      plan->remote_bytes += it->second.bytes;
      plan->remote_source = holder;
    }
    return true;
  };

  // Vnodes the target already owns live need no restore: it was the origin
  // of an abandoned move of this very state, and its copy reflects every
  // record applied up to the gate rewire — strictly fresher than any
  // checkpoint. Overwriting it would lose the un-checkpointed tail (the
  // live replay watermarks would dedup the replay that should refill it).
  std::vector<uint32_t> to_restore;
  for (uint32_t v : move_copy.vnodes) {
    if (!target->owned_vnodes().count(v)) to_restore.push_back(v);
  }

  if (options_.fetch_mode == HandoverOptions::FetchMode::kLocalReplica) {
    // Preferred ladder per vnode: the target worker's own copy (hard
    // links), else the newest live copy anywhere (one network hop), else
    // any live copy of the *vnode* — it may have been checkpointed under a
    // different instance when a move chain was interrupted by failures.
    const ReplicaState* base =
        runtime_->ReplicaOn(op, move.origin_instance, target->node_id());
    int base_node = target->node_id();
    if (base == nullptr) {
      base_node = runtime_->LiveReplicaNode(op, move.origin_instance);
      if (base_node >= 0) {
        base = runtime_->ReplicaOn(op, move.origin_instance, base_node);
      }
    }
    for (uint32_t v : to_restore) {
      if (base != nullptr && add_from(base, base_node, v)) continue;
      int holder = -1;
      const ReplicaState* vrep =
          runtime_->FindVnodeReplica(op, v, target->node_id(), &holder);
      if (vrep != nullptr && add_from(vrep, holder, v)) continue;
      ++plan->missing;
    }
  } else if (options_.dfs_replica_lookup) {
    const ReplicaState* rep = options_.dfs_replica_lookup(op, move.origin_instance);
    if (rep != nullptr) {
      for (uint32_t v : to_restore) {
        if (!add_from(rep, target->node_id(), v)) ++plan->missing;
      }
      // DFS fetch cost is modeled by the block reads below, not by a
      // point-to-point transfer.
      plan->remote_bytes = 0;
      plan->remote_source = -1;
    } else {
      plan->missing = to_restore.size();
    }
  } else {
    plan->missing = to_restore.size();
  }
  if (plan->missing > 0) {
    degraded_restores_ += 1;
    engine_->obs()
        ->metrics()
        .GetCounter("rhino_handover_degraded_restores_total")
        ->Increment();
    engine_->obs()->trace().Emit(
        "handover", "degraded_restore",
        op + "#" + std::to_string(move.target_instance), spec.id,
        {{"missing_vnodes", static_cast<int64_t>(plan->missing)}});
    RHINO_LOG(Warn) << "handover " << spec.id << ": " << plan->missing
                    << " vnode(s) of " << op << "#" << move.origin_instance
                    << " have no live copy; restoring empty, upstream "
                       "replay covers the checkpointed tail only";
  }

  auto restore = [this, spec_copy, move_copy, target, done, plan, start] {
    SimTime fetch = engine_->sim()->Now() - start;
    UpdateStats(spec_copy.id, [&](HandoverStats& s) {
      s.state_fetch_us = std::max(s.state_fetch_us, fetch);
    });
    engine_->obs()
        ->metrics()
        .GetHistogram("rhino_handover_state_fetch_us")
        ->Observe(fetch);
    SimTime load =
        kLoadFixedUs + kLoadPerFileUs * static_cast<SimTime>(plan->files);
    engine_->sim()->Schedule(load, [this, spec_copy, move_copy, target, done,
                                    plan, load] {
      UpdateStats(spec_copy.id, [&](HandoverStats& s2) {
        s2.state_load_us = std::max(s2.state_load_us, load);
      });
      engine_->obs()
          ->metrics()
          .GetHistogram("rhino_handover_state_load_us")
          ->Observe(load);
      if (target->halted()) {
        // Cascading failure while loading; the next recovery re-plans.
        done();
        return;
      }
      // One durable ingest per vnode: each came out of its own checkpoint
      // copy, and is one restored file of the target's.
      for (const state::VnodeImage& image : plan->images) {
        RHINO_CHECK_OK(target->IngestImages({image}, /*already_durable=*/true));
      }
      uint64_t restored = 0;
      for (uint32_t v : move_copy.vnodes) {
        restored += target->backend()->VnodeBytes(v);
      }
      UpdateStats(spec_copy.id, [&](HandoverStats& s2) {
        s2.bytes_transferred += restored;
      });
      target->CompleteHandoverAsTarget(spec_copy, move_copy);
      done();
    });
  };

  if (options_.fetch_mode == HandoverOptions::FetchMode::kLocalReplica) {
    if (plan->remote_bytes == 0) {
      // Secondary copy on this worker's own disks: fetching is
      // hard-linking checkpoint files (paper: ~0.2 s, size-independent).
      UpdateStats(spec.id,
                  [](HandoverStats& stats) { stats.local_fetch = true; });
      engine_->sim()->Schedule(kLocalFetchUs, restore);
    } else {
      // Replica lives elsewhere: one bulk hop to the target's disks, then
      // the usual local fetch + load.
      UpdateStats(spec.id, [&](HandoverStats& stats) {
        stats.local_fetch = false;
        stats.bytes_transferred += plan->remote_bytes;
      });
      engine_->obs()
          ->metrics()
          .GetCounter("rhino_handover_bytes_total")
          ->Increment(plan->remote_bytes);
      uint64_t wire = plan->remote_bytes;
      ShipStateWithRetry(
          plan->remote_source, target->node_id(), wire, spec.id,
          [this, restore]() {
            engine_->sim()->Schedule(kLocalFetchUs, restore);
          },
          [this, op, spec_copy, move_copy, plan, restore](Status st) {
            // The remote copy stayed unreachable past the retry budget:
            // degrade to upstream replay, the same contract as vnodes with
            // no live copy at planning time.
            degraded_restores_ += 1;
            engine_->obs()
                ->metrics()
                .GetCounter("rhino_handover_degraded_restores_total")
                ->Increment();
            engine_->obs()->trace().Emit(
                "handover", "degraded_restore",
                op + "#" + std::to_string(move_copy.target_instance),
                spec_copy.id);
            RHINO_LOG(Warn) << "handover " << spec_copy.id
                            << ": remote replica fetch failed permanently ("
                            << st.ToString()
                            << "); restoring from upstream replay only";
            plan->images.clear();
            engine_->sim()->Schedule(kLocalFetchUs, restore);
          });
    }
  } else {
    // RhinoDFS: the protocol is the same but the state comes through the
    // block-centric DFS — remote blocks cross the network (Figure 3).
    RHINO_CHECK(options_.dfs != nullptr);
    UpdateStats(spec.id,
                [](HandoverStats& stats) { stats.local_fetch = false; });
    std::vector<std::string> paths;
    if (options_.dfs_paths) {
      paths = options_.dfs_paths(op, move.origin_instance);
    }
    if (paths.empty()) {
      engine_->sim()->Schedule(kLocalFetchUs, restore);
      return;
    }
    auto remaining = std::make_shared<size_t>(paths.size());
    for (const auto& path : paths) {
      options_.dfs->ReadFile(path, target->node_id(),
                             [remaining, restore](Status st) {
                               if (!st.ok()) {
                                 RHINO_LOG(Warn)
                                     << "DFS read failed during restore: "
                                     << st.ToString();
                               }
                               if (--*remaining == 0) restore();
                             });
    }
  }
}

const HandoverStats* HandoverManager::StatsFor(uint64_t handover_id) const {
  auto it = stats_.find(handover_id);
  return it == stats_.end() ? nullptr : &it->second;
}

}  // namespace rhino::rhino
