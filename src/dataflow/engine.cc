#include "dataflow/engine.h"

#include "common/logging.h"
#include "dataflow/source.h"
#include "dataflow/stateful.h"

namespace rhino::dataflow {

namespace {

std::string InstanceKey(const OperatorInstance* instance) {
  return instance->op_name() + "#" + std::to_string(instance->subtask());
}

}  // namespace

void Engine::RegisterSource(SourceInstance* source) {
  source->set_global_source_id(static_cast<int>(sources_.size()));
  sources_.push_back(source);
}

OperatorInstance* Engine::AddInstance(std::unique_ptr<OperatorInstance> instance) {
  instances_.push_back(std::move(instance));
  return instances_.back().get();
}

Channel* Engine::AddChannel(std::unique_ptr<Channel> channel) {
  channels_.push_back(std::move(channel));
  return channels_.back().get();
}

hashring::RoutingTable* Engine::GetOrCreateRouting(const std::string& op_name,
                                                   uint32_t parallelism) {
  auto it = routing_.find(op_name);
  if (it == routing_.end()) {
    Routing r;
    r.map = std::make_unique<hashring::VirtualNodeMap>(
        options_.num_key_groups, parallelism, options_.vnodes_per_instance);
    r.table = std::make_unique<hashring::RoutingTable>(r.map.get());
    it = routing_.emplace(op_name, std::move(r)).first;
  }
  return it->second.table.get();
}

hashring::RoutingTable* Engine::routing(const std::string& op_name) {
  auto it = routing_.find(op_name);
  RHINO_CHECK(it != routing_.end()) << "no routing for operator " << op_name;
  return it->second.table.get();
}

const hashring::VirtualNodeMap* Engine::vnode_map(const std::string& op_name) {
  auto it = routing_.find(op_name);
  RHINO_CHECK(it != routing_.end()) << "no routing for operator " << op_name;
  return it->second.map.get();
}

StatefulInstance* Engine::FindStateful(const std::string& op, uint32_t subtask) {
  for (StatefulInstance* s : stateful_) {
    if (s->op_name() == op && s->subtask() == static_cast<int>(subtask)) {
      return s;
    }
  }
  return nullptr;
}

// ----------------------------------------------------------- checkpoints --

uint64_t Engine::TriggerCheckpoint() {
  RHINO_CHECK(!checkpoint_in_flight()) << "checkpoint already in flight";
  if (probe_) probe_("checkpoint_trigger");
  obs_->metrics().GetCounter("rhino_checkpoint_triggered_total")->Increment();
  uint64_t id;
  int pending;
  CheckpointRecord record;
  record.id = next_checkpoint_id_++;
  record.trigger_time = sim()->Now();
  for (SourceInstance* s : sources_) {
    if (!s->halted()) ++record.pending_acks;
  }
  for (StatefulInstance* s : stateful_) {
    if (!s->halted()) ++record.pending_acks;
  }
  id = record.id;
  pending = record.pending_acks;
  checkpoints_.push_back(std::move(record));
  checkpoint_in_flight_ = true;

  // Barrier fan-out comes after the record is registered: InjectControl
  // runs the instance's alignment logic, which calls back up into the
  // engine (snapshot acks of an empty pipeline complete synchronously).
  ControlEvent barrier;
  barrier.type = ControlEvent::Type::kCheckpointBarrier;
  barrier.id = id;
  for (SourceInstance* s : sources_) {
    if (!s->halted()) s->InjectControl(barrier);
  }
  obs_->trace().Emit("checkpoint", "trigger", "engine", id,
                     {{"pending_acks", pending}});
  return id;
}

void Engine::StartPeriodicCheckpoints(SimTime interval) {
  periodic_checkpoints_ = true;
  // Offset the first checkpoint by one interval from now.
  std::function<void()> tick = [this, interval] {
    if (!periodic_checkpoints_) return;
    if (!checkpoint_in_flight()) TriggerCheckpoint();
    StartPeriodicCheckpoints(interval);
  };
  sim()->Schedule(interval, std::move(tick));
}

CheckpointRecord* Engine::FindCheckpoint(uint64_t id) {
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    if (it->id == id) return &*it;
  }
  return nullptr;
}

void Engine::OnSnapshotTaken(OperatorInstance* instance,
                             state::CheckpointDescriptor desc) {
  uint64_t id;
  const state::CheckpointDescriptor* stored;
  CheckpointRecord* record = FindCheckpoint(desc.checkpoint_id);
  if (record == nullptr || record->aborted || record->completed) {
    // A barrier of an aborted checkpoint surfaced late (e.g. it was
    // queued behind a handover when the failure hit); the snapshot is
    // discarded.
    return;
  }
  id = record->id;
  // The map node (and the record itself — deque storage) stay stable
  // while Persist runs; only this instance's ack path ever touches this
  // key again.
  stored = &(record->descriptors[InstanceKey(instance)] = std::move(desc));
  auto durable = [this, id](Status st) {
    bool persist_failed = false;
    CheckpointRecord* rec = FindCheckpoint(id);
    if (rec == nullptr || rec->aborted || rec->completed) return;
    if (!st.ok()) {
      persist_failed = true;
    } else if (--rec->pending_acks == 0) {
      rec->completed = true;
      rec->complete_time = sim()->Now();
      checkpoint_in_flight_ = false;
      obs_->metrics()
          .GetCounter("rhino_checkpoint_completed_total")
          ->Increment();
      obs_->metrics()
          .GetHistogram("rhino_checkpoint_duration_us")
          ->Observe(rec->complete_time - rec->trigger_time);
      obs_->trace().EmitSpan(
          "checkpoint", "checkpoint", "engine", rec->trigger_time,
          rec->complete_time, id,
          {{"snapshots", static_cast<int64_t>(rec->descriptors.size())}});
    }
    if (persist_failed) {
      // Persistence failed (e.g. a replica chain member fail-stopped
      // mid-transfer). The checkpoint can never become fully durable;
      // abort it so the next interval retries from scratch.
      RHINO_LOG(Warn) << "checkpoint " << id
                      << " persistence failed: " << st.ToString()
                      << "; aborting checkpoint";
      AbortCheckpoint(id);
    }
  };
  if (storage_ != nullptr) {
    storage_->Persist(instance, *stored, std::move(durable));
  } else {
    durable(Status::OK());
  }
}

const CheckpointRecord* Engine::LastCompletedCheckpoint() const {
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    if (it->completed) return &*it;
  }
  return nullptr;
}

// -------------------------------------------------------------- handover --

ControlEvent Engine::HandoverMarkerFor(
    const std::shared_ptr<const HandoverSpec>& spec) {
  ControlEvent marker;
  marker.type = ControlEvent::Type::kHandoverMarker;
  marker.id = spec->id;
  marker.handover = spec;
  return marker;
}

Status Engine::StartHandover(std::shared_ptr<const HandoverSpec> spec,
                             bool inject_markers) {
  if (inject_markers) {
    std::set<uint32_t> moving;
    for (const HandoverRecord& record : handovers_) {
      if (record.completed ||
          record.spec->operator_name != spec->operator_name) {
        continue;
      }
      for (const HandoverMove& move : record.spec->moves) {
        moving.insert(move.vnodes.begin(), move.vnodes.end());
      }
    }
    for (const HandoverMove& move : spec->moves) {
      for (uint32_t v : move.vnodes) {
        if (moving.count(v) != 0) {
          return Status::FailedPrecondition(
              "handover " + std::to_string(spec->id) + " moves vnode " +
              std::to_string(v) + " of " + spec->operator_name +
              ", which an uncompleted handover is moving");
        }
      }
    }
  }
  if (probe_) probe_("handover_start");
  obs_->metrics().GetCounter("rhino_handover_triggered_total")->Increment();
  obs_->trace().Emit(
      "handover", "marker_injected", "engine", spec->id,
      {{"moves", static_cast<int64_t>(spec->moves.size())}});
  HandoverRecord record;
  record.spec = spec;
  record.trigger_time = sim()->Now();
  for (const auto& instance : instances_) {
    if (!instance->halted()) {
      record.participants.insert(InstanceKey(instance.get()));
    }
  }
  handovers_.push_back(std::move(record));

  if (!inject_markers) return Status::OK();  // the caller injects
  ControlEvent marker = HandoverMarkerFor(spec);
  for (SourceInstance* s : sources_) {
    if (!s->halted()) s->InjectControl(marker);
  }
  return Status::OK();
}

void Engine::OnHandoverInstanceDone(uint64_t handover_id,
                                    OperatorInstance* instance) {
  for (auto& record : handovers_) {
    if (record.spec->id != handover_id || record.completed) continue;
    record.acked.insert(InstanceKey(instance));
    MaybeCompleteHandover(record);
    return;
  }
  RHINO_LOG(Warn) << "ack for unknown handover " << handover_id;
}

void Engine::MaybeCompleteHandover(HandoverRecord& record) {
  if (record.completed) return;
  for (const std::string& key : record.participants) {
    if (!record.acked.count(key)) return;
  }
  record.completed = true;
  record.complete_time = sim()->Now();
  // Commit the new configuration epoch in the coordinator's view.
  hashring::RoutingTable* table = routing(record.spec->operator_name);
  for (const HandoverMove& move : record.spec->moves) {
    for (uint32_t v : move.vnodes) {
      table->Assign(v, move.target_instance);
    }
  }
  obs_->metrics().GetCounter("rhino_handover_completed_total")->Increment();
  obs_->metrics()
      .GetHistogram("rhino_handover_duration_us")
      ->Observe(record.complete_time - record.trigger_time);
  obs_->trace().EmitSpan(
      "handover", "handover", "engine", record.trigger_time,
      record.complete_time, record.spec->id,
      {{"moves", static_cast<int64_t>(record.spec->moves.size())},
       {"participants", static_cast<int64_t>(record.participants.size())}});
}

const HandoverRecord* Engine::FindHandover(uint64_t id) const {
  for (const auto& record : handovers_) {
    if (record.spec->id == id) return &record;
  }
  return nullptr;
}

bool Engine::IsHandoverComplete(uint64_t id) const {
  const HandoverRecord* record = FindHandover(id);
  return record != nullptr && record->completed;
}

// --------------------------------------------------------------- failure --

void Engine::FailNode(int node_id) {
  cluster_->FailNode(node_id);
  int halted = 0;
  for (auto& instance : instances_) {
    if (instance->node_id() == node_id) {
      instance->Halt();
      ++halted;
    }
  }
  obs_->metrics().GetCounter("rhino_engine_node_failures_total")->Increment();
  obs_->trace().Emit("fault", "node_failed",
                     "node" + std::to_string(node_id), 0,
                     {{"halted_instances", halted}});
  // Survivors waiting for markers from the dead instances must re-check
  // their alignment requirements (and targets of in-flight moves whose
  // origin just died re-issue their restore from the replicated copy).
  for (auto& instance : instances_) instance->NotifyPeerFailure();
  // In-flight handovers: the dead instances can never ack. Strike them
  // from the participant sets (permanently — a later Resume on a live
  // worker replays no markers) and re-check completion.
  uint64_t abort_id = 0;
  for (auto& record : handovers_) {
    if (record.completed) continue;
    for (auto& instance : instances_) {
      if (instance->halted()) {
        record.participants.erase(InstanceKey(instance.get()));
      }
    }
    MaybeCompleteHandover(record);
  }
  // A checkpoint in flight can never complete: instances on the failed
  // node will not ack — and, worse, its barrier markers may have been
  // wiped with the dead instances' queues. Abort it (Flink would equally
  // discard it) and flush its alignments everywhere.
  if (checkpoint_in_flight() && !checkpoints_.empty() &&
      !checkpoints_.back().completed) {
    abort_id = checkpoints_.back().id;
  }
  if (abort_id != 0) AbortCheckpoint(abort_id);
}

void Engine::AbortCheckpoint(uint64_t id) {
  CheckpointRecord* record = FindCheckpoint(id);
  if (record == nullptr || record->completed || record->aborted) return;
  record->aborted = true;
  obs_->metrics().GetCounter("rhino_checkpoint_aborted_total")->Increment();
  obs_->trace().Emit("checkpoint", "abort", "engine", id);
  if (!checkpoints_.empty() && checkpoints_.back().id == id) {
    checkpoint_in_flight_ = false;
  }
  for (auto& instance : instances_) {
    instance->AbortAlignment(ControlEvent::Type::kCheckpointBarrier, id);
  }
}

bool Engine::IsCheckpointAborted(uint64_t id) {
  CheckpointRecord* record = FindCheckpoint(id);
  return record != nullptr && record->aborted;
}

void Engine::ReinitKeyedGates(const std::string& op) {
  hashring::RoutingTable* table = routing(op);
  for (auto& instance : instances_) {
    for (size_t i = 0; i < instance->num_outputs(); ++i) {
      if (instance->output(i)->downstream_op() == op) {
        instance->output(i)->InitRouting(*table);
      }
    }
  }
}

int Engine::CountLiveInstances() const {
  int live = 0;
  for (const auto& instance : instances_) {
    if (!instance->halted()) ++live;
  }
  return live;
}

}  // namespace rhino::dataflow
