#include "dataflow/stateful.h"

#include "common/logging.h"

namespace rhino::dataflow {

// ------------------------------------------------------ StatefulInstance --

StatefulInstance::StatefulInstance(Engine* engine, OperatorSpec spec,
                                   int subtask, int node_id,
                                   ProcessingProfile profile,
                                   std::unique_ptr<state::StateBackend> backend)
    : OperatorInstance(engine, spec.name, subtask, node_id, profile) {
  auto host = OperatorHost::Create(
      std::move(spec), std::move(backend),
      [this](uint64_t key) { return vnode_map()->VnodeForKey(key); },
      static_cast<uint32_t>(subtask));
  RHINO_CHECK(host.ok()) << host.status().ToString();
  host_ = std::move(host).MoveValue();
  trace_scope_ = this->op_name() + "#" + std::to_string(subtask);
  obs::MetricsRegistry& metrics = engine->obs()->metrics();
  obs::Labels labels{{"op", this->op_name()}};
  batches_total_ = metrics.GetCounter("rhino_op_batches_total", labels);
  records_total_ = metrics.GetCounter("rhino_op_records_total", labels);
  dedup_dropped_total_ =
      metrics.GetCounter("rhino_op_dedup_dropped_total", labels);
  latency_us_ = metrics.GetHistogram("rhino_op_latency_us", labels);
}

void StatefulInstance::SetChannelSide(int channel_idx, int side) {
  if (channel_side_.size() <= static_cast<size_t>(channel_idx)) {
    channel_side_.resize(static_cast<size_t>(channel_idx) + 1, 0);
  }
  channel_side_[static_cast<size_t>(channel_idx)] = side;
}

int StatefulInstance::ChannelSide(int channel_idx) const {
  if (static_cast<size_t>(channel_idx) >= channel_side_.size()) return 0;
  return channel_side_[static_cast<size_t>(channel_idx)];
}

void StatefulInstance::HandleBatch(int channel_idx, Batch& batch) {
  SimTime now = engine_->sim()->Now();
  Batch out;
  out.create_time = batch.create_time;
  // The host deduplicates the batch against the replay watermarks, folds
  // the remainder into the state through the operator core, and advances
  // the watermarks of the applied vnodes. Ownership is not enforced — the
  // engine routes by construction.
  auto applied = host_->Apply(ChannelSide(channel_idx), batch, now, &out,
                              /*strict_ownership=*/false);
  RHINO_CHECK(applied.ok()) << applied.status().ToString();

  if (!applied->dropped_vnodes.empty()) {
    dedup_dropped_total_->Increment(applied->dropped_vnodes.size());
    obs::TraceLog& dtrace = engine_->obs()->trace();
    if (dtrace.data_events()) {
      for (uint32_t v : applied->dropped_vnodes) {
        dtrace.Emit("data", "dedup_drop", trace_scope_, 0,
                    {{"vnode", static_cast<int64_t>(v)},
                     {"source", static_cast<int64_t>(batch.source_id)},
                     {"offset", static_cast<int64_t>(batch.source_offset)}});
      }
    }
  }
  if (applied->fully_deduped) return;  // whole batch already seen

  // End-to-end processing latency, sampled at the last (instrumented)
  // stateful operator as in the paper's methodology (§5.1.5).
  SimTime latency = now - batch.create_time;
  engine_->RecordLatency(op_name(), latency);
  batches_total_->Increment();
  records_total_->Increment(batch.count);
  latency_us_->Observe(latency);
  obs::TraceLog& trace = engine_->obs()->trace();
  if (trace.data_events()) {
    // Per-batch firehose for protocol-shape tests ("no record applied
    // inside a buffering hold"); too hot for TB-scale benches.
    trace.Emit("data", "deliver", trace_scope_, 0,
               {{"count", static_cast<int64_t>(batch.count)},
                {"bytes", static_cast<int64_t>(batch.bytes)}});
  }
  if (out.count > 0) Emit(std::move(out));
}

StatefulInstance::WatermarkMap StatefulInstance::GetWatermarks(
    const std::vector<uint32_t>& vnodes) const {
  return host_->GetWatermarks(vnodes);
}

void StatefulInstance::MergeWatermarks(const WatermarkMap& marks) {
  host_->MergeWatermarks(marks);
}

Result<std::vector<state::VnodeImage>> StatefulInstance::ReadImages(
    const std::vector<uint32_t>& vnodes) {
  std::vector<state::VnodeImage> images;
  images.reserve(vnodes.size());
  for (uint32_t v : vnodes) {
    images.push_back(host_->Describe(v));
    RHINO_RETURN_NOT_OK(
        host_->backend()->ReadVnodeEntries(v, &images.back().entries));
  }
  return images;
}

Status StatefulInstance::IngestImages(
    const std::vector<state::VnodeImage>& images, bool already_durable) {
  RHINO_RETURN_NOT_OK(host_->backend()->IngestImages(images, already_durable));
  WatermarkMap marks;
  for (const state::VnodeImage& image : images) {
    marks[image.vnode] = image.watermarks;
  }
  host_->MergeWatermarks(marks);
  return Status::OK();
}

namespace {

/// Index of `move` inside `spec.moves` (moves are passed by value through
/// async delegate callbacks, so identity must be re-derived structurally).
size_t MoveIndex(const HandoverSpec& spec, const HandoverMove& move) {
  for (size_t i = 0; i < spec.moves.size(); ++i) {
    const HandoverMove& m = spec.moves[i];
    if (m.origin_instance == move.origin_instance &&
        m.target_instance == move.target_instance && m.vnodes == move.vnodes) {
      return i;
    }
  }
  RHINO_LOG(Fatal) << "move not found in handover " << spec.id;
  return 0;
}

}  // namespace

void StatefulInstance::HandleAlignedControl(const ControlEvent& ev) {
  if (ev.type == ControlEvent::Type::kCheckpointBarrier) {
    // The snapshot also captures the replay watermarks of the owned
    // vnodes, so a restored copy deduplicates correctly.
    auto desc = host_->CaptureCheckpoint(ev.id);
    RHINO_CHECK(desc.ok()) << desc.status().ToString();
    engine_->obs()->trace().Emit(
        "checkpoint", "snapshot", trace_scope_, ev.id,
        {{"vnodes", static_cast<int64_t>(host_->owned().size())}});
    engine_->OnSnapshotTaken(this, std::move(desc).MoveValue());
    return;
  }

  RHINO_CHECK(ev.handover != nullptr);
  const HandoverSpec& spec = *ev.handover;
  if (spec.operator_name != op_name()) {
    // Upstream/downstream of the reconfigured operator: gates were rewired
    // in BeforeForwardControl; nothing else to do.
    engine_->OnHandoverInstanceDone(spec.id, this);
    return;
  }

  auto me = static_cast<uint32_t>(subtask());
  HandoverProgress& progress = handover_progress_[spec.id];
  if (progress.aligned) return;  // duplicate alignment (defensive)
  progress.aligned = true;
  for (size_t i = 0; i < spec.moves.size(); ++i) {
    const HandoverMove& move = spec.moves[i];
    // Completions in early_target raced ahead of our markers.
    if (move.target_instance == me && !progress.early_target.count(i)) {
      progress.pending_target.insert(i);
    }
    if (move.origin_instance == me && !spec.origin_failed) {
      progress.pending_origin.insert(i);
    }
  }
  progress.early_target.clear();

  // Kick off the state movement for every move this instance originates,
  // and — when the origin failed (either declared in the spec, or
  // fail-stopped since the markers were injected) — for every move
  // targeting us (the target restores from the replicated checkpoint,
  // paper step 3).
  for (size_t i = 0; i < spec.moves.size(); ++i) {
    const HandoverMove& move = spec.moves[i];
    if (move.origin_instance == me && !spec.origin_failed) {
      StatefulInstance* target =
          engine_->FindStateful(spec.operator_name, move.target_instance);
      RHINO_CHECK(target != nullptr);
      engine_->handover_delegate()->TransferState(spec, move, this, target,
                                                  [] {});
    } else if (move.target_instance == me && spec.origin_failed) {
      engine_->handover_delegate()->TransferState(spec, move, nullptr, this,
                                                  [] {});
    } else if (move.target_instance == me && !spec.origin_failed) {
      StatefulInstance* origin =
          engine_->FindStateful(spec.operator_name, move.origin_instance);
      if (origin == nullptr || origin->halted()) {
        // The origin died between marker injection and our alignment: its
        // transfer will never arrive. Restore from the replicated copy.
        progress.reissued.insert(i);
        engine_->handover_delegate()->TransferState(spec, move, nullptr, this,
                                                    [] {});
      }
    }
  }

  if (!progress.pending_target.empty()) {
    // Buffer records until the checkpointed state is ingested
    // (paper §4.1.2 step ④).
    holding_for_ = spec.id;
    hold_span_ = engine_->obs()->trace().BeginSpan(
        "handover", "buffering_hold", trace_scope_, spec.id,
        {{"pending_moves",
          static_cast<int64_t>(progress.pending_target.size())}});
    HoldAlignment();
  } else {
    MaybeAckHandover(spec.id);
  }
}

void StatefulInstance::MaybeAckHandover(uint64_t handover_id) {
  HandoverProgress& progress = handover_progress_[handover_id];
  if (!progress.aligned || progress.acked) return;
  if (!progress.pending_origin.empty() || !progress.pending_target.empty()) {
    return;
  }
  progress.acked = true;
  engine_->OnHandoverInstanceDone(handover_id, this);
}

void StatefulInstance::CompleteHandoverAsOrigin(const HandoverSpec& spec,
                                                const HandoverMove& move) {
  HandoverProgress& progress = handover_progress_[spec.id];
  if (progress.pending_origin.erase(MoveIndex(spec, move)) == 0) {
    return;  // already completed or abandoned
  }
  // Drops state, ownership, and the replay watermarks — the watermarks go
  // with the state (see OperatorHost::Drop).
  RHINO_CHECK_OK(host_->Drop(move.vnodes));
  MaybeAckHandover(spec.id);
}

void StatefulInstance::AbandonHandoverMoveAsOrigin(const HandoverSpec& spec,
                                                   const HandoverMove& move) {
  HandoverProgress& progress = handover_progress_[spec.id];
  if (progress.pending_origin.erase(MoveIndex(spec, move)) == 0) return;
  // Keep the state: the target never ingested it; the failure-recovery
  // handover re-homes the vnodes from the replicated checkpoint.
  MaybeAckHandover(spec.id);
}

void StatefulInstance::CompleteHandoverAsTarget(const HandoverSpec& spec,
                                                const HandoverMove& move) {
  size_t idx = MoveIndex(spec, move);
  HandoverProgress& progress = handover_progress_[spec.id];
  if (!progress.aligned) {
    // Markers have not all arrived yet; alignment will account for it.
    host_->Own(move.vnodes);
    progress.early_target.insert(idx);
    return;
  }
  if (progress.pending_target.erase(idx) == 0) {
    return;  // duplicate (a re-issued restore raced the original transfer)
  }
  host_->Own(move.vnodes);
  if (progress.pending_target.empty() && holding_for_ == spec.id) {
    holding_for_ = 0;
    engine_->obs()->trace().EndSpan(hold_span_);
    hold_span_ = 0;
    ReleaseAlignment();
  }
  MaybeAckHandover(spec.id);
}

void StatefulInstance::NotifyPeerFailure() {
  if (!halted()) {
    for (auto& [id, progress] : handover_progress_) {
      if (!progress.aligned || progress.acked) continue;
      const HandoverRecord* record = engine_->FindHandover(id);
      if (record == nullptr || record->spec->origin_failed) continue;
      const HandoverSpec& spec = *record->spec;
      // Copy: TransferState may complete synchronously and mutate the set.
      std::vector<size_t> pending(progress.pending_target.begin(),
                                  progress.pending_target.end());
      for (size_t i : pending) {
        const HandoverMove& move = spec.moves[i];
        StatefulInstance* origin =
            engine_->FindStateful(spec.operator_name, move.origin_instance);
        if (origin != nullptr && !origin->halted()) continue;
        if (!progress.reissued.insert(i).second) continue;
        engine_->handover_delegate()->TransferState(spec, move, nullptr, this,
                                                    [] {});
      }
    }
  }
  OperatorInstance::NotifyPeerFailure();
}

// ----------------------------------------------------------- concrete ops --

namespace {

OperatorSpec MakeSpec(OperatorKind kind, const std::string& name,
                      uint32_t input_arity) {
  OperatorSpec spec;
  spec.kind = kind;
  spec.name = name;
  spec.input_arity = input_arity;
  return spec;
}

}  // namespace

KeyedCounterOperator::KeyedCounterOperator(
    Engine* engine, std::string op_name, int subtask, int node_id,
    ProcessingProfile profile, std::unique_ptr<state::StateBackend> backend)
    : StatefulInstance(engine,
                       MakeSpec(OperatorKind::kKeyedCounter, op_name, 1),
                       subtask, node_id, profile, std::move(backend)) {}

SymmetricHashJoinOperator::SymmetricHashJoinOperator(
    Engine* engine, std::string op_name, int subtask, int node_id,
    ProcessingProfile profile, std::unique_ptr<state::StateBackend> backend)
    : StatefulInstance(engine,
                       MakeSpec(OperatorKind::kSymmetricHashJoin, op_name, 2),
                       subtask, node_id, profile, std::move(backend)) {}

ModeledStatefulOperator::ModeledStatefulOperator(Engine* engine,
                                                 std::string op_name,
                                                 int subtask, int node_id,
                                                 ProcessingProfile profile,
                                                 StateModelConfig config)
    : StatefulInstance(engine,
                       [&] {
                         OperatorSpec spec = MakeSpec(
                             OperatorKind::kModeledState, op_name, 1);
                         spec.model = config;
                         return spec;
                       }(),
                       subtask, node_id, profile,
                       std::make_unique<state::ModeledStateBackend>(
                           op_name, static_cast<uint32_t>(subtask))) {}

}  // namespace rhino::dataflow
