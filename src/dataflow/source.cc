#include "dataflow/source.h"

#include <cmath>

#include "common/logging.h"
#include "dataflow/engine.h"

namespace rhino::dataflow {

SourceInstance::SourceInstance(Engine* engine, std::string op_name, int subtask,
                               int node_id, ProcessingProfile profile,
                               broker::Partition* partition)
    : OperatorInstance(engine, std::move(op_name), subtask, node_id, profile),
      partition_(partition) {
  partition_->SetDataListener([this] { TryFetch(); });
}

void SourceInstance::Start() {
  started_ = true;
  TryFetch();
}

void SourceInstance::TryFetch() {
  if (!started_ || halted() || fetch_in_flight_) return;
  const broker::LogEntry* entry = partition_->Fetch(offset_);
  if (entry == nullptr) return;
  fetch_in_flight_ = true;
  // Network hop broker node -> this worker, then emit. The source's CPU
  // cost is charged inside the transfer completion (sources are I/O bound;
  // a separate CPU queue would not change the ratios the paper reports).
  Batch batch = entry->batch;  // copy: the log retains its entry for replay
  batch.source_id = global_source_id_;
  batch.source_offset = offset_;
  uint64_t epoch = epoch_;
  engine_->cluster()->Transfer(
      partition_->home_node(), node_id(), batch.bytes,
      [this, epoch, batch = std::move(batch)]() mutable {
        fetch_in_flight_ = false;
        if (halted()) return;
        if (epoch != epoch_) {
          // The consumer was rewound while this fetch was in flight; its
          // result belongs to the previous epoch and is discarded (replay
          // re-reads the entry).
          TryFetch();
          return;
        }
        ++offset_;
        Emit(std::move(batch));
        TryFetch();
      });
}

void SourceInstance::ResetOffset(uint64_t offset) {
  obs::TraceLog& trace = engine_->obs()->trace();
  if (trace.data_events()) {
    trace.Emit("source", "rewind", op_name() + "#" + std::to_string(subtask()),
               0,
               {{"from", static_cast<int64_t>(offset_)},
                {"to", static_cast<int64_t>(offset)}});
  }
  offset_ = offset;
  ++epoch_;
}

void SourceInstance::RewindThroughMarkers(
    const std::vector<ControlEvent>& markers, uint64_t offset) {
  for (const ControlEvent& ev : markers) InjectControl(ev);
  ResetOffset(offset);
  Start();
}

void SourceInstance::InjectControl(const ControlEvent& ev) {
  if (halted()) return;
  BeforeForwardControl(ev);
  ForwardControl(ev);
  HandleAlignedControl(ev);
}

void SourceInstance::HandleBatch(int, Batch&) {
  RHINO_LOG(Fatal) << "sources have no inbound channels";
}

void SourceInstance::HandleAlignedControl(const ControlEvent& ev) {
  if (ev.type == ControlEvent::Type::kCheckpointBarrier) {
    // Source snapshot: the consumer offset (upstream-backup position).
    state::CheckpointDescriptor desc;
    desc.checkpoint_id = ev.id;
    desc.operator_name = op_name();
    desc.instance_id = static_cast<uint32_t>(subtask());
    desc.source_offsets[subtask()] = offset_;
    engine_->OnSnapshotTaken(this, std::move(desc));
  } else {
    engine_->OnHandoverInstanceDone(ev.id, this);
  }
}

}  // namespace rhino::dataflow
