#include "dataflow/operator.h"

#include <cmath>

#include "common/logging.h"
#include "dataflow/engine.h"

namespace rhino::dataflow {

namespace {

std::string ScopeOf(const OperatorInstance* instance) {
  return instance->op_name() + "#" + std::to_string(instance->subtask());
}

const char* AlignmentName(ControlEvent::Type type) {
  return type == ControlEvent::Type::kCheckpointBarrier ? "barrier_align"
                                                        : "marker_align";
}

}  // namespace

// --------------------------------------------------------------- Channel --

void Channel::Send(ChannelItem item) {
  in_flight_ += 1;
  uint64_t bytes = item.WireBytes();
  int src = from_ ? from_->node_id() : to_->node_id();
  int dst = to_->node_id();
  auto deliver = [this, item = std::move(item)]() mutable {
    in_flight_ -= 1;
    to_->Deliver(to_channel_idx_, std::move(item));
  };
  if (src == dst) {
    // Local exchange: a scheduling quantum, no NIC time.
    engine_->sim()->Schedule(50, std::move(deliver));
  } else {
    engine_->cluster()->Transfer(src, dst, bytes, std::move(deliver));
  }
}

// ------------------------------------------------------------ OutputGate --

void OutputGate::Route(Batch&& batch, int sender_subtask) {
  if (channels_.empty()) return;
  if (kind_ == ExchangeKind::kPointwise) {
    Channel* ch =
        channels_[static_cast<size_t>(sender_subtask) % channels_.size()];
    ch->Send(ChannelItem::Data(std::move(batch)));
    return;
  }

  // Keyed exchange: split the batch per destination instance.
  std::vector<Batch> per_dest(channels_.size());
  if (!batch.records.empty()) {
    // Real mode: route record by record.
    for (auto& r : batch.records) {
      uint32_t vnode = vnode_map_->VnodeForKey(r.key);
      uint32_t dest = owner_[vnode];
      Batch& out = per_dest[dest];
      out.create_time = batch.create_time;
      out.source_id = batch.source_id;
      out.source_offset = batch.source_offset;
      ++out.count;
      out.bytes += r.size;
      bool found = false;
      for (auto& s : out.slices) {
        if (s.vnode == vnode) {
          ++s.count;
          s.bytes += r.size;
          found = true;
          break;
        }
      }
      if (!found) out.slices.push_back(VnodeSlice{vnode, 1, r.size});
      out.records.push_back(std::move(r));
    }
  } else if (!batch.slices.empty()) {
    // Pre-sliced modeled batch: route slice by slice.
    for (const auto& s : batch.slices) {
      uint32_t dest = owner_[s.vnode];
      Batch& out = per_dest[dest];
      out.create_time = batch.create_time;
      out.source_id = batch.source_id;
      out.source_offset = batch.source_offset;
      out.count += s.count;
      out.bytes += s.bytes;
      out.slices.push_back(s);
    }
  } else {
    // Modeled batch with uniform keys: spread over all vnodes
    // proportionally to their key-group share.
    uint32_t num_vnodes = vnode_map_->num_vnodes();
    uint64_t remaining_count = batch.count;
    uint64_t remaining_bytes = batch.bytes;
    for (uint32_t v = 0; v < num_vnodes; ++v) {
      uint32_t denom = num_vnodes - v;
      uint64_t c = remaining_count / denom;
      uint64_t b = remaining_bytes / denom;
      remaining_count -= c;
      remaining_bytes -= b;
      if (c == 0 && b == 0) continue;
      uint32_t dest = owner_[v];
      Batch& out = per_dest[dest];
      out.create_time = batch.create_time;
      out.source_id = batch.source_id;
      out.source_offset = batch.source_offset;
      out.count += c;
      out.bytes += b;
      out.slices.push_back(VnodeSlice{v, c, b});
    }
  }

  for (size_t dest = 0; dest < per_dest.size(); ++dest) {
    Batch& out = per_dest[dest];
    if (out.count == 0 && out.bytes == 0) continue;
    channels_[dest]->Send(ChannelItem::Data(std::move(out)));
  }
}

// ------------------------------------------------------ OperatorInstance --

OperatorInstance::OperatorInstance(Engine* engine, std::string op_name,
                                   int subtask, int node_id,
                                   ProcessingProfile profile)
    : engine_(engine),
      op_name_(std::move(op_name)),
      subtask_(subtask),
      node_id_(node_id),
      profile_(profile) {}

void OperatorInstance::Deliver(int channel_idx, ChannelItem item) {
  if (halted()) return;  // fail-stop: the instance is gone
  input_queues_[static_cast<size_t>(channel_idx)].push_back(std::move(item));
  TryProcessNext();
}

void OperatorInstance::Halt() {
  halted_ = true;
  for (auto& q : input_queues_) q.clear();
  alignments_.clear();
  holding_ = false;
}

void OperatorInstance::Resume() {
  halted_ = false;
  busy_ = false;
  TryProcessNext();
}

uint64_t OperatorInstance::QueuedItems() const {
  uint64_t total = 0;
  for (const auto& q : input_queues_) total += q.size();
  return total;
}

void OperatorInstance::TryProcessNext() {
  if (busy_ || halted()) return;
  if (input_queues_.empty()) return;
  int n = static_cast<int>(input_queues_.size());
  for (int probe = 0; probe < n; ++probe) {
    int ch = (poll_cursor_ + probe) % n;
    // Channels that already delivered the oldest in-flight marker are
    // blocked until that alignment completes (paper §4.1.1).
    if (!alignments_.empty() && alignments_.front().channels.count(ch)) {
      continue;
    }
    auto& queue = input_queues_[static_cast<size_t>(ch)];
    if (queue.empty()) continue;
    ChannelItem item = std::move(queue.front());
    queue.pop_front();
    poll_cursor_ = (ch + 1) % n;
    busy_ = true;
    SimTime cost = profile_.per_item_overhead_us;
    if (!item.is_control) {
      cost += static_cast<SimTime>(
          std::ceil(static_cast<double>(item.batch.count) /
                    profile_.records_per_sec * kSecond));
    }
    engine_->cluster()->node(node_id()).AddCpuBusy(cost);
    engine_->sim()->Schedule(
        cost, [this, ch, item = std::move(item)]() mutable {
          busy_ = false;
          if (halted()) return;
          ProcessItem(ch, std::move(item));
          TryProcessNext();
        });
    return;
  }
}

void OperatorInstance::ProcessItem(int channel_idx, ChannelItem item) {
  if (item.is_control) {
    OnControl(channel_idx, item.control);
  } else {
    HandleBatch(channel_idx, item.batch);
  }
}

void OperatorInstance::OnControl(int channel_idx, const ControlEvent& ev) {
  if (ev.type == ControlEvent::Type::kCheckpointBarrier &&
      engine_->IsCheckpointAborted(ev.id)) {
    // Stale barrier of an aborted checkpoint (straggling in a queue since
    // before a failure): ignore it — aligning on it could never finish.
    TryProcessNext();
    return;
  }
  if (completed_controls_.count({static_cast<int>(ev.type), ev.id})) {
    // Straggler duplicate of an alignment this instance already completed
    // (a failure let the survivors align without the dead sender, whose
    // marker was still on the wire). A ghost alignment would never finish.
    // If that alignment is still the held front (target role waiting for
    // restored state), the late marker must nonetheless block its channel:
    // everything behind it belongs to the post-handover epoch and must not
    // be applied before the restored state is ingested.
    if (!alignments_.empty() && alignments_.front().ev.id == ev.id &&
        alignments_.front().ev.type == ev.type) {
      alignments_.front().channels.insert(channel_idx);
    }
    TryProcessNext();
    return;
  }
  Alignment* alignment = nullptr;
  for (auto& a : alignments_) {
    if (a.ev.id == ev.id && a.ev.type == ev.type) {
      alignment = &a;
      break;
    }
  }
  if (alignment == nullptr) {
    alignments_.push_back(Alignment{ev, {}, 0});
    alignment = &alignments_.back();
    // Alignment starts with the first marker received.
    alignment->span = engine_->obs()->trace().BeginSpan(
        "align", AlignmentName(ev.type), ScopeOf(this), ev.id);
  }
  alignment->channels.insert(channel_idx);
  MaybeCompleteFront();
}

bool OperatorInstance::AlignmentComplete(const Alignment& alignment) const {
  for (size_t ch = 0; ch < inputs_.size(); ++ch) {
    OperatorInstance* sender = inputs_[ch]->from();
    if (sender != nullptr && sender->halted()) continue;
    if (!alignment.channels.count(static_cast<int>(ch))) return false;
  }
  return true;
}

void OperatorInstance::NotifyPeerFailure() {
  if (!halted()) MaybeCompleteFront();
}

void OperatorInstance::AbortAlignment(ControlEvent::Type type, uint64_t id) {
  if (halted()) return;
  bool was_front = !alignments_.empty() && alignments_.front().ev.id == id &&
                   alignments_.front().ev.type == type;
  for (auto it = alignments_.begin(); it != alignments_.end();) {
    if (it->ev.id == id && it->ev.type == type) {
      engine_->obs()->trace().EndSpan(it->span, {{"aborted", 1}});
      it = alignments_.erase(it);
    } else {
      ++it;
    }
  }
  if (was_front && holding_) holding_ = false;  // cannot hold a dead barrier
  MaybeCompleteFront();
}

void OperatorInstance::MaybeCompleteFront() {
  while (!holding_ && !alignments_.empty() &&
         AlignmentComplete(alignments_.front())) {
    ControlEvent ev = alignments_.front().ev;
    engine_->obs()->trace().EndSpan(alignments_.front().span);
    completed_controls_.insert({static_cast<int>(ev.type), ev.id});
    // Forward first (after any gate rewiring) so downstream alignment
    // starts while this instance performs its own role.
    BeforeForwardControl(ev);
    ForwardControl(ev);
    HandleAlignedControl(ev);
    if (holding_) break;  // target role: stay blocked until state arrives
    alignments_.pop_front();
  }
  TryProcessNext();
}

void OperatorInstance::BeforeForwardControl(const ControlEvent& ev) {
  // Upstream role of a handover (paper §4.1.2, step 3 first case): rewire
  // the output channels for the moved virtual nodes *before* forwarding
  // the marker, so every record sent after it routes to the target.
  if (ev.type == ControlEvent::Type::kHandoverMarker && ev.handover) {
    int64_t rewired = 0;
    for (auto& gate : outputs_) {
      if (gate->downstream_op() == ev.handover->operator_name) {
        gate->ApplyHandover(*ev.handover);
        ++rewired;
      }
    }
    if (rewired > 0) {
      engine_->obs()->trace().Emit("handover", "rewire", ScopeOf(this), ev.id,
                                   {{"gates", rewired}});
    }
  }
}

void OperatorInstance::ReleaseAlignment() {
  holding_ = false;
  if (!alignments_.empty()) alignments_.pop_front();
  MaybeCompleteFront();
}

void OperatorInstance::Emit(Batch batch) {
  if (outputs_.empty()) return;
  // Every downstream consumer receives the full stream (NBQX shares one
  // source among several stateful sub-queries).
  for (size_t i = 0; i + 1 < outputs_.size(); ++i) {
    Batch copy = batch;
    outputs_[i]->Route(std::move(copy), subtask_);
  }
  outputs_.back()->Route(std::move(batch), subtask_);
}

void OperatorInstance::ForwardControl(const ControlEvent& ev) {
  for (auto& gate : outputs_) gate->Broadcast(ev);
}

}  // namespace rhino::dataflow
