#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/units.h"
#include "dataflow/record.h"
#include "hashring/key_groups.h"

/// \file operator.h
/// Physical operator instances, channels, and output gates.
///
/// An instance polls its inbound channels round-robin, paying modeled CPU
/// time per item. Channels are FIFO, durable, and bounded in the sense of
/// the paper §2.1: order is preserved per channel, control events ride in
/// band with records, and marker alignment (paper §4.1.1) is implemented
/// by *not polling* a channel that already delivered the active marker.
///
/// Single-threaded, like the engine: processing callbacks are events of
/// the simulation kernel.

namespace rhino::dataflow {

class Engine;
class OperatorInstance;

/// A FIFO link between two physical instances. Sending models network
/// transfer between the endpoints' nodes (free when co-located).
class Channel {
 public:
  Channel(Engine* engine, OperatorInstance* from, OperatorInstance* to,
          int to_channel_idx)
      : engine_(engine), from_(from), to_(to), to_channel_idx_(to_channel_idx) {}

  /// Ships an item; it is delivered to the destination's input queue after
  /// the modeled transfer completes. FIFO per channel is guaranteed by the
  /// NIC queue discipline.
  void Send(ChannelItem item);

  OperatorInstance* from() const { return from_; }
  OperatorInstance* to() const { return to_; }

  /// Wiring fix-up: the destination's input index is known only after the
  /// channel is registered with it.
  void set_to_channel_idx(int idx) { to_channel_idx_ = idx; }

  /// Bytes currently in flight or queued at the receiver (diagnostics).
  uint64_t in_flight_items() const { return in_flight_; }

 private:
  friend class OperatorInstance;
  Engine* engine_;
  OperatorInstance* from_;
  OperatorInstance* to_;
  int to_channel_idx_;
  uint64_t in_flight_ = 0;
};

/// How an output gate picks destination channels for data batches.
enum class ExchangeKind {
  kKeyed,      ///< by key -> key group -> virtual node -> owner instance
  kPointwise,  ///< subtask i -> downstream subtask i % n (sink-style)
};

/// One downstream edge of an instance: a set of channels to every parallel
/// instance of one downstream operator, plus this sender's *local view* of
/// the virtual-node routing table.
///
/// The view is local on purpose: a handover rewires it exactly when the
/// marker passes through the sender (paper §4.1.2 step 3, "upstream
/// instance rewires the output channels"), so records before the marker go
/// to the origin and records after it to the target — per channel, in FIFO
/// order, without global coordination.
class OutputGate {
 public:
  OutputGate(ExchangeKind kind, std::string downstream_op,
             const hashring::VirtualNodeMap* vnode_map)
      : kind_(kind), downstream_op_(std::move(downstream_op)),
        vnode_map_(vnode_map) {}

  const std::string& downstream_op() const { return downstream_op_; }

  void AddChannel(Channel* ch) { channels_.push_back(ch); }

  /// Copies the initial vnode -> instance assignment.
  void InitRouting(const hashring::RoutingTable& table) {
    owner_.resize(table.map().num_vnodes());
    for (uint32_t v = 0; v < owner_.size(); ++v) {
      owner_[v] = table.InstanceForVnode(v);
    }
  }

  /// Applies a handover: every move's vnodes now route to its target.
  void ApplyHandover(const HandoverSpec& spec) {
    for (const HandoverMove& move : spec.moves) {
      for (uint32_t v : move.vnodes) owner_[v] = move.target_instance;
    }
  }

  /// Routes a batch, splitting it per destination instance. `sender_subtask`
  /// selects the pointwise destination for non-keyed exchanges.
  void Route(Batch&& batch, int sender_subtask);

  /// Sends a control event on every channel (markers reach all instances).
  void Broadcast(const ControlEvent& ev) {
    for (Channel* ch : channels_) ch->Send(ChannelItem::Control(ev));
  }

  size_t num_channels() const { return channels_.size(); }
  uint32_t owner(uint32_t vnode) const { return owner_[vnode]; }

 private:
  ExchangeKind kind_;
  std::string downstream_op_;
  const hashring::VirtualNodeMap* vnode_map_;
  std::vector<Channel*> channels_;  // index = downstream subtask
  std::vector<uint32_t> owner_;     // vnode -> downstream subtask
};

/// Modeled processing speed of an instance.
struct ProcessingProfile {
  /// Records per second one instance can process (per-core service rate).
  double records_per_sec = 500000.0;
  /// Fixed cost per polled item (dispatch, deserialization setup).
  SimTime per_item_overhead_us = 20;
};

/// Base class for every physical operator instance.
class OperatorInstance {
 public:
  OperatorInstance(Engine* engine, std::string op_name, int subtask,
                   int node_id, ProcessingProfile profile);
  virtual ~OperatorInstance() = default;

  const std::string& op_name() const { return op_name_; }
  int subtask() const { return subtask_; }
  int node_id() const { return node_id_; }
  void set_node_id(int node) {
    node_id_ = node;
  }
  Engine* engine() { return engine_; }

  /// Registers an inbound channel; returns its index.
  int AddInput(Channel* ch) {
    inputs_.push_back(ch);
    input_queues_.emplace_back();
    return static_cast<int>(inputs_.size()) - 1;
  }

  void AddOutputGate(std::unique_ptr<OutputGate> gate) {
    outputs_.push_back(std::move(gate));
  }
  OutputGate* output(size_t i) { return outputs_[i].get(); }
  size_t num_outputs() const { return outputs_.size(); }
  size_t num_inputs() const { return inputs_.size(); }

  /// Called by Channel on delivery.
  void Deliver(int channel_idx, ChannelItem item);

  /// Stops processing and drops queued input (fail-stop or restart).
  void Halt();
  bool halted() const { return halted_; }
  /// Resumes after a restart (queues start empty).
  void Resume();

  /// Records queued across all input channels (backpressure diagnostics).
  uint64_t QueuedItems() const;

  /// Re-evaluates in-flight alignments after a peer failure: markers will
  /// never arrive on channels whose sender is dead, so those channels stop
  /// counting towards alignment. Subclasses may additionally repair
  /// protocol roles broken by the failure (they must end by calling the
  /// base implementation).
  virtual void NotifyPeerFailure();

  /// Discards any in-flight alignment for the given control event (an
  /// aborted checkpoint's barrier): a failure can wipe already-delivered
  /// markers (halted instances drop their queues), so the alignment could
  /// never complete and would block the instance forever.
  void AbortAlignment(ControlEvent::Type type, uint64_t id);

 protected:
  /// Data batch hook.
  virtual void HandleBatch(int channel_idx, Batch& batch) = 0;

  /// Called once a control event has been received on *all* inbound
  /// channels (or immediately, for single/zero-input instances), after the
  /// event was forwarded downstream. `ev` is the aligned event.
  virtual void HandleAlignedControl(const ControlEvent& ev) = 0;

  /// Hook consulted before broadcasting an aligned control event; lets a
  /// subclass rewire its gates first (upstream role of a handover).
  virtual void BeforeForwardControl(const ControlEvent& ev);

  /// Emits a data batch to every downstream consumer (each output
  /// gate routes its own copy).
  void Emit(Batch batch);

  /// Forwards `ev` on every output gate.
  void ForwardControl(const ControlEvent& ev);

  /// True while the instance must not consume data (target awaiting
  /// state). Channels stay blocked until ReleaseAlignment().
  void HoldAlignment() { holding_ = true; }
  /// Unblocks channels held past alignment and resumes consumption.
  void ReleaseAlignment();

  Engine* engine_;

 private:
  /// One in-flight aligned control event. Several may overlap (e.g.
  /// reconfigurations of different operators in a multi-query job); FIFO
  /// channels guarantee that the oldest completes first, so only the front
  /// alignment blocks channels.
  struct Alignment {
    ControlEvent ev;
    std::set<int> channels;  // channels that delivered the marker
    uint64_t span = 0;       // open trace span (0 when tracing is off)
  };

  void TryProcessNext();
  void ProcessItem(int channel_idx, ChannelItem item);
  void OnControl(int channel_idx, const ControlEvent& ev);
  /// Completes front alignments as long as they are fully received.
  void MaybeCompleteFront();
  /// True when the alignment received its marker on every channel whose
  /// sender is still alive (dead senders cannot deliver markers).
  bool AlignmentComplete(const Alignment& alignment) const;

  std::string op_name_;
  int subtask_;
  int node_id_;
  ProcessingProfile profile_;

  std::vector<Channel*> inputs_;
  std::vector<std::deque<ChannelItem>> input_queues_;
  std::vector<std::unique_ptr<OutputGate>> outputs_;

  std::deque<Alignment> alignments_;
  /// Control events whose alignment this instance already completed. Late
  /// duplicate markers (e.g. in flight from a sender that died after the
  /// survivors aligned without it) would otherwise open a ghost alignment
  /// that can never complete.
  std::set<std::pair<int, uint64_t>> completed_controls_;
  bool holding_ = false;

  bool busy_ = false;
  bool halted_ = false;
  int poll_cursor_ = 0;
};

}  // namespace rhino::dataflow
