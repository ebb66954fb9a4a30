#include "rhino/replication_runtime.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace rhino::rhino {

namespace {

/// Seed of the watchdog's and the catch-up copies' backoff jitter, mixed
/// with the checkpoint id.
constexpr uint64_t kRetrySeed = 0x7e71;

/// One-way latency of a (tiny) ack message.
constexpr SimTime kAckLatency = 200;

}  // namespace

/// One checkpoint's journey down a replica chain.
struct ReplicationRuntime::Transfer {
  std::string op;
  uint32_t subtask = 0;
  std::vector<int> path;  // [primary, replica_1, ..., replica_r]
  uint64_t total_chunks = 0;
  uint64_t chunk_bytes = 0;
  uint64_t last_chunk_bytes = 0;
  state::CheckpointDescriptor desc;
  std::map<uint32_t, state::VnodeImage> images;
  std::function<void(Status)> done;

  std::vector<uint64_t> next_to_send;  // per hop
  std::vector<int> credits;            // per hop
  /// Per path node: length of the contiguous received-chunk prefix — how
  /// far this node can pump the next hop.
  std::vector<uint64_t> contiguous;
  /// Per path node: chunks spooled to disk.
  std::vector<uint64_t> durable;
  /// Per path node, per chunk: arrival / durability bitmaps. A dropped
  /// chunk (injected partition) is retransmitted by the stall watchdog;
  /// these make the duplicate deliveries that retransmission can cause
  /// idempotent.
  std::vector<std::vector<bool>> received;
  std::vector<std::vector<bool>> written;
  std::map<int, int> disk_cursor;
  std::function<void()> finalize;
  bool completed = false;
  uint64_t span = 0;  // open "replication"/"transfer" trace span

  /// Forward-progress ticks (arrivals + durability acks); the watchdog
  /// compares against `progress_marker` to detect a stall.
  uint64_t progress = 0;
  uint64_t progress_marker = 0;
  std::unique_ptr<sim::Retrier> retrier;

  uint64_t ChunkSize(uint64_t index) const {
    return index + 1 == total_chunks ? last_chunk_bytes : chunk_bytes;
  }
};

/// One catch-up copy in flight: `finished` makes the first terminal event
/// (copy durable, target/source death, retry budget exhausted) win, so
/// `finish` fires exactly once even when a timed-out attempt's delivery
/// races a retry.
struct ReplicationRuntime::CatchUp {
  std::string key;
  int source = -1;
  int target = -1;
  uint64_t bytes = 0;
  std::shared_ptr<ReplicaState> snapshot;
  std::function<void(Status)> finish;
  std::shared_ptr<sim::Retrier> retrier;
  bool finished = false;

  /// First terminal event wins.
  bool Finish(Status st) {
    if (std::exchange(finished, true)) return false;
    finish(std::move(st));
    return true;
  }
};

void ReplicationRuntime::ReplicateCheckpoint(
    const std::string& op, uint32_t subtask, int primary_node,
    const state::CheckpointDescriptor& desc,
    std::map<uint32_t, state::VnodeImage> images,
    std::function<void(Status)> done) {
  std::vector<int> group = manager_->Group(op, subtask);
  uint64_t delta = desc.DeltaBytes();
  if (probe_) probe_("replication_transfer");
  obs_->metrics().GetCounter("rhino_replication_transfers_total")->Increment();

  auto transfer = std::make_shared<Transfer>();
  transfer->op = op;
  transfer->subtask = subtask;
  transfer->path.push_back(primary_node);
  for (int n : group) transfer->path.push_back(n);
  transfer->chunk_bytes = options_.chunk_bytes;
  transfer->total_chunks =
      delta == 0 ? 0 : (delta + options_.chunk_bytes - 1) / options_.chunk_bytes;
  transfer->last_chunk_bytes =
      delta == 0 ? 0 : delta - (transfer->total_chunks - 1) * options_.chunk_bytes;
  transfer->desc = desc;
  transfer->images = std::move(images);
  transfer->done = std::move(done);

  size_t hops = transfer->path.size() - 1;
  size_t members = transfer->path.size();
  uint64_t chunks = transfer->total_chunks;
  transfer->next_to_send.assign(hops, 0);
  transfer->credits.assign(hops, options_.credit_window);
  transfer->contiguous.assign(members, 0);
  transfer->durable.assign(members, 0);
  transfer->received.assign(members, std::vector<bool>(chunks, false));
  transfer->written.assign(members, std::vector<bool>(chunks, false));
  transfer->contiguous[0] = chunks;  // primary has everything
  transfer->durable[0] = chunks;
  transfer->received[0].assign(chunks, true);
  transfer->written[0].assign(chunks, true);
  transfer->span = obs_->trace().BeginSpan(
      "replication", "transfer", Key(op, subtask), desc.checkpoint_id,
      {{"bytes", static_cast<int64_t>(delta)},
       {"hops", static_cast<int64_t>(hops)}});

  // Called from the tail's durability callback.
  auto finalize = [this, transfer] {
    if (transfer->completed) return;
    transfer->completed = true;
    // Record the secondary copies against the group's *current* live
    // membership: HandleWorkerFailure may have rewritten the group while
    // the chunks were in flight, and a node that left the group (or died)
    // must not be advertised as a replica holder.
    std::string key = Key(transfer->op, transfer->subtask);
    bool has_group = manager_->HasGroup(transfer->op, transfer->subtask);
    std::vector<int> group_now;
    if (has_group) {
      group_now = manager_->Group(transfer->op, transfer->subtask);
    }
    for (size_t i = 1; i < transfer->path.size(); ++i) {
      int node = transfer->path[i];
      if (!cluster_->node(node).alive()) continue;
      if (has_group && std::find(group_now.begin(), group_now.end(), node) ==
                           group_now.end()) {
        continue;
      }
      ReplicaState& rep = replicas_[key][node];
      rep.latest_checkpoint_id = transfer->desc.checkpoint_id;
      rep.latest_descriptor = transfer->desc;
      // Replace wholesale: the images cover every vnode the instance owned
      // at snapshot time, so merging would only keep stale images of vnodes
      // that moved away since the previous checkpoint.
      rep.images = transfer->images;
    }
    checkpoints_replicated_ += 1;
    obs_->metrics()
        .GetCounter("rhino_replication_completed_total")
        ->Increment();
    obs_->trace().EndSpan(transfer->span);
    // Tail ack travels back up the chain, one hop latency each.
    SimTime ack = kAckLatency * static_cast<SimTime>(transfer->path.size() - 1);
    cluster_->sim()->Schedule(ack,
                              [transfer] { transfer->done(Status::OK()); });
  };

  if (transfer->total_chunks == 0) {
    finalize();
    return;
  }
  transfer->finalize = std::move(finalize);
  transfer->retrier = std::make_unique<sim::Retrier>(
      cluster_->sim()->Now(), kReplicationRetry,
      kRetrySeed ^ desc.checkpoint_id, "replication_transfer", obs_);
  ArmWatchdog(transfer, kReplicationRetry.initial_backoff_us);
  for (size_t hop = 0; hop < hops; ++hop) PumpHop(transfer, hop);
}

void ReplicationRuntime::ArmWatchdog(std::shared_ptr<Transfer> transfer,
                                     SimTime delay) {
  cluster_->sim()->Schedule(delay, [this, transfer] {
    if (transfer->completed) return;  // done or aborted: watchdog retires
    if (transfer->progress != transfer->progress_marker) {
      // Forward progress since the last check: reset the backoff ladder
      // and the stall deadline, check again after the base interval.
      transfer->progress_marker = transfer->progress;
      transfer->retrier->Arm(cluster_->sim()->Now());
      ArmWatchdog(transfer, kReplicationRetry.initial_backoff_us);
      return;
    }
    SimTime backoff = 0;
    SimTime now = cluster_->sim()->Now();
    if (!transfer->retrier->NextBackoff(now, &backoff)) {
      AbortTransfer(transfer,
                    transfer->retrier->Exhausted(
                        now, Status::TimedOut("replication chain stalled")));
      return;
    }
    // Stalled (chunks or durability acks lost): rewind each hop to its
    // receiver's contiguous prefix and restore full credits. Duplicate
    // deliveries of chunks that were merely delayed are absorbed by the
    // received/written bitmaps.
    retransmit_rounds_ += 1;
    obs_->metrics()
        .GetCounter("rhino_replication_retransmit_rounds_total")
        ->Increment();
    obs_->trace().Emit("replication", "retransmit",
                       Key(transfer->op, transfer->subtask),
                       transfer->desc.checkpoint_id);
    if (probe_) probe_("replication_retry");
    size_t hops = transfer->path.size() - 1;
    for (size_t h = 0; h < hops; ++h) {
      transfer->next_to_send[h] = transfer->contiguous[h + 1];
      transfer->credits[h] = options_.credit_window;
    }
    for (size_t h = 0; h < hops; ++h) {
      PumpHop(transfer, h);
      if (transfer->completed) return;
    }
    ArmWatchdog(transfer, backoff);
  });
}

void ReplicationRuntime::AbortTransfer(const std::shared_ptr<Transfer>& transfer,
                                       Status status) {
  if (transfer->completed) return;
  transfer->completed = true;
  // Break the self-reference cycle: `finalize` captures the transfer's own
  // shared_ptr, so a stored copy would keep the object alive forever.
  transfer->finalize = nullptr;
  transfers_aborted_ += 1;
  obs_->metrics().GetCounter("rhino_replication_aborted_total")->Increment();
  obs_->trace().EndSpan(transfer->span, {{"aborted", 1}});
  obs_->trace().Emit("replication", "abort",
                     Key(transfer->op, transfer->subtask),
                     transfer->desc.checkpoint_id);
  RHINO_LOG(Warn) << "replication of " << transfer->op << "#"
                  << transfer->subtask << " ckpt "
                  << transfer->desc.checkpoint_id
                  << " aborted: " << status.ToString();
  if (transfer->done) transfer->done(std::move(status));
}

void ReplicationRuntime::PumpHop(std::shared_ptr<Transfer> transfer,
                                 size_t hop) {
  if (transfer->completed) return;
  while (transfer->credits[hop] > 0 &&
         transfer->next_to_send[hop] < transfer->contiguous[hop]) {
    int src = transfer->path[hop];
    int dst = transfer->path[hop + 1];
    // Fail-stop detection: a dead sender cannot pump, a dead receiver
    // cannot spool. Either way the chain is broken — complete with an
    // error instead of streaming into the void (the next checkpoint, or a
    // catch-up transfer, re-replicates). A fail-stop is *permanent*
    // (Aborted, never retried), unlike the transient stalls the watchdog
    // absorbs.
    if (!cluster_->node(src).alive() || !cluster_->node(dst).alive()) {
      int dead = cluster_->node(src).alive() ? dst : src;
      AbortTransfer(transfer,
                    Status::Aborted("replica chain member node " +
                                    std::to_string(dead) + " fail-stopped"));
      return;
    }
    uint64_t chunk = transfer->next_to_send[hop]++;
    --transfer->credits[hop];
    int in_flight = options_.credit_window - transfer->credits[hop];
    max_in_flight_ = std::max(max_in_flight_, in_flight);

    uint64_t bytes = transfer->ChunkSize(chunk);
    bytes_replicated_ += bytes;
    chunks_metric_->Increment();
    chunk_bytes_metric_->Increment(bytes);
    if (probe_) probe_("replication_chunk");
    cluster_->Transfer(
        src, dst, bytes,
        [this, transfer, hop, chunk, bytes] {
          if (transfer->completed) return;
          // Chunk arrived at the receiver: it may flow further down the
          // chain immediately (chain replication pipelines hops)...
          size_t receiver = hop + 1;
          int node_id = transfer->path[receiver];
          if (!cluster_->node(node_id).alive()) {
            AbortTransfer(transfer, Status::Aborted(
                                        "replica chain member node " +
                                        std::to_string(node_id) +
                                        " fail-stopped mid-transfer"));
            return;
          }
          if (transfer->received[receiver][chunk]) return;  // retransmit dup
          transfer->received[receiver][chunk] = true;
          ++transfer->progress;
          uint64_t& prefix = transfer->contiguous[receiver];
          while (prefix < transfer->total_chunks &&
                 transfer->received[receiver][prefix]) {
            ++prefix;
          }
          if (receiver < transfer->path.size() - 1) {
            PumpHop(transfer, receiver);
            if (transfer->completed) return;
          }
          // ...while the receiver spools it to disk asynchronously. The
          // credit returns only once the chunk is durable (credit-based
          // flow control: the sender can never overrun a slow receiver's
          // storage).
          sim::Node& node = cluster_->node(node_id);
          int disk = transfer->disk_cursor[node_id]++ % node.num_disks();
          node.disk(disk).Write(
              bytes, [this, transfer, hop, receiver, chunk, node_id] {
                if (transfer->completed) return;
                if (!cluster_->node(node_id).alive()) {
                  AbortTransfer(transfer,
                                Status::Aborted(
                                    "replica chain member node " +
                                    std::to_string(node_id) +
                                    " fail-stopped before durability"));
                  return;
                }
                if (transfer->written[receiver][chunk]) return;
                transfer->written[receiver][chunk] = true;
                ++transfer->durable[receiver];
                ++transfer->progress;
                // A watchdog reset may have already restored full credits;
                // clamp so late durability acks cannot overshoot the window.
                transfer->credits[hop] =
                    std::min(options_.credit_window, transfer->credits[hop] + 1);
                PumpHop(transfer, hop);
                if (transfer->completed) return;
                if (receiver == transfer->path.size() - 1 &&
                    transfer->durable[receiver] == transfer->total_chunks) {
                  // Move the closure out before invoking: it captures the
                  // transfer's own shared_ptr, and a stored copy would
                  // cycle.
                  auto fin = std::move(transfer->finalize);
                  fin();
                }
              });
            },
        sim::TransferKind::kState);
  }
}

const ReplicaState* ReplicationRuntime::ReplicaOn(const std::string& op,
                                                  uint32_t subtask,
                                                  int node) const {
  if (!cluster_->node(node).alive()) return nullptr;
  auto it = replicas_.find(Key(op, subtask));
  if (it == replicas_.end()) return nullptr;
  auto nit = it->second.find(node);
  if (nit == it->second.end()) return nullptr;
  return &nit->second;
}

int ReplicationRuntime::LiveReplicaNode(const std::string& op,
                                        uint32_t subtask) const {
  auto it = replicas_.find(Key(op, subtask));
  if (it == replicas_.end()) return -1;
  int best = -1;
  uint64_t best_id = 0;
  for (const auto& [node, rep] : it->second) {
    if (!cluster_->node(node).alive()) continue;
    if (best < 0 || rep.latest_checkpoint_id > best_id) {
      best = node;
      best_id = rep.latest_checkpoint_id;
    }
  }
  return best;
}

const ReplicaState* ReplicationRuntime::FindVnodeReplica(
    const std::string& op, uint32_t vnode, int preferred_node,
    int* holder) const {
  *holder = -1;
  const ReplicaState* best = nullptr;
  std::string prefix = op + "#";
  for (auto it = replicas_.lower_bound(prefix);
       it != replicas_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    for (const auto& [node, rep] : it->second) {
      if (!cluster_->node(node).alive()) continue;
      if (!rep.images.count(vnode)) continue;
      bool fresher =
          best == nullptr ||
          rep.latest_checkpoint_id > best->latest_checkpoint_id ||
          (rep.latest_checkpoint_id == best->latest_checkpoint_id &&
           node == preferred_node && *holder != preferred_node);
      if (fresher) {
        best = &rep;
        *holder = node;
      }
    }
  }
  return best;
}

void ReplicationRuntime::PurgeNode(int node) {
  size_t purged = 0;
  for (auto& [key, per_node] : replicas_) {
    purged += per_node.erase(node);
  }
  if (purged > 0) {
    RHINO_LOG(Info) << "purged " << purged
                    << " replica catalog entries of dead node " << node;
  }
}

void ReplicationRuntime::CatchUpReplicas(const std::string& op,
                                         uint32_t subtask,
                                         std::function<void(Status)> done) {
  if (!manager_->HasGroup(op, subtask)) {
    if (done) done(Status::NotFound("no replica group for " + Key(op, subtask)));
    return;
  }
  std::string key = Key(op, subtask);
  // Newest complete copy on a live node: the catch-up source.
  int source = LiveReplicaNode(op, subtask);
  if (source < 0) {
    // Nothing replicated yet (or every copy died): the next full
    // checkpoint rebuilds the group from the primary.
    if (done) done(Status::OK());
    return;
  }
  const ReplicaState* ref = ReplicaOn(op, subtask, source);
  RHINO_CHECK(ref != nullptr);

  std::vector<int> lagging;
  for (int m : manager_->Group(op, subtask)) {
    if (!cluster_->node(m).alive()) continue;
    const ReplicaState* have = ReplicaOn(op, subtask, m);
    if (have != nullptr &&
        have->latest_checkpoint_id >= ref->latest_checkpoint_id) {
      continue;
    }
    lagging.push_back(m);
  }
  if (lagging.empty()) {
    if (done) done(Status::OK());
    return;
  }

  // Copy the reference state now: the catalog entry may be overwritten by
  // the next checkpoint (or purged) while the copies are on the wire.
  auto snapshot = std::make_shared<ReplicaState>(*ref);
  // The last copy to finish reports the first failure, or OK.
  struct Settle {
    size_t remaining = 0;
    Status aggregate = Status::OK();
    std::function<void(Status)> done;
  };
  auto ctl = std::make_shared<Settle>();
  ctl->remaining = lagging.size();
  ctl->done = std::move(done);
  uint64_t bytes = snapshot->latest_descriptor.TotalBytes();
  for (int m : lagging) {
    auto copy = std::make_shared<CatchUp>();
    copy->key = key;
    copy->source = source;
    copy->target = m;
    copy->bytes = bytes;
    copy->snapshot = snapshot;
    copy->finish = [this, ctl](Status st) {
      if (!st.ok()) {
        if (ctl->aggregate.ok()) ctl->aggregate = std::move(st);
      }
      if (--ctl->remaining == 0 && ctl->done) {
        ctl->done(ctl->aggregate);
      }
    };
    copy->retrier = std::make_shared<sim::Retrier>(
        cluster_->sim()->Now(), kReplicationRetry,
        kRetrySeed ^ (snapshot->latest_checkpoint_id * 31 +
                      static_cast<uint64_t>(m)),
        "replication_catchup", obs_);
    AttemptCatchUp(std::move(copy));
  }
}

void ReplicationRuntime::AttemptCatchUp(std::shared_ptr<CatchUp> ctl) {
  if (ctl->finished) return;
  int m = ctl->target;
  // Fail-stops are permanent: no retry brings the copy (or its source)
  // back, so surface Aborted immediately.
  if (!cluster_->node(m).alive()) {
    ctl->Finish(Status::Aborted("catch-up target node " + std::to_string(m) +
                                " died"));
    return;
  }
  if (!cluster_->node(ctl->source).alive()) {
    ctl->Finish(Status::Aborted("catch-up source node " +
                                std::to_string(ctl->source) + " died"));
    return;
  }
  uint64_t bytes = ctl->bytes;
  catchup_transfers_ += 1;
  catchup_bytes_ += bytes;
  obs_->metrics().GetCounter("rhino_replication_catchup_total")->Increment();
  obs_->metrics()
      .GetCounter("rhino_replication_catchup_bytes_total")
      ->Increment(bytes);
  obs_->trace().Emit("replication", "catchup", ctl->key,
                     ctl->snapshot->latest_checkpoint_id,
                     {{"target_node", m},
                      {"bytes", static_cast<int64_t>(bytes)},
                      {"attempt", ctl->retrier->retries() + 1}});
  cluster_->Transfer(
      ctl->source, m, bytes,
      [this, ctl, m, bytes]() mutable {
        if (ctl->finished) return;
        if (!cluster_->node(m).alive()) {
          ctl->Finish(Status::Aborted("catch-up target node " +
                                      std::to_string(m) + " died"));
          return;
        }
        sim::Node& node = cluster_->node(m);
        int disk = disk_cursor_[m]++ % node.num_disks();
        node.disk(disk).Write(bytes, [this, ctl, m]() mutable {
          if (!cluster_->node(m).alive()) {
            ctl->Finish(Status::Aborted("catch-up target node " +
                                        std::to_string(m) + " died"));
            return;
          }
          if (ctl->Finish(Status::OK())) {
            replicas_[ctl->key][m] = *ctl->snapshot;
          }
        });
      },
      sim::TransferKind::kState);
  // Timeout guard: if the copy is not durable within a generous multiple
  // of its fault-free duration (the transfer may be dropped by an injected
  // partition), retry with backoff; an exhausted budget surfaces TimedOut.
  const sim::NodeSpec& spec = cluster_->node(m).spec();
  SimTime expected =
      TransferTime(bytes, spec.net_bytes_per_sec) +
      TransferTime(bytes, spec.disk_write_bytes_per_sec) + spec.net_latency;
  SimTime timeout = expected * 3 + 50 * kMillisecond;
  cluster_->sim()->Schedule(timeout, [this, ctl] {
    if (ctl->finished) return;
    SimTime backoff = 0;
    if (!ctl->retrier->NextBackoff(cluster_->sim()->Now(), &backoff)) {
      ctl->Finish(ctl->retrier->Exhausted(
          cluster_->sim()->Now(),
          Status::TimedOut("catch-up copy to node " +
                           std::to_string(ctl->target) +
                           " not durable in time")));
      return;
    }
    cluster_->sim()->Schedule(backoff, [this, ctl]() mutable {
      AttemptCatchUp(std::move(ctl));
    });
  });
}

void ReplicationRuntime::SeedReplica(const std::string& op, uint32_t subtask,
                                     const state::CheckpointDescriptor& desc,
                                     std::map<uint32_t, state::VnodeImage> images) {
  std::vector<int> group = manager_->Group(op, subtask);
  std::string key = Key(op, subtask);
  for (int node : group) {
    ReplicaState& rep = replicas_[key][node];
    rep.latest_checkpoint_id = desc.checkpoint_id;
    rep.latest_descriptor = desc;
    for (const auto& [vnode, image] : images) rep.images[vnode] = image;
  }
}

}  // namespace rhino::rhino
