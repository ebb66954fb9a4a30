#include "net/node_server.h"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "rhino/checkpoint_storage.h"
#include "state/modeled_state_backend.h"

namespace rhino::net {

namespace {
/// Pacing between retries after a stream failure: without it a dead
/// successor turns the replicator into a busy loop (loopback Call and a
/// broken channel Submit both fail instantly).
constexpr auto kReplErrorPacing = std::chrono::milliseconds(20);
/// Deltas in flight to the successor before the replicator waits for
/// acks (the stream's own credit window).
constexpr uint32_t kReplCreditWindow = 2;
/// Upper bound on the checkpoint barrier's wait for stream drain.
constexpr int kBarrierTimeoutMs = 10'000;
}  // namespace

std::string CheckpointImagePath(const std::string& ckpt_dir,
                                uint32_t origin_node, const std::string& op) {
  return ckpt_dir + "/node-" + std::to_string(origin_node) + "-" + op +
         ".img";
}

NodeServer::NodeServer(lsm::Env* env, Transport* transport,
                       NodeServerOptions options, obs::Observability* obs)
    : env_(env),
      transport_(transport),
      options_(std::move(options)),
      obs_(obs != nullptr ? obs : obs::Observability::Default()) {
  if (transport_ != nullptr) {
    replicating_ = true;
    replicator_ = std::thread([this] { ReplicatorLoop(); });
  }
}

NodeServer::~NodeServer() { StopReplication(); }

void NodeServer::StopReplication() {
  {
    std::lock_guard<std::mutex> lock(repl_->mu);
    repl_->stop = true;
  }
  repl_->work_cv.notify_all();
  repl_->barrier_cv.notify_all();
  if (replicator_.joinable()) replicator_.join();
}

Result<std::string> NodeServer::Handle(MessageType type,
                                       std::string_view body) {
  if (type == MessageType::kCheckpoint) {
    // Manages its own locking: the barrier must wait with mu_ released so
    // the replicator can drain the stream.
    return HandleCheckpoint(body);
  }
  if (type == MessageType::kProcessBatch && options_.apply_delay_us > 0) {
    // Emulated service latency (bench seam) — outside mu_ so it models a
    // slow link, not a held lock.
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.apply_delay_us));
  }
  std::lock_guard<std::mutex> lock(mu_);
  switch (type) {
    case MessageType::kHello:
      return HandleHello(body);
    case MessageType::kAddOperator:
      return HandleAddOperator(body);
    case MessageType::kProcessBatch:
      return HandleProcessBatch(body);
    case MessageType::kCheckpoint:
      break;  // dispatched above
    case MessageType::kExtractVnodes:
      return HandleExtractVnodes(body);
    case MessageType::kIngestVnodes:
      return HandleIngestVnodes(body);
    case MessageType::kDropVnodes:
      return HandleDropVnodes(body);
    case MessageType::kReplicateState:
      return HandleReplicateState(body);
    case MessageType::kPromoteReplica:
    case MessageType::kRestoreFromCheckpoint:
      return HandleReplicaFetch(type, body);
    case MessageType::kQueryCount:
      return HandleQueryCount(body);
    case MessageType::kStats:
      return HandleStats();
    case MessageType::kShutdown:
      shutdown_.store(true);
      return std::string();
    case MessageType::kReply:
      break;
  }
  return Status::InvalidArgument(std::string("node cannot serve ") +
                                 MessageTypeName(type));
}

Result<NodeServer::Shard*> NodeServer::FindShard(const std::string& op) {
  auto it = shards_.find(op);
  if (it == shards_.end()) {
    return Status::NotFound("no operator shard: " + op);
  }
  return &it->second;
}

Result<std::string> NodeServer::HandleHello(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(HelloRequest req, HelloRequest::Decode(body));
  node_id_.store(req.node_id);
  successor_ = req.successor;
  RHINO_RETURN_NOT_OK(env_->CreateDir(options_.data_dir));
  RHINO_RETURN_NOT_OK(env_->CreateDir(options_.ckpt_dir));
  if (replicating_) {
    // The ring (re)formed: forget the old successor's failures and
    // re-baseline — everything owned ships again so the NEW successor
    // holds a complete replica, not just future deltas.
    {
      std::lock_guard<std::mutex> lock(repl_->mu);
      repl_->error = Status::OK();
    }
    for (const auto& [op, shard] : shards_) {
      MarkReplDirty(op, shard.host->owned());
    }
    repl_->work_cv.notify_all();
  }
  return std::string();
}

Result<std::string> NodeServer::HandleAddOperator(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(AddOperatorRequest req,
                         AddOperatorRequest::Decode(body));
  const dataflow::OperatorSpec& spec = req.spec;
  if (spec.num_vnodes == 0) {
    return Status::InvalidArgument("num_vnodes must be > 0");
  }
  auto it = shards_.find(spec.name);
  if (it != shards_.end()) {
    // Idempotent re-add (driver retry after a transport hiccup).
    const dataflow::OperatorSpec& have = it->second.host->spec();
    if (have.num_vnodes != spec.num_vnodes || have.kind != spec.kind) {
      return Status::AlreadyExists("operator " + spec.name +
                                   " exists with a different spec");
    }
    return std::string();
  }
  std::unique_ptr<state::StateBackend> backend;
  if (spec.kind == dataflow::OperatorKind::kModeledState) {
    // Modeled operators account bytes instead of materializing values —
    // no LSM shard on disk, same protocols above the backend interface.
    backend = std::make_unique<state::ModeledStateBackend>(spec.name,
                                                           node_id_.load());
  } else {
    // Real worker processes take flushes/compactions off the RPC thread:
    // a ProcessBatch that fills a memtable schedules the flush and
    // returns instead of paying for it inline (failures surface on the
    // next write).
    lsm::Options lsm_options;
    lsm_options.background_maintenance = true;
    RHINO_ASSIGN_OR_RETURN(
        backend,
        state::LsmStateBackend::Open(env_, options_.data_dir + "/" + spec.name,
                                     spec.name, node_id_.load(),
                                     std::move(lsm_options)));
  }
  const uint32_t num_vnodes = spec.num_vnodes;
  RHINO_ASSIGN_OR_RETURN(
      auto host,
      dataflow::OperatorHost::Create(
          spec, std::move(backend),
          [num_vnodes](uint64_t key) { return VnodeForKey(key, num_vnodes); },
          node_id_.load()));
  host->InitOwned(req.owned_vnodes);
  Shard shard;
  shard.host = std::move(host);
  shards_.emplace(spec.name, std::move(shard));
  // Baseline the stream: even before any traffic, the successor should
  // hold an (empty-state) replica of every owned vnode, so promotion
  // works for a node killed right after setup.
  MarkReplDirty(spec.name, req.owned_vnodes);
  return std::string();
}

Result<std::string> NodeServer::HandleProcessBatch(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ProcessBatchRequest req,
                         ProcessBatchRequest::Decode(body));
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(req.op));
  // The host runs the same dedup + operator core as the in-process
  // engine; strict ownership turns a misrouted record into a clean
  // FailedPrecondition before any state mutation.
  dataflow::Batch out;
  out.create_time = req.batch.create_time;
  RHINO_ASSIGN_OR_RETURN(
      dataflow::ApplyResult applied,
      shard->host->Apply(static_cast<int>(req.side), req.batch,
                         /*now=*/req.batch.create_time, &out,
                         /*strict_ownership=*/true));
  ProcessBatchReply reply;
  reply.applied = applied.applied;
  reply.deduped = applied.deduped;
  reply.applied_vnodes.assign(applied.applied_vnodes.begin(),
                              applied.applied_vnodes.end());
  if (req.return_outputs != 0 && out.count > 0) {
    EncodeBatch(out, &reply.outputs);
  }
  MarkReplDirty(req.op, applied.applied_vnodes);
  shard->applied += reply.applied;
  shard->deduped += reply.deduped;
  std::string encoded;
  reply.EncodeTo(&encoded);
  return encoded;
}

Result<rhino::ReplicaState> NodeServer::Snapshot(
    Shard* shard, const std::vector<uint32_t>& vnodes, uint64_t id) {
  RHINO_ASSIGN_OR_RETURN(dataflow::OperatorImage image,
                         shard->host->ExtractImage(vnodes, id));
  // For the join, this image is the unit of consistency: both side
  // columns of a vnode travel inside one blob.
  image.descriptor.instance_id = node_id_.load();
  rhino::ReplicaState rs;
  rs.latest_checkpoint_id = id;
  rs.latest_descriptor = std::move(image.descriptor);
  rs.vnode_blobs = std::move(image.blobs);
  return rs;
}

Status NodeServer::Absorb(const std::string& op, rhino::ReplicaState&& rs,
                          const std::vector<uint32_t>& vnodes,
                          bool already_durable) {
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(op));
  dataflow::OperatorImage image;
  // Blobs are stolen (they dominate the image); the descriptor is copied
  // because kPromoteReplica still returns it to the driver afterwards.
  image.descriptor = rs.latest_descriptor;
  image.blobs = std::move(rs.vnode_blobs);
  // Dedup positions come WITH the state: replay resumes exactly where the
  // snapshot stopped (the host assigns, never max-merges).
  RHINO_ASSIGN_OR_RETURN(std::vector<uint32_t> absorbed,
                         shard->host->Absorb(image, vnodes, already_durable));
  // Newly absorbed vnodes are writes this node's OWN successor has not
  // seen yet.
  MarkReplDirty(op, absorbed);
  return Status::OK();
}

Result<std::string> NodeServer::HandleCheckpoint(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(dataflow::ControlEvent ev, DecodeControlEvent(body));
  if (ev.type != dataflow::ControlEvent::Type::kCheckpointBarrier) {
    return Status::InvalidArgument("kCheckpoint body is not a barrier");
  }
  CheckpointReply reply;
  reply.checkpoint_id = ev.id;
  bool want_barrier = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [op, shard] : shards_) {
      const auto& owned_set = shard.host->owned();
      std::vector<uint32_t> owned(owned_set.begin(), owned_set.end());
      RHINO_ASSIGN_OR_RETURN(rhino::ReplicaState rs,
                             Snapshot(&shard, owned, ev.id));
      RHINO_ASSIGN_OR_RETURN(
          uint64_t bytes,
          rhino::WriteCheckpointImage(
              env_,
              CheckpointImagePath(options_.ckpt_dir, node_id_.load(), op),
              rs));
      reply.bytes += bytes;
      ++reply.operators;
    }
    want_barrier = replicating_ && !successor_.empty();
  }
  if (want_barrier) {
    // Replication already streamed in the background; the barrier only
    // waits for the stream to drain (sequence-number barrier),
    // independent of how much state the deltas carried.
    RHINO_RETURN_NOT_OK(WaitReplicationBarrier());
    reply.replicated = 1;
  }
  obs_->trace().Emit("net", "node_checkpoint",
                     "node" + std::to_string(node_id_.load()), ev.id,
                     {{"bytes", static_cast<int64_t>(reply.bytes)}});
  std::string out;
  reply.EncodeTo(&out);
  return out;
}

Result<std::string> NodeServer::HandleExtractVnodes(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(HandoverStateRequest req,
                         HandoverStateRequest::Decode(body));
  if (req.control.handover == nullptr ||
      req.move_index >= req.control.handover->moves.size()) {
    return Status::InvalidArgument("extract request without a valid move");
  }
  const auto& spec = *req.control.handover;
  const auto& move = spec.moves[req.move_index];
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(spec.operator_name));
  for (uint32_t vnode : move.vnodes) {
    if (!shard->host->Owns(vnode)) {
      return Status::FailedPrecondition("extract of unowned vnode " +
                                        std::to_string(vnode));
    }
  }
  RHINO_ASSIGN_OR_RETURN(rhino::ReplicaState rs,
                         Snapshot(shard, move.vnodes, spec.id));
  obs_->trace().Emit("net", "handover_extract",
                     "node" + std::to_string(node_id_.load()), spec.id,
                     {{"vnodes", static_cast<int64_t>(move.vnodes.size())}});
  std::string out;
  EncodeReplicaState(rs, &out);
  return out;
}

Result<std::string> NodeServer::HandleIngestVnodes(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(HandoverStateRequest req,
                         HandoverStateRequest::Decode(body));
  if (req.control.handover == nullptr ||
      req.move_index >= req.control.handover->moves.size()) {
    return Status::InvalidArgument("ingest request without a valid move");
  }
  const auto& spec = *req.control.handover;
  const auto& move = spec.moves[req.move_index];
  RHINO_ASSIGN_OR_RETURN(rhino::ReplicaState rs,
                         rhino::DecodeReplicaState(req.replica));
  RHINO_RETURN_NOT_OK(Absorb(spec.operator_name, std::move(rs), move.vnodes,
                             req.durable != 0));
  obs_->trace().Emit("net", "handover_ingest",
                     "node" + std::to_string(node_id_.load()), spec.id,
                     {{"vnodes", static_cast<int64_t>(move.vnodes.size())}});
  return std::string();
}

Result<std::string> NodeServer::HandleDropVnodes(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(VnodeSetRequest req, VnodeSetRequest::Decode(body));
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(req.op));
  RHINO_RETURN_NOT_OK(shard->host->Drop(req.vnodes));
  if (replicating_ && !req.vnodes.empty()) {
    // Dropped vnodes become stream tombstones: the successor must purge
    // them from its replica, or a later promotion would resurrect state
    // that was handed to another node (double counting).
    {
      std::lock_guard<std::mutex> lock(repl_->mu);
      auto dit = repl_->dirty.find(req.op);
      if (dit != repl_->dirty.end()) {
        for (uint32_t vnode : req.vnodes) dit->second.erase(vnode);
        if (dit->second.empty()) repl_->dirty.erase(dit);
      }
      auto& tomb = repl_->dropped[req.op];
      tomb.insert(req.vnodes.begin(), req.vnodes.end());
    }
    repl_->work_cv.notify_all();
  }
  return std::string();
}

Result<std::string> NodeServer::HandleReplicateState(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ReplicateStateRequest req,
                         ReplicateStateRequest::Decode(body));
  RHINO_ASSIGN_OR_RETURN(rhino::ReplicaState rs,
                         rhino::DecodeReplicaState(req.replica));
  // Merge per vnode. The channel delivers deltas in stream order, so
  // last-writer-wins per vnode is exactly the origin's latest snapshot of
  // it.
  auto& dst = replicas_[{req.origin_node, req.op}];
  if (rs.latest_checkpoint_id > dst.latest_checkpoint_id) {
    dst.latest_checkpoint_id = rs.latest_checkpoint_id;
    dst.latest_descriptor.checkpoint_id = rs.latest_descriptor.checkpoint_id;
  }
  dst.latest_descriptor.operator_name = rs.latest_descriptor.operator_name;
  dst.latest_descriptor.instance_id = rs.latest_descriptor.instance_id;
  // desc.vnode_bytes names every vnode the delta carries (a blob may be
  // absent when the vnode's state is empty — then the replica's copy is
  // cleared, not kept).
  for (const auto& [vnode, bytes] : rs.latest_descriptor.vnode_bytes) {
    dst.latest_descriptor.vnode_bytes[vnode] = bytes;
    auto marks = rs.latest_descriptor.vnode_watermarks.find(vnode);
    if (marks != rs.latest_descriptor.vnode_watermarks.end()) {
      dst.latest_descriptor.vnode_watermarks[vnode] = marks->second;
    } else {
      dst.latest_descriptor.vnode_watermarks.erase(vnode);
    }
    auto blob = rs.vnode_blobs.find(vnode);
    if (blob != rs.vnode_blobs.end()) {
      dst.vnode_blobs[vnode] = std::move(blob->second);
    } else {
      dst.vnode_blobs.erase(vnode);
    }
  }
  for (uint32_t vnode : req.dropped_vnodes) {
    dst.vnode_blobs.erase(vnode);
    dst.latest_descriptor.vnode_bytes.erase(vnode);
    dst.latest_descriptor.vnode_watermarks.erase(vnode);
  }
  return std::string();
}

Result<std::string> NodeServer::HandleReplicaFetch(MessageType type,
                                                   std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ReplicaFetchRequest req,
                         ReplicaFetchRequest::Decode(body));
  rhino::ReplicaState rs;
  if (type == MessageType::kPromoteReplica) {
    auto it = replicas_.find({req.origin_node, req.op});
    if (it == replicas_.end()) {
      return Status::NotFound("no replica of node " +
                              std::to_string(req.origin_node) + " op " +
                              req.op + " on node " +
                              std::to_string(node_id_.load()));
    }
    rs = it->second;
  } else {
    RHINO_ASSIGN_OR_RETURN(
        rs, rhino::ReadCheckpointImage(
                env_, CheckpointImagePath(options_.ckpt_dir, req.origin_node,
                                          req.op)));
  }
  RHINO_RETURN_NOT_OK(
      Absorb(req.op, std::move(rs), req.vnodes, /*already_durable=*/true));
  obs_->trace().Emit(
      "net",
      type == MessageType::kPromoteReplica ? "promote_replica"
                                           : "restore_from_checkpoint",
      "node" + std::to_string(node_id_.load()), rs.latest_checkpoint_id,
      {{"origin", static_cast<int64_t>(req.origin_node)}});
  // The reply is the image minus the blobs: the driver only needs the
  // descriptor (replay watermarks) to rewind its partition cursors.
  rs.vnode_blobs.clear();
  std::string out;
  EncodeReplicaState(rs, &out);
  return out;
}

Result<std::string> NodeServer::HandleQueryCount(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(QueryCountRequest req,
                         QueryCountRequest::Decode(body));
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(req.op));
  uint32_t vnode = shard->host->VnodeOf(req.key);
  if (!shard->host->Owns(vnode)) {
    return Status::FailedPrecondition("query for unowned vnode " +
                                      std::to_string(vnode));
  }
  RHINO_ASSIGN_OR_RETURN(dataflow::OperatorQueryResult result,
                         shard->host->Query(req.key));
  QueryCountReply reply;
  reply.count = result.count;
  reply.left = result.left;
  reply.right = result.right;
  std::string out;
  reply.EncodeTo(&out);
  return out;
}

Result<std::string> NodeServer::HandleStats() {
  StatsReply reply;
  for (const auto& [op, shard] : shards_) {
    reply.applied += shard.applied;
    reply.deduped += shard.deduped;
    reply.owned_vnodes += shard.host->owned().size();
    reply.state_bytes += shard.host->backend()->SizeBytes();
  }
  reply.replicas_held = replicas_.size();
  {
    std::lock_guard<std::mutex> lock(repl_->mu);
    for (const auto& [op, set] : repl_->dirty) reply.repl_dirty += set.size();
    for (const auto& [op, set] : repl_->dropped) {
      reply.repl_dirty += set.size();
    }
    reply.repl_inflight = repl_->inflight;
    reply.repl_stream_seq = repl_->stream_seq;
    reply.repl_shipped = repl_->shipped;
  }
  std::string out;
  reply.EncodeTo(&out);
  return out;
}

void NodeServer::ReplicatorLoop() {
  // The loop holds repl_->mu only for bookkeeping and mu_ only while
  // snapshotting; the actual ship is an async submit, so writers are
  // never blocked behind the network.
  auto repl = repl_;
  while (true) {
    std::string op;
    std::vector<uint32_t> vnodes;
    std::vector<uint32_t> dropped;
    bool paced = false;
    {
      std::unique_lock<std::mutex> lock(repl->mu);
      repl->work_cv.wait(lock, [&] {
        return repl->stop ||
               ((!repl->dirty.empty() || !repl->dropped.empty()) &&
                repl->inflight < kReplCreditWindow);
      });
      if (repl->stop) return;
      op = !repl->dirty.empty() ? repl->dirty.begin()->first
                                : repl->dropped.begin()->first;
      auto dit = repl->dirty.find(op);
      if (dit != repl->dirty.end()) {
        vnodes.assign(dit->second.begin(), dit->second.end());
        repl->dirty.erase(dit);
      }
      auto tit = repl->dropped.find(op);
      if (tit != repl->dropped.end()) {
        dropped.assign(tit->second.begin(), tit->second.end());
        repl->dropped.erase(tit);
      }
      ++repl->inflight;  // credit spent before the lock drops
      paced = !repl->error.ok();
    }
    if (paced) {
      // Last ship failed (dead successor until the ring re-forms): retry,
      // but not in a busy loop.
      std::this_thread::sleep_for(kReplErrorPacing);
      std::lock_guard<std::mutex> lock(repl->mu);
      if (repl->stop) {
        --repl->inflight;
        return;
      }
    }
    // Snapshot a consistent delta under mu_: each vnode's blob and its
    // replay watermarks are captured together, so a promoted replica
    // resumes dedup exactly where its state stopped.
    ReplicateStateRequest req;
    std::string successor;
    Status failure;
    bool have = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      successor = successor_;
      if (!successor.empty()) {
        auto it = shards_.find(op);
        std::vector<uint32_t> live;
        if (it != shards_.end()) {
          for (uint32_t vnode : vnodes) {
            // A vnode dirtied then handed away ships as a tombstone, not
            // as state.
            if (it->second.host->Owns(vnode)) live.push_back(vnode);
          }
        }
        if (!live.empty() || !dropped.empty()) {
          uint64_t seq;
          {
            std::lock_guard<std::mutex> rlock(repl->mu);
            seq = ++repl->stream_seq;
          }
          rhino::ReplicaState rs;
          if (!live.empty()) {
            auto snap = Snapshot(&it->second, live, seq);
            if (!snap.ok()) {
              failure = snap.status();
            } else {
              rs = std::move(snap).MoveValue();
            }
          } else {
            rs.latest_checkpoint_id = seq;
            rs.latest_descriptor.checkpoint_id = seq;
            rs.latest_descriptor.operator_name = op;
            rs.latest_descriptor.instance_id = node_id_.load();
          }
          if (failure.ok()) {
            req.origin_node = node_id_.load();
            req.op = op;
            rhino::EncodeReplicaState(rs, &req.replica);
            req.stream_seq = seq;
            req.dropped_vnodes = dropped;
            have = true;
          }
        }
      }
    }
    if (!have) {
      // Nothing to ship (no successor, or the vnodes all moved away) or
      // the snapshot failed. Return the credit; re-mark on failure.
      std::lock_guard<std::mutex> lock(repl->mu);
      --repl->inflight;
      if (!failure.ok()) {
        repl->error = failure;
        repl->dirty[op].insert(vnodes.begin(), vnodes.end());
        if (!dropped.empty()) {
          repl->dropped[op].insert(dropped.begin(), dropped.end());
        }
      }
      repl->work_cv.notify_all();
      repl->barrier_cv.notify_all();
      continue;
    }
    std::string req_body;
    req.EncodeTo(&req_body);
    // The callback captures only the shared stream block (+ the work it
    // would have to re-mark): the transport may run it after this
    // NodeServer is gone.
    Status submitted = transport_->CallAsync(
        successor, MessageType::kReplicateState, std::move(req_body),
        [repl, op, vnodes, dropped](Status st, std::string /*reply*/) {
          {
            std::lock_guard<std::mutex> lock(repl->mu);
            --repl->inflight;
            if (st.ok()) {
              ++repl->shipped;
              repl->error = Status::OK();
            } else {
              // Unacked work goes back on the stream; a waiting barrier
              // fails fast on the sticky error.
              repl->error = st;
              repl->dirty[op].insert(vnodes.begin(), vnodes.end());
              if (!dropped.empty()) {
                repl->dropped[op].insert(dropped.begin(), dropped.end());
              }
            }
          }
          repl->work_cv.notify_all();
          repl->barrier_cv.notify_all();
        });
    if (!submitted.ok()) {
      // Never handed to the transport — the callback will not run.
      {
        std::lock_guard<std::mutex> lock(repl->mu);
        --repl->inflight;
        repl->error = submitted;
        repl->dirty[op].insert(vnodes.begin(), vnodes.end());
        if (!dropped.empty()) {
          repl->dropped[op].insert(dropped.begin(), dropped.end());
        }
      }
      repl->work_cv.notify_all();
      repl->barrier_cv.notify_all();
    }
  }
}

Status NodeServer::WaitReplicationBarrier() {
  auto repl = repl_;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(kBarrierTimeoutMs);
  std::unique_lock<std::mutex> lock(repl->mu);
  bool done = repl->barrier_cv.wait_until(lock, deadline, [&] {
    return repl->stop || !repl->error.ok() ||
           (repl->dirty.empty() && repl->dropped.empty() &&
            repl->inflight == 0);
  });
  if (!repl->error.ok()) {
    return Status(repl->error.code(),
                  "replication stream to successor failed: " +
                      repl->error.ToString());
  }
  if (repl->stop) return Status::Aborted("node stopping");
  if (!done) {
    return Status::TimedOut("replication barrier: stream not drained after " +
                            std::to_string(kBarrierTimeoutMs) + "ms");
  }
  return Status::OK();
}

}  // namespace rhino::net
