#include "net/node_server.h"

#include <chrono>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "net/checkpoint_chain.h"

namespace rhino::net {

namespace {
using Clock = std::chrono::steady_clock;

/// Pacing between retries after a stream failure: without it a dead
/// holder turns the replicator into a busy loop (loopback Call and a
/// broken channel Submit both fail instantly).
constexpr auto kReplErrorPacing = std::chrono::milliseconds(20);
/// Deltas in flight to one holder before its stream waits for acks (each
/// stream's own credit window).
constexpr uint32_t kReplCreditWindow = 2;
/// Upper bound on the checkpoint barrier's wait for stream drain.
constexpr int kBarrierTimeoutMs = 10'000;

void Bump(obs::Counter* counter, uint64_t delta = 1) {
  if (counter != nullptr) counter->Increment(delta);
}
}  // namespace

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
  if (type == MessageType::kExtractVnodes) {
    // Same: an extract waits for the moved vnodes' streams to drain.
    return HandleExtractVnodes(body);
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
    case MessageType::kExtractVnodes:
      break;  // dispatched above
    case MessageType::kIngestVnodes:
      return HandleIngestVnodes(body);
    case MessageType::kDropVnodes:
      return HandleDropVnodes(body);
    case MessageType::kReplicateState:
      return HandleReplicateState(body);
    case MessageType::kPromoteReplica:
      return HandlePromoteReplica(body);
    case MessageType::kRelabelVnodes:
      return HandleRelabelVnodes(body);
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
  peers_ = std::move(req.peers);
  RHINO_RETURN_NOT_OK(env_->CreateDir(options_.data_dir));
  RHINO_RETURN_NOT_OK(env_->CreateDir(options_.ckpt_dir));
  auto& registry = obs_->metrics();
  const obs::Labels node = {{"node", std::to_string(req.node_id)}};
  auto with = [&node](const char* key, const char* value) {
    obs::Labels labels = node;
    labels[key] = value;
    return labels;
  };
  metrics_.shipped_bytes =
      registry.GetCounter("rhino_repl_shipped_bytes_total", node);
  metrics_.whole_vnodes =
      registry.GetCounter("rhino_repl_vnodes_total", with("kind", "whole"));
  metrics_.key_vnodes =
      registry.GetCounter("rhino_repl_vnodes_total", with("kind", "keys"));
  metrics_.entries = registry.GetCounter("rhino_repl_entries_total", node);
  metrics_.rejected = registry.GetCounter("rhino_repl_rejected_total", node);
  metrics_.captured_keys = registry.GetGauge("rhino_repl_captured_keys", node);
  metrics_.ckpt_captured_keys =
      registry.GetGauge("rhino_checkpoint_captured_keys", node);
  metrics_.handover_replica =
      registry.GetCounter("rhino_handover_total", with("path", "replica"));
  metrics_.handover_full =
      registry.GetCounter("rhino_handover_total", with("path", "full"));
  metrics_.demoted = registry.GetCounter("rhino_handover_vnodes_total",
                                         with("step", "demote"));
  metrics_.relabelled = registry.GetCounter("rhino_handover_vnodes_total",
                                            with("step", "relabel"));
  metrics_.relabel_dropped = registry.GetCounter(
      "rhino_handover_vnodes_total", with("step", "relabel_drop"));
  // Chain records by [ChainPhase][ChainRecord::Kind].
  const char* const phases[] = {"checkpoint", "handover"};
  const char* const kinds[] = {"whole", "keys"};
  for (int p = 0; p < 2; ++p) {
    for (int k = 0; k < 2; ++k) {
      obs::Labels labels = with("phase", phases[p]);
      labels["kind"] = kinds[k];
      metrics_.image_bytes[p][k] =
          registry.GetCounter("rhino_checkpoint_image_bytes_total", labels);
      metrics_.image_vnodes[p][k] =
          registry.GetCounter("rhino_checkpoint_image_vnodes_total", labels);
    }
  }
  if (replicating_) {
    // The cluster (re)formed: forget the streams' failures and
    // re-baseline — everything owned ships again. A vnode whose holder
    // died goes to this node's ring successor, which holds none of it
    // yet: it ships whole. Every other vnode keeps its holder and ships
    // the keys written since. With no live peer the stream capture is off:
    // nothing would drain it.
    const uint32_t successor = RingSuccessor();
    {
      std::lock_guard<std::mutex> lock(repl_->mu);
      for (auto& [id, stream] : repl_->peers) {
        stream.error = Status::OK();
        stream.retry_at = Clock::time_point();
        if (PeerEndpoint(id).empty()) {
          // Its work is re-marked below at the vnodes' new holders.
          stream.dirty.clear();
          stream.last_seq.clear();
        }
      }
    }
    for (auto& [op, shard] : shards_) {
      shard.host->backend()->SetChangeCapture(state::ChangeReader::kStream,
                                              successor != kNoHolder);
      std::vector<uint32_t> orphaned;
      for (uint32_t vnode : shard.host->owned()) {
        auto holder = shard.holders.find(vnode);
        if (holder == shard.holders.end() ||
            PeerEndpoint(holder->second).empty()) {
          orphaned.push_back(vnode);
        }
      }
      Restream(&shard, op, orphaned, successor, 0);
      MarkReplDirty(shard, op, shard.host->owned());
    }
    UpdateCapturedKeys();
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
  if (spec.kind == dataflow::OperatorKind::kModeledState) {
    // A modeled operator counts bytes and stores no values: a simulator
    // concept, which the real runtime does not host.
    return Status::InvalidArgument("operator " + spec.name +
                                   " is modeled; nodes host only real "
                                   "operators");
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
  // Real worker processes take flushes/compactions off the RPC thread: a
  // ProcessBatch that fills a memtable schedules the flush and returns
  // instead of paying for it inline (failures surface on the next write).
  lsm::Options lsm_options;
  lsm_options.background_maintenance = true;
  RHINO_ASSIGN_OR_RETURN(
      std::unique_ptr<state::StateBackend> backend,
      state::LsmStateBackend::Open(env_, options_.data_dir + "/" + spec.name,
                                   spec.name, node_id_.load(),
                                   std::move(lsm_options)));
  const uint32_t num_vnodes = spec.num_vnodes;
  RHINO_ASSIGN_OR_RETURN(
      auto host,
      dataflow::OperatorHost::Create(
          spec, std::move(backend),
          [num_vnodes](uint64_t key) { return VnodeForKey(key, num_vnodes); },
          node_id_.load()));
  host->InitOwned(req.owned_vnodes);
  const uint32_t successor = RingSuccessor();
  if (replicating_ && successor != kNoHolder) {
    host->backend()->SetChangeCapture(state::ChangeReader::kStream, true);
  }
  Shard& shard = shards_[spec.name];
  shard.host = std::move(host);
  // Every vnode's first holder is the ring successor. Baseline the
  // stream: even before any traffic, it should hold an (empty-state)
  // replica of every owned vnode, so promotion works for a node killed
  // right after setup.
  Restream(&shard, spec.name, req.owned_vnodes, successor, 0);
  MarkReplDirty(shard, spec.name, req.owned_vnodes);
  return std::string();
}

Result<std::string> NodeServer::HandleProcessBatch(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ProcessBatchRequest req,
                         ProcessBatchRequest::Decode(body));
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(req.op));
  // The host runs the same dedup + operator core as the in-process
  // engine; strict ownership turns a misrouted record into a clean
  // FailedPrecondition before any state mutation. A batch whose outputs
  // feed an edge keeps them as output rows of the vnodes that made them,
  // so a replay whose first reply was lost is answered with them.
  dataflow::Batch out;
  out.create_time = req.batch.create_time;
  RHINO_ASSIGN_OR_RETURN(
      dataflow::ApplyResult applied,
      shard->host->Apply(static_cast<int>(req.side), req.batch,
                         /*now=*/req.batch.create_time, &out,
                         /*strict_ownership=*/true,
                         req.return_outputs != 0
                             ? std::optional<uint64_t>(req.cursor)
                             : std::nullopt));
  ProcessBatchReply reply;
  reply.applied = applied.applied;
  reply.deduped = applied.deduped;
  reply.applied_vnodes.assign(applied.applied_vnodes.begin(),
                              applied.applied_vnodes.end());
  reply.applied_vnodes.insert(reply.applied_vnodes.end(),
                              applied.answered_vnodes.begin(),
                              applied.answered_vnodes.end());
  if (req.return_outputs != 0 && out.count > 0) {
    EncodeBatch(out, &reply.outputs);
  }
  MarkReplDirty(*shard, req.op, applied.applied_vnodes);
  UpdateCapturedKeys();
  shard->applied += reply.applied;
  shard->deduped += reply.deduped;
  std::string encoded;
  reply.EncodeTo(&encoded);
  return encoded;
}

Status NodeServer::TakeOver(Shard* shard,
                            const std::vector<VnodeImage>& images) {
  // Every image taken over here is durable already, in a chain or in the
  // replica this node held.
  RHINO_RETURN_NOT_OK(shard->host->backend()->IngestImages(
      images, /*already_durable=*/true));
  std::vector<uint32_t> vnodes;
  for (const VnodeImage& image : images) {
    // Dedup positions come WITH the state: replay resumes exactly where
    // the image stopped.
    shard->host->Own(image.vnode, image.watermarks);
    vnodes.push_back(image.vnode);
  }
  // Whatever this node knew of their chains is stale now: their next
  // records are whole, unless the caller adopts the chains.
  shard->host->backend()->DiscardChanges(state::ChangeReader::kCheckpoint,
                                         vnodes);
  for (uint32_t vnode : vnodes) shard->chains.erase(vnode);
  return Status::OK();
}

Status NodeServer::DropHeld(const std::string& op,
                            const std::vector<uint32_t>& vnodes) {
  for (uint32_t vnode : vnodes) held_.erase({op, vnode});
  auto it = shards_.find(op);
  if (it == shards_.end() || vnodes.empty()) return Status::OK();
  return it->second.host->backend()->DropVnodes(vnodes);
}

void NodeServer::AdoptChains(const std::string& op,
                             const std::vector<uint32_t>& vnodes) {
  auto it = shards_.find(op);
  if (it == shards_.end()) return;
  Shard& shard = it->second;
  for (uint32_t vnode : vnodes) {
    const std::string path = ChainPath(op, vnode);
    auto size = env_->GetFileSize(path);
    auto base = ChainBaseBytes(env_, path);
    if (!size.ok() || !base.ok()) continue;  // the next record is whole
    VnodeImage image = shard.host->Describe(vnode);
    Chain& chain = shard.chains[vnode];
    chain.base = *base;
    chain.bytes = *size;
    chain.nominal = image.bytes;
    chain.watermarks = std::move(image.watermarks);
  }
}

std::string NodeServer::ChainPath(const std::string& op,
                                  uint32_t vnode) const {
  return options_.ckpt_dir + "/" + ChainFileName(op, vnode);
}

Status NodeServer::WriteChains(Shard* shard, const std::string& op,
                               const std::vector<uint32_t>& vnodes,
                               uint64_t id, ChainPhase phase,
                               uint64_t* bytes) {
  using Kind = ChainRecord::Kind;
  state::StateBackend* backend = shard->host->backend();
  Status first_failure;
  auto wrote = [&](uint32_t vnode, const Status& st, Kind kind,
                   uint64_t framed) {
    if (!st.ok()) {
      shard->chains.erase(vnode);
      if (first_failure.ok()) first_failure = st;
      return false;
    }
    *bytes += framed;
    const int p = static_cast<int>(phase), k = static_cast<int>(kind);
    Bump(metrics_.image_bytes[p][k], framed);
    Bump(metrics_.image_vnodes[p][k]);
    return true;
  };
  auto record_of = [&](uint32_t vnode, Kind kind, std::string_view body) {
    VnodeImage image = shard->host->Describe(vnode);
    ChainRecord record;
    record.kind = kind;
    record.checkpoint_id = id;
    record.nominal_bytes = image.bytes;
    record.watermarks = std::move(image.watermarks);
    record.body = body;
    return record;
  };
  std::vector<uint32_t> whole;
  std::string run, framed;
  for (uint32_t vnode : vnodes) {
    auto chain = shard->chains.find(vnode);
    if (chain == shard->chains.end()) {
      whole.push_back(vnode);
      continue;
    }
    std::optional<uint64_t> keys =
        backend->TakeChanges(state::ChangeReader::kCheckpoint, vnode, &run);
    ChainRecord record = record_of(vnode, Kind::kKeys, run);
    if (keys == 0u && record.nominal_bytes == chain->second.nominal &&
        record.watermarks == chain->second.watermarks) {
      continue;  // the chain's last record is the vnode as it is
    }
    framed.clear();
    if (keys.has_value()) AppendChainRecord(record, &framed);
    if (!keys.has_value() ||
        chain->second.bytes + framed.size() > 2 * chain->second.base) {
      // The backend cannot capture, or extending would grow the chain past
      // twice its base: the record is whole.
      shard->chains.erase(chain);
      whole.push_back(vnode);
      continue;
    }
    if (!wrote(vnode, env_->AppendFile(ChainPath(op, vnode), framed),
               Kind::kKeys, framed.size())) {
      continue;
    }
    chain->second.bytes += framed.size();
    chain->second.nominal = record.nominal_bytes;
    chain->second.watermarks = std::move(record.watermarks);
  }
  if (!whole.empty()) {
    // One ranged read per whole record; the runs supersede what the
    // checkpoint reader captured of those vnodes.
    backend->DiscardChanges(state::ChangeReader::kCheckpoint, whole);
    for (uint32_t vnode : whole) {
      Status st = backend->ReadVnodeEntries(vnode, &run);
      ChainRecord record = record_of(vnode, Kind::kWhole, run);
      framed.clear();
      if (st.ok()) {
        AppendChainRecord(record, &framed);
        // WriteFile replaces the chain atomically: a reader sees the old
        // chain or the new base, never a mix.
        st = env_->WriteFile(ChainPath(op, vnode), framed);
      }
      if (!wrote(vnode, st, Kind::kWhole, framed.size())) continue;
      Chain& chain = shard->chains[vnode];
      chain.base = chain.bytes = framed.size();
      chain.nominal = record.nominal_bytes;
      chain.watermarks = std::move(record.watermarks);
    }
  }
  // From the first checkpoint of the operator on, its next records are
  // the keys written since.
  if (phase == ChainPhase::kCheckpoint) {
    backend->SetChangeCapture(state::ChangeReader::kCheckpoint, true);
  }
  return first_failure;
}

Status NodeServer::BuildDelta(Shard* shard, ReplicateStateRequest* req) {
  state::StateBackend* backend = shard->host->backend();
  uint64_t entries = 0;
  std::vector<uint32_t> whole;
  for (VnodeImage& image : req->vnodes) {
    VnodeImage described = shard->host->Describe(image.vnode);
    image.bytes = described.bytes;
    image.watermarks = std::move(described.watermarks);
    if (image.base_seq != 0) {
      std::optional<uint64_t> keys = backend->TakeChanges(
          state::ChangeReader::kStream, image.vnode, &image.entries);
      if (keys.has_value()) {
        entries += *keys;
        continue;
      }
      image.base_seq = 0;  // the backend cannot capture: ship it whole
    }
    RHINO_RETURN_NOT_OK(backend->ReadVnodeEntries(image.vnode, &image.entries));
    whole.push_back(image.vnode);
  }
  // A whole snapshot supersedes whatever was captured for the vnode.
  backend->DiscardChanges(state::ChangeReader::kStream, whole);
  Bump(metrics_.whole_vnodes, whole.size());
  Bump(metrics_.key_vnodes, req->vnodes.size() - whole.size());
  Bump(metrics_.entries, entries);
  return Status::OK();
}

std::string NodeServer::PeerEndpoint(uint32_t node) const {
  if (node >= peers_.size() || node == node_id_.load()) return std::string();
  return peers_[node];
}

uint32_t NodeServer::RingSuccessor() const {
  const uint32_t self = node_id_.load();
  const uint32_t n = static_cast<uint32_t>(peers_.size());
  for (uint32_t step = 1; step <= n; ++step) {
    const uint32_t candidate = (self + step) % n;
    if (!PeerEndpoint(candidate).empty()) return candidate;
  }
  return kNoHolder;
}

void NodeServer::Restream(Shard* shard, const std::string& op,
                          const std::vector<uint32_t>& vnodes,
                          uint32_t holder, uint64_t seq) {
  for (uint32_t vnode : vnodes) {
    if (holder == kNoHolder) {
      shard->holders.erase(vnode);
    } else {
      shard->holders[vnode] = holder;
    }
  }
  std::lock_guard<std::mutex> lock(repl_->mu);
  for (auto& [id, stream] : repl_->peers) {
    auto dirty = stream.dirty.find(op);
    auto last = stream.last_seq.find(op);
    for (uint32_t vnode : vnodes) {
      if (dirty != stream.dirty.end()) dirty->second.erase(vnode);
      if (last != stream.last_seq.end()) last->second.erase(vnode);
    }
  }
  if (holder == kNoHolder || seq == 0) return;
  auto& last = repl_->peers[holder].last_seq[op];
  for (uint32_t vnode : vnodes) last[vnode] = seq;
}

uint64_t NodeServer::PeerStream::CopySeq(const std::string& op,
                                         uint32_t vnode) const {
  auto dirty = this->dirty.find(op);
  if (dirty != this->dirty.end() && dirty->second.count(vnode) != 0) return 0;
  auto last = last_seq.find(op);
  if (last == last_seq.end()) return 0;
  auto seq = last->second.find(vnode);
  return seq == last->second.end() ? 0 : seq->second;
}

uint64_t NodeServer::ReserveSeq(uint32_t holder) {
  std::lock_guard<std::mutex> lock(repl_->mu);
  return ++repl_->peers[holder].stream_seq;
}

void NodeServer::UpdateCapturedKeys() {
  if (metrics_.captured_keys == nullptr) return;
  uint64_t stream = 0, checkpoint = 0;
  for (const auto& [op, shard] : shards_) {
    const state::StateBackend* backend = shard.host->backend();
    stream += backend->CapturedKeys(state::ChangeReader::kStream);
    checkpoint += backend->CapturedKeys(state::ChangeReader::kCheckpoint);
  }
  metrics_.captured_keys->Set(static_cast<double>(stream));
  metrics_.ckpt_captured_keys->Set(static_cast<double>(checkpoint));
}

Result<std::string> NodeServer::HandleCheckpoint(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(CheckpointRequest req,
                         CheckpointRequest::Decode(body));
  CheckpointReply reply;
  reply.checkpoint_id = req.checkpoint_id;
  std::set<uint32_t> holders;  // the live peers

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [op, shard] : shards_) {
      const auto& owned_set = shard.host->owned();
      std::vector<uint32_t> owned(owned_set.begin(), owned_set.end());
      RHINO_RETURN_NOT_OK(WriteChains(&shard, op, owned, req.checkpoint_id,
                                      ChainPhase::kCheckpoint, &reply.bytes));
    }
    UpdateCapturedKeys();
    if (replicating_) {
      for (uint32_t node = 0; node < peers_.size(); ++node) {
        if (!PeerEndpoint(node).empty()) holders.insert(node);
      }
    }
  }
  if (!holders.empty()) {
    // Replication already streamed in the background; the barrier only
    // waits for the streams to drain (sequence-number barrier),
    // independent of how much state the deltas carried.
    RHINO_RETURN_NOT_OK(WaitReplicationBarrier(holders));
    reply.replicated = 1;
  }
  obs_->trace().Emit("net", "node_checkpoint",
                     "node" + std::to_string(node_id_.load()),
                     req.checkpoint_id,
                     {{"bytes", static_cast<int64_t>(reply.bytes)}});
  std::string out;
  reply.EncodeTo(&out);
  return out;
}

Result<std::string> NodeServer::HandleExtractVnodes(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ExtractRequest req, ExtractRequest::Decode(body));
  auto owned_shard = [&]() -> Result<Shard*> {
    RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(req.op));
    for (uint32_t vnode : req.vnodes) {
      if (!shard->host->Owns(vnode)) {
        return Status::FailedPrecondition("extract of unowned vnode " +
                                          std::to_string(vnode));
      }
    }
    return shard;
  };
  std::set<uint32_t> holders;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RHINO_ASSIGN_OR_RETURN(Shard * shard, owned_shard());
    for (uint32_t vnode : req.vnodes) {
      auto holder = shard->holders.find(vnode);
      if (replicating_ && holder != shard->holders.end()) {
        holders.insert(holder->second);
      }
    }
  }
  // Once the moved vnodes' streams drained, each holder keeps every moved
  // vnode as of its last delta: the target's copy on the replica path, the
  // copy a cold move's old holder relabels. Like the checkpoint barrier,
  // wait with mu_ released; a failed drain leaves whole images.
  const bool drained = !holders.empty() && WaitReplicationBarrier(holders).ok();
  std::lock_guard<std::mutex> lock(mu_);
  RHINO_ASSIGN_OR_RETURN(Shard * shard, owned_shard());
  std::vector<VnodeImage> images;
  for (uint32_t vnode : req.vnodes) {
    images.push_back(shard->host->Describe(vnode));
  }
  bool replica_local = req.replica_local != 0 && drained;
  if (replica_local) {
    // Nothing may have been written since the drain: the target's copy of
    // each moved vnode must be exactly its last shipped delta, on top of
    // which the image's run is empty.
    std::lock_guard<std::mutex> rlock(repl_->mu);
    for (VnodeImage& image : images) {
      auto holder = shard->holders.find(image.vnode);
      image.base_seq =
          holder == shard->holders.end()
              ? 0
              : repl_->peers[holder->second].CopySeq(req.op, image.vnode);
      if (image.base_seq == 0) {
        replica_local = false;
        break;
      }
    }
  }
  if (!replica_local) {
    state::StateBackend* backend = shard->host->backend();
    for (VnodeImage& image : images) {
      image.base_seq = 0;
      RHINO_RETURN_NOT_OK(
          backend->ReadVnodeEntries(image.vnode, &image.entries));
    }
  }
  // The final incremental checkpoint O->T: every moved vnode's chain now
  // ends in the state handed over, so the target extends it. A vnode
  // without a chain this node may extend is written whole; a failed
  // write fails the extract, and the vnodes stay here.
  uint64_t written = 0;
  RHINO_RETURN_NOT_OK(WriteChains(shard, req.op, req.vnodes, req.id,
                                  ChainPhase::kHandover, &written));
  obs_->trace().Emit("net", "handover_extract",
                     "node" + std::to_string(node_id_.load()), req.id,
                     {{"vnodes", static_cast<int64_t>(req.vnodes.size())},
                      {"replica_local", replica_local ? 1 : 0}});
  std::string out;
  EncodeVnodeImages(images, &out);
  return out;
}

Result<std::string> NodeServer::HandleIngestVnodes(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(IngestRequest req, IngestRequest::Decode(body));
  const std::string& op = req.op;
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(op));
  std::vector<uint32_t> vnodes;
  for (const VnodeImage& image : req.images) vnodes.push_back(image.vnode);
  if (std::set<uint32_t>(vnodes.begin(), vnodes.end()).size() !=
      vnodes.size()) {
    return Status::InvalidArgument("ingest lists a vnode twice");
  }
  if (replicating_ && PeerEndpoint(req.holder).empty()) {
    return Status::InvalidArgument("ingest names holder " +
                                   std::to_string(req.holder) +
                                   ", which is not a live peer");
  }
  // An image on top of a copy needs the origin's copy held here at exactly
  // its base seq — checked before any state is touched, so a mismatch
  // leaves the driver free to redo the move through the full path.
  bool replica_local = false;
  std::vector<uint32_t> whole;
  for (const VnodeImage& image : req.images) {
    if (image.base_seq == 0) {
      whole.push_back(image.vnode);
      continue;
    }
    replica_local = true;
    auto copy = held_.find({op, image.vnode});
    if (copy == held_.end() || copy->second.origin != req.origin ||
        copy->second.seq != image.base_seq) {
      return Status::FailedPrecondition(
          "replica of node " + std::to_string(req.origin) +
          " does not hold vnode " + std::to_string(image.vnode) +
          " at the origin's last shipped seq");
    }
  }
  // A whole image replaces any rows held here. The other held rows become
  // the vnodes' state where they are, and the take-over writes each
  // image's run on top.
  RHINO_RETURN_NOT_OK(DropHeld(op, whole));
  for (const VnodeImage& image : req.images) held_.erase({op, image.vnode});
  RHINO_RETURN_NOT_OK(TakeOver(shard, req.images));
  AdoptChains(op, vnodes);
  // The holder keeps a copy of every moved vnode as it is now: the origin
  // demotes its rows to it, or the old holder relabels its copy. Both
  // label it with a seq reserved here, and the vnodes' next key deltas
  // chain to it; nothing ships until they are written.
  IngestReply reply;
  if (replicating_) {
    reply.seq = ReserveSeq(req.holder);
    Restream(shard, op, vnodes, req.holder, reply.seq);
  }
  Bump(replica_local ? metrics_.handover_replica : metrics_.handover_full);
  obs_->trace().Emit("net", "handover_ingest",
                     "node" + std::to_string(node_id_.load()), req.id,
                     {{"vnodes", static_cast<int64_t>(vnodes.size())},
                      {"replica_local", replica_local ? 1 : 0}});
  std::string out;
  reply.EncodeTo(&out);
  return out;
}

Result<std::string> NodeServer::HandleDropVnodes(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ReleaseRequest req, ReleaseRequest::Decode(body));
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(req.op));
  for (uint32_t vnode : req.vnodes) {
    if (!shard->host->Owns(vnode)) {
      return Status::FailedPrecondition("release of unowned vnode " +
                                        std::to_string(vnode));
    }
  }
  const bool demote = req.seq != 0;
  if (demote && req.target == node_id_.load()) {
    return Status::InvalidArgument("demote of vnodes to a copy of this node's");
  }
  ReleaseReply reply;
  if (demote) {
    // The rows stay where they are and become the copy this node holds for
    // the target, as of the seq the target reserved at the ingest: what
    // the target took over is exactly this state. No key is written.
    for (uint32_t vnode : req.vnodes) {
      VnodeImage image = shard->host->Describe(vnode);
      HeldVnode& copy = held_[{req.op, vnode}];
      copy.origin = req.target;
      copy.seq = req.seq;
      copy.bytes = image.bytes;
      copy.watermarks = std::move(image.watermarks);
    }
    shard->host->Demote(req.vnodes);
    Bump(metrics_.demoted, req.vnodes.size());
  } else {
    // The old holder relabels its copy of each vnode as the target's if it
    // is at the seq of the last delta that carried the vnode there: 0 when
    // the holder may lack the vnode's last state.
    {
      std::lock_guard<std::mutex> lock(repl_->mu);
      for (uint32_t vnode : req.vnodes) {
        auto holder = shard->holders.find(vnode);
        reply.shipped.push_back(
            holder == shard->holders.end()
                ? 0
                : repl_->peers[holder->second].CopySeq(req.op, vnode));
      }
    }
    RHINO_RETURN_NOT_OK(shard->host->Drop(req.vnodes));
  }
  // The target extends the chains now (or rewrites them), and no stream
  // of this node carries the vnodes any more: nothing of them is sent
  // after their new owner's copy.
  for (uint32_t vnode : req.vnodes) shard->chains.erase(vnode);
  Restream(shard, req.op, req.vnodes, kNoHolder, 0);
  UpdateCapturedKeys();
  std::string out;
  reply.EncodeTo(&out);
  return out;
}

Result<std::string> NodeServer::HandleRelabelVnodes(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(RelabelRequest req, RelabelRequest::Decode(body));
  if (req.target == node_id_.load() || req.seq == 0) {
    return Status::InvalidArgument("relabel needs another node's seq");
  }
  // A copy at the origin's last shipped seq is exactly what the target
  // took over: it becomes the target's copy at the seq the target
  // reserved. Any other copy of the origin's is stale; dropped, it makes
  // the target's next delta ship the vnode whole.
  std::vector<uint32_t> stale;
  uint64_t relabelled = 0;
  for (const auto& [vnode, shipped] : req.shipped) {
    auto copy = held_.find({req.op, vnode});
    if (copy == held_.end() || copy->second.origin != req.origin) continue;
    if (shipped != 0 && copy->second.seq == shipped) {
      copy->second.origin = req.target;
      copy->second.seq = req.seq;
      ++relabelled;
    } else {
      stale.push_back(vnode);
    }
  }
  RHINO_RETURN_NOT_OK(DropHeld(req.op, stale));
  Bump(metrics_.relabelled, relabelled);
  Bump(metrics_.relabel_dropped, stale.size());
  return std::string();
}

Result<std::string> NodeServer::HandleReplicateState(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ReplicateStateRequest req,
                         ReplicateStateRequest::Decode(body));
  auto shard = shards_.find(req.op);
  // The origin handed a vnode this node owns away: its deltas of it are
  // stale.
  auto owned = [&](uint32_t vnode) {
    return shard != shards_.end() && shard->second.host->Owns(vnode);
  };
  // The delta origin's copy of `vnode`, or null.
  auto origin_copy = [&](uint32_t vnode) -> HeldVnode* {
    auto it = held_.find({req.op, vnode});
    return it != held_.end() && it->second.origin == req.origin_node
               ? &it->second
               : nullptr;
  };
  // Check the chain of every key delta before applying anything: a key
  // delta extends only its origin's copy at its base_seq. A delta at or
  // below that copy's seq is a replay of an applied one.
  std::vector<VnodeImage*> apply;
  std::vector<uint32_t> broken;
  for (VnodeImage& image : req.vnodes) {
    if (owned(image.vnode)) continue;
    const HeldVnode* copy = origin_copy(image.vnode);
    if (copy != nullptr && req.stream_seq <= copy->seq) continue;
    if (image.base_seq != 0 &&
        (copy == nullptr || copy->seq != image.base_seq)) {
      broken.push_back(image.vnode);
    } else {
      apply.push_back(&image);
    }
  }
  if (!broken.empty()) {
    // Out of chain: the origin's copy is no consistent snapshot any more.
    // Drop it and make the origin ship the vnode whole.
    std::vector<uint32_t> stale;
    for (uint32_t vnode : broken) {
      if (origin_copy(vnode) != nullptr) stale.push_back(vnode);
    }
    Bump(metrics_.rejected);
    RHINO_RETURN_NOT_OK(DropHeld(req.op, stale));
    return Status::FailedPrecondition(
        "replica of node " + std::to_string(req.origin_node) + " op " +
        req.op + " is not at the base seq of vnode " +
        std::to_string(broken.front()) + " (delta " +
        std::to_string(req.stream_seq) + ")");
  }
  for (VnodeImage* image : apply) {
    if (image->base_seq == 0) {
      // A whole vnode replaces whatever is held for it, whoever sent it.
      RHINO_RETURN_NOT_OK(DropHeld(req.op, {image->vnode}));
    }
    if (!image->entries.empty()) {
      // Rows need the operator's backend; a vnode that ships before the
      // driver added the operator here is its empty baseline.
      if (shard == shards_.end()) return FindShard(req.op).status();
      RHINO_RETURN_NOT_OK(shard->second.host->backend()->WriteVnodeEntries(
          image->vnode, image->entries));
    }
    HeldVnode& copy = held_[{req.op, image->vnode}];
    copy.origin = req.origin_node;
    copy.seq = req.stream_seq;
    copy.bytes = image->bytes;
    copy.watermarks = std::move(image->watermarks);
  }
  return std::string();
}

Result<std::string> NodeServer::HandlePromoteReplica(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ReplicaFetchRequest req,
                         ReplicaFetchRequest::Decode(body));
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(req.op));
  // Each requested vnode comes from the first source that exists: the copy
  // held here for the origin, its chain, or nothing.
  std::vector<VnodeImage> images(req.vnodes.size());
  std::vector<uint32_t> untorn;  // restored from a chain without a torn tail
  int64_t promoted = 0, restored = 0;
  for (size_t i = 0; i < images.size(); ++i) {
    VnodeImage& image = images[i];
    image.vnode = req.vnodes[i];
    // The held rows become the vnode's state where they are, copying no
    // key; they win over a newer chain. The origin is dead: nothing of its
    // replica is asked for twice.
    auto held = held_.find({req.op, image.vnode});
    if (held != held_.end() && held->second.origin == req.origin_node) {
      image.base_seq = held->second.seq;
      image.bytes = held->second.bytes;
      image.watermarks = std::move(held->second.watermarks);
      held_.erase(held);
      ++promoted;
      continue;
    }
    // Rows held for another origin go. The vnode's chain, whoever wrote
    // it, goes into the backend: its whole record, then its key records.
    // Without one the vnode starts empty, with no watermarks.
    RHINO_RETURN_NOT_OK(DropHeld(req.op, {image.vnode}));
    const std::string path = ChainPath(req.op, image.vnode);
    auto chain = ReadChain(env_, path);
    if (chain.status().code() == StatusCode::kNotFound) continue;
    RHINO_RETURN_NOT_OK(chain.status());
    RHINO_RETURN_NOT_OK(
        RestoreChain(*chain, image.vnode, shard->host->backend()));
    image.base_seq = chain->checkpoint_id;
    image.bytes = chain->nominal_bytes;
    image.watermarks = std::move(chain->watermarks);
    ++restored;
    // Without a torn tail the vnode is exactly the chain's last record,
    // and its next record extends the chain.
    auto size = env_->GetFileSize(path);
    if (size.ok() && *size == chain->valid_bytes) {
      untorn.push_back(image.vnode);
    }
  }
  RHINO_RETURN_NOT_OK(TakeOver(shard, images));
  AdoptChains(req.op, untorn);
  // The promoted vnodes' holder died or became their owner: they ship
  // whole to this node's ring successor.
  Restream(shard, req.op, req.vnodes, RingSuccessor(), 0);
  MarkReplDirty(*shard, req.op, req.vnodes);
  const int64_t empty =
      static_cast<int64_t>(images.size()) - promoted - restored;
  obs_->trace().Emit("net", "promote_replica",
                     "node" + std::to_string(node_id_.load()), 0,
                     {{"origin", static_cast<int64_t>(req.origin_node)},
                      {"promoted", promoted},
                      {"restored", restored},
                      {"empty", empty}});
  // The driver needs the replay watermarks to rewind its partition
  // cursors; the state stays here.
  std::string out;
  EncodeVnodeImages(images, &out);
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
  // Replicas held: distinct (origin, operator) pairs.
  std::set<std::pair<uint32_t, std::string>> replicas;
  for (const auto& [key, copy] : held_) replicas.emplace(copy.origin, key.first);
  reply.replicas_held = replicas.size();
  {
    std::lock_guard<std::mutex> lock(repl_->mu);
    for (const auto& [id, stream] : repl_->peers) {
      for (const auto& [op, set] : stream.dirty) reply.repl_dirty += set.size();
      reply.repl_inflight += stream.inflight;
      reply.repl_stream_seq += stream.stream_seq;
      reply.repl_shipped += stream.shipped;
    }
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
  uint32_t served = kNoHolder;  // the stream served last, for round-robin
  while (true) {
    uint32_t peer = kNoHolder;
    std::string op;
    std::vector<uint32_t> vnodes;
    {
      std::unique_lock<std::mutex> lock(repl->mu);
      while (true) {
        if (repl->stop) return;
        // The first stream after the last one served with work, credit,
        // and no failure to pace; else sleep until the earliest paced one
        // may retry, or new work or credit.
        const auto now = Clock::now();
        auto wake = Clock::time_point::max();
        auto ready = [&](auto first, auto last) {
          for (auto it = first; it != last; ++it) {
            const PeerStream& stream = it->second;
            if (stream.dirty.empty() || stream.inflight >= kReplCreditWindow) {
              continue;
            }
            if (stream.retry_at > now) {
              wake = std::min(wake, stream.retry_at);
              continue;
            }
            peer = it->first;
            return true;
          }
          return false;
        };
        auto after = repl->peers.upper_bound(served);
        if (ready(after, repl->peers.end()) ||
            ready(repl->peers.begin(), after)) {
          break;
        }
        if (wake == Clock::time_point::max()) {
          repl->work_cv.wait(lock);
        } else {
          repl->work_cv.wait_until(lock, wake);
        }
      }
      served = peer;
      PeerStream& stream = repl->peers[peer];
      auto dit = stream.dirty.begin();
      op = dit->first;
      vnodes.assign(dit->second.begin(), dit->second.end());
      stream.dirty.erase(dit);
      ++stream.inflight;  // credit spent before the lock drops
    }
    // Build a consistent delta under mu_: each vnode's state (its whole
    // run, or the keys written since the holder's copy) and its replay
    // watermarks are captured together, so a promoted replica resumes
    // dedup exactly where its state stopped.
    ReplicateStateRequest req;
    std::string endpoint;
    std::vector<uint32_t> live;
    Status failure;
    obs::Counter* shipped_bytes = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      endpoint = PeerEndpoint(peer);
      shipped_bytes = metrics_.shipped_bytes;
      auto it = shards_.find(op);
      Shard* shard = it != shards_.end() ? &it->second : nullptr;
      std::map<uint32_t, std::vector<uint32_t>> moved;
      for (uint32_t vnode : vnodes) {
        // A vnode handed away since it was marked has nothing to ship; one
        // whose holder changed ships on its holder's stream.
        if (shard == nullptr || !shard->host->Owns(vnode)) continue;
        auto holder = shard->holders.find(vnode);
        if (holder == shard->holders.end()) continue;
        if (holder->second != peer) {
          moved[holder->second].push_back(vnode);
        } else {
          live.push_back(vnode);
        }
      }
      if (!live.empty() || !moved.empty()) {
        std::lock_guard<std::mutex> rlock(repl->mu);
        for (const auto& [holder, some] : moved) {
          repl->peers[holder].dirty[op].insert(some.begin(), some.end());
        }
        if (!live.empty()) {
          // A vnode its holder keeps a copy of ships as the keys written
          // since; any other ships whole.
          PeerStream& stream = repl->peers[peer];
          req.stream_seq = ++stream.stream_seq;
          auto& last = stream.last_seq[op];
          for (uint32_t vnode : live) {
            VnodeImage image;
            image.vnode = vnode;
            auto shipped = last.find(vnode);
            if (shipped != last.end()) image.base_seq = shipped->second;
            last[vnode] = req.stream_seq;
            req.vnodes.push_back(std::move(image));
          }
        }
      }
      if (!live.empty()) {
        failure = BuildDelta(shard, &req);
        req.origin_node = node_id_.load();
        req.op = op;
        UpdateCapturedKeys();
      }
    }
    // Puts unshipped work back on the stream. Its vnodes ship whole next:
    // the holder may lack the failed delta's keys.
    auto requeue = [repl, peer, op, live](const Status& st) {
      {
        std::lock_guard<std::mutex> lock(repl->mu);
        PeerStream& stream = repl->peers[peer];
        --stream.inflight;
        // A chain mismatch only asks for whole vnodes; it does not break
        // the stream, so it neither paces it nor fails a barrier.
        if (st.code() != StatusCode::kFailedPrecondition) {
          stream.error = st;
          stream.retry_at = Clock::now() + kReplErrorPacing;
        }
        auto last = stream.last_seq.find(op);
        if (last != stream.last_seq.end()) {
          for (uint32_t vnode : live) last->second.erase(vnode);
        }
        stream.dirty[op].insert(live.begin(), live.end());
      }
      repl->work_cv.notify_all();
      repl->barrier_cv.notify_all();
    };
    if (!failure.ok()) {
      requeue(failure);
      continue;
    }
    if (live.empty()) {
      // Nothing to ship here (the vnodes moved away or to other streams):
      // return the credit. A failed delta of these vnodes is owed to this
      // holder no more, so its failure no longer fails a barrier; any other
      // unshipped work still holds the barrier back as dirty.
      {
        std::lock_guard<std::mutex> lock(repl->mu);
        PeerStream& stream = repl->peers[peer];
        --stream.inflight;
        stream.error = Status::OK();
      }
      repl->work_cv.notify_all();
      repl->barrier_cv.notify_all();
      continue;
    }
    std::string req_body;
    req.EncodeTo(&req_body);
    Bump(shipped_bytes, req_body.size());
    // The callback captures only the shared stream block (+ the work it
    // would have to re-mark): the transport may run it after this
    // NodeServer is gone.
    Status submitted = transport_->CallAsync(
        endpoint, MessageType::kReplicateState, std::move(req_body),
        [repl, peer, requeue](Status st, std::string /*reply*/) {
          if (!st.ok()) {
            // Unacked work goes back on the stream; a waiting barrier
            // fails fast on the sticky error.
            requeue(st);
            return;
          }
          {
            std::lock_guard<std::mutex> lock(repl->mu);
            PeerStream& stream = repl->peers[peer];
            --stream.inflight;
            ++stream.shipped;
            stream.error = Status::OK();
          }
          repl->work_cv.notify_all();
          repl->barrier_cv.notify_all();
        });
    // Never handed to the transport — the callback will not run.
    if (!submitted.ok()) requeue(submitted);
  }
}

Status NodeServer::WaitReplicationBarrier(const std::set<uint32_t>& holders) {
  auto repl = repl_;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(kBarrierTimeoutMs);
  std::unique_lock<std::mutex> lock(repl->mu);
  uint32_t failed = kNoHolder;
  auto drained = [&] {
    failed = kNoHolder;
    bool idle = true;
    for (uint32_t holder : holders) {
      const PeerStream& stream = repl->peers[holder];
      if (!stream.error.ok()) {
        failed = holder;
        return true;
      }
      if (!stream.dirty.empty() || stream.inflight != 0) idle = false;
    }
    return idle;
  };
  bool done = repl->barrier_cv.wait_until(
      lock, deadline, [&] { return repl->stop || drained(); });
  if (failed != kNoHolder) {
    const Status& error = repl->peers[failed].error;
    return Status(error.code(), "replication stream to node " +
                                    std::to_string(failed) +
                                    " failed: " + error.ToString());
  }
  if (repl->stop) return Status::Aborted("node stopping");
  if (!done) {
    return Status::TimedOut("replication barrier: streams not drained after " +
                            std::to_string(kBarrierTimeoutMs) + "ms");
  }
  return Status::OK();
}

}  // namespace rhino::net
