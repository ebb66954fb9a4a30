#include "net/driver.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <utility>

#include "common/logging.h"

namespace rhino::net {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ClusterDriver::ClusterDriver(Transport* transport,
                             std::vector<std::string> endpoints,
                             obs::Observability* obs, DriverOptions options)
    : transport_(transport),
      endpoints_(std::move(endpoints)),
      alive_(endpoints_.size(), true),
      obs_(obs != nullptr ? obs : obs::Observability::Default()),
      options_(options) {
  RHINO_CHECK(!endpoints_.empty());
}

Status ClusterDriver::Call(uint32_t node, MessageType type,
                           std::string_view body, std::string* reply) {
  if (node >= endpoints_.size() || !alive_[node]) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " is not alive");
  }
  return transport_->Call(endpoints_[node], type, body, reply);
}

Result<uint32_t> ClusterDriver::NextAlive(uint32_t node) const {
  for (uint32_t step = 1; step < endpoints_.size(); ++step) {
    uint32_t candidate =
        (node + step) % static_cast<uint32_t>(endpoints_.size());
    if (alive_[candidate]) return candidate;
  }
  return Status::FailedPrecondition("no surviving node on the ring");
}

uint32_t ClusterDriver::HolderAfter(uint32_t owner) const {
  auto next = NextAlive(owner);
  return next.ok() ? *next : kNoNode;
}

Status ClusterDriver::ConnectAll() { return ReformRing(); }

Status ClusterDriver::ReformRing() {
  HelloRequest hello;
  for (uint32_t node = 0; node < endpoints_.size(); ++node) {
    hello.peers.push_back(alive_[node] ? endpoints_[node] : std::string());
  }
  for (uint32_t node = 0; node < endpoints_.size(); ++node) {
    if (!alive_[node]) continue;
    hello.node_id = node;
    std::string body;
    hello.EncodeTo(&body);
    RHINO_RETURN_NOT_OK(Call(node, MessageType::kHello, body, nullptr));
  }
  return Status::OK();
}

Status ClusterDriver::AddOperator(const dataflow::OperatorSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("operator needs a name");
  }
  if (spec.num_vnodes == 0) {
    return Status::InvalidArgument("num_vnodes must be > 0");
  }
  if (routing_.count(spec.name)) {
    return Status::AlreadyExists("operator already routed: " + spec.name);
  }
  OpRouting routing;
  routing.spec = spec;
  routing.owner.resize(spec.num_vnodes);
  routing.holder.resize(spec.num_vnodes);
  std::vector<std::vector<uint32_t>> owned(endpoints_.size());
  uint32_t next = 0;
  for (uint32_t vnode = 0; vnode < spec.num_vnodes; ++vnode) {
    while (!alive_[next]) next = (next + 1) % endpoints_.size();
    routing.owner[vnode] = next;
    routing.holder[vnode] = HolderAfter(next);
    owned[next].push_back(vnode);
    next = (next + 1) % endpoints_.size();
  }
  for (uint32_t node = 0; node < endpoints_.size(); ++node) {
    if (!alive_[node]) continue;
    AddOperatorRequest req;
    req.spec = spec;
    req.owned_vnodes = owned[node];
    std::string body;
    req.EncodeTo(&body);
    RHINO_RETURN_NOT_OK(Call(node, MessageType::kAddOperator, body, nullptr));
  }
  routing_.emplace(spec.name, std::move(routing));
  op_order_.push_back(spec.name);
  return Status::OK();
}

Status ClusterDriver::AddOperator(const std::string& op, uint32_t num_vnodes) {
  dataflow::OperatorSpec spec;
  spec.kind = dataflow::OperatorKind::kKeyedCounter;
  spec.name = op;
  spec.num_vnodes = num_vnodes;
  spec.input_arity = 1;
  return AddOperator(spec);
}

void ClusterDriver::AddPartition(const broker::PartitionSource* partition) {
  partitions_.push_back(partition);
}

Status ClusterDriver::ConnectPartition(const std::string& op, size_t partition,
                                       uint32_t side) {
  auto it = routing_.find(op);
  if (it == routing_.end()) return Status::NotFound("no operator: " + op);
  if (partition >= partitions_.size()) {
    return Status::InvalidArgument("no partition " + std::to_string(partition));
  }
  if (side >= it->second.spec.input_arity) {
    return Status::InvalidArgument("input side " + std::to_string(side) +
                                   " out of range for " + op);
  }
  OpInput input;
  input.from_partition = true;
  input.partition = partition;
  input.side = side;
  // Partitions keep their index as the source id (the watermark maps are
  // per operator shard, so sharing a partition across operators is fine).
  input.source_id = static_cast<int>(partition);
  it->second.inputs.push_back(std::move(input));
  return Status::OK();
}

Status ClusterDriver::ConnectOperators(const std::string& upstream,
                                       const std::string& downstream,
                                       uint32_t side) {
  auto uit = routing_.find(upstream);
  if (uit == routing_.end()) {
    return Status::NotFound("no operator: " + upstream);
  }
  auto dit = routing_.find(downstream);
  if (dit == routing_.end()) {
    return Status::NotFound("no operator: " + downstream);
  }
  if (side >= dit->second.spec.input_arity) {
    return Status::InvalidArgument("input side " + std::to_string(side) +
                                   " out of range for " + downstream);
  }
  auto pos = [&](const std::string& op) {
    return std::find(op_order_.begin(), op_order_.end(), op) -
           op_order_.begin();
  };
  if (pos(upstream) >= pos(downstream)) {
    return Status::InvalidArgument(
        "edges must point from an earlier operator to a later one: " +
        upstream + " -> " + downstream);
  }
  uit->second.track_outputs = true;
  OpInput input;
  input.from_partition = false;
  input.upstream = upstream;
  input.side = side;
  input.source_id = AllocateSourceId();
  dit->second.inputs.push_back(std::move(input));
  return Status::OK();
}

Status ClusterDriver::CollectOutputs(const std::string& op) {
  auto it = routing_.find(op);
  if (it == routing_.end()) return Status::NotFound("no operator: " + op);
  it->second.track_outputs = true;
  return Status::OK();
}

uint64_t ClusterDriver::CompletePrefix(const OpRouting& routing) {
  uint64_t end = 0;
  while (end < routing.entries.size() && routing.entries[end].complete) {
    ++end;
  }
  return end;
}

Status ClusterDriver::RecordOutputs(OpRouting& routing, size_t input_idx,
                                    uint64_t offset, SimTime create_time,
                                    const ProcessBatchReply& reply) {
  auto key = std::make_pair(input_idx, offset);
  auto [it, inserted] = routing.entry_index.try_emplace(key,
                                                        routing.entries.size());
  if (inserted) routing.entries.emplace_back();
  EdgeEntry& entry = routing.entries[it->second];
  entry.create_time = std::max(entry.create_time, create_time);
  // Replace exactly the slots of vnodes this reply lists: an applied vnode
  // with no output clears to empty, and a deduplicated vnode whose node
  // kept the outputs of its first apply (output rows) refills from them.
  // A deduplicated vnode absent from the set keeps its slot: its rows are
  // gone only below the cursor, whose entries are complete here.
  std::set<uint32_t> applied(reply.applied_vnodes.begin(),
                             reply.applied_vnodes.end());
  for (uint32_t vnode : applied) entry.slots[vnode].clear();
  if (!reply.outputs.empty()) {
    RHINO_ASSIGN_OR_RETURN(dataflow::Batch out, DecodeBatch(reply.outputs));
    for (auto& rec : out.records) {
      uint32_t vnode = VnodeForKey(rec.key, routing.spec.num_vnodes);
      if (applied.count(vnode)) {
        entry.slots[vnode].push_back(std::move(rec));
      }
    }
  }
  return Status::OK();
}

Result<PumpStats> ClusterDriver::Pump() {
  auto start = std::chrono::steady_clock::now();
  PumpStats stats;
  // Topological passes: an operator drains its inputs before anything
  // downstream of it pumps, and the loop repeats until a full pass moves
  // no cursor — so one Pump() pushes source data through the whole graph.
  bool progress = true;
  while (progress) {
    progress = false;
    for (const std::string& op : op_order_) {
      bool advanced = false;
      RHINO_RETURN_NOT_OK(
          PumpOperator(op, routing_.at(op), &stats, &advanced));
      progress = progress || advanced;
    }
  }
  stats.wall_s = SecondsSince(start);
  return stats;
}

Status ClusterDriver::PumpOperator(const std::string& op, OpRouting& routing,
                                   PumpStats* stats, bool* advanced) {
  for (size_t input_idx = 0; input_idx < routing.inputs.size(); ++input_idx) {
    OpInput& input = routing.inputs[input_idx];
    const OpRouting* upstream = nullptr;
    uint64_t end;
    if (input.from_partition) {
      end = partitions_[input.partition]->end_offset();
    } else {
      upstream = &routing_.at(input.upstream);
      end = CompletePrefix(*upstream);
    }
    if (input.cursor >= end) continue;
    *advanced = true;

    // Scratch shared with completion callbacks (they run on transport
    // reader threads). The pump drains to zero in flight before reading
    // it single-threaded, so callbacks never outlive this frame.
    struct Shared {
      std::mutex mu;
      std::condition_variable cv;
      std::map<uint32_t, uint32_t> credits;
      std::map<uint32_t, uint32_t> inflight;
      std::map<uint32_t, uint32_t> hwm;
      uint32_t total_inflight = 0;
      uint32_t max_total_inflight = 0;
      uint64_t credit_stalls = 0;
      Status first_error;
      /// (offset, node) -> decoded reply or per-call failure.
      std::map<std::pair<uint64_t, uint32_t>, Result<ProcessBatchReply>>
          replies;
    } shared;
    std::map<uint32_t, obs::Gauge*> credit_gauges;
    for (uint32_t node = 0; node < endpoints_.size(); ++node) {
      if (!alive_[node]) continue;
      shared.credits[node] = options_.credit_window;
      credit_gauges[node] = obs_->metrics().GetGauge(
          "rhino_net_credits", {{"node", std::to_string(node)}});
      credit_gauges[node]->Set(options_.credit_window);
    }

    struct OffsetWork {
      uint64_t offset = 0;
      SimTime create_time = 0;
      std::vector<uint32_t> nodes;  ///< routed sub-batch targets, ascending
    };
    std::vector<OffsetWork> works;
    bool aborted = false;

    for (uint64_t off = input.cursor; off < end && !aborted; ++off) {
      // Materialize this offset's records: a broker log entry, or one
      // complete edge-log entry of the upstream operator.
      std::vector<dataflow::Record> edge_records;
      const std::vector<dataflow::Record>* records = nullptr;
      OffsetWork work;
      work.offset = off;
      if (input.from_partition) {
        const broker::LogEntry* entry = partitions_[input.partition]->Fetch(off);
        RHINO_CHECK(entry != nullptr);
        records = &entry->batch.records;
        work.create_time = entry->batch.create_time;
      } else {
        const EdgeEntry& entry = upstream->entries[off];
        for (const auto& [vnode, recs] : entry.slots) {
          edge_records.insert(edge_records.end(), recs.begin(), recs.end());
        }
        records = &edge_records;
        work.create_time = entry.create_time;
      }

      // Split into one sub-batch per owning node; provenance (source_id,
      // source_offset) is preserved so nodes can dedup replays.
      std::map<uint32_t, dataflow::Batch> per_node;
      for (const auto& rec : *records) {
        uint32_t vnode = VnodeForKey(rec.key, routing.spec.num_vnodes);
        uint32_t node = routing.owner[vnode];
        auto& sub = per_node[node];
        sub.create_time = work.create_time;
        sub.source_id = input.source_id;
        sub.source_offset = off;
        sub.records.push_back(rec);
        sub.count += 1;
        sub.bytes += rec.size;
      }

      for (auto& [node, sub] : per_node) {
        if (node >= endpoints_.size() || !alive_[node]) {
          // Earlier submits' callbacks may be writing first_error.
          std::lock_guard<std::mutex> lock(shared.mu);
          if (shared.first_error.ok()) {
            shared.first_error = Status::FailedPrecondition(
                "node " + std::to_string(node) + " is not alive");
          }
          aborted = true;
          break;
        }
        work.nodes.push_back(node);
        ProcessBatchRequest req;
        req.op = op;
        req.side = input.side;
        req.return_outputs = routing.track_outputs ? 1 : 0;
        req.cursor = input.cursor;
        req.batch = std::move(sub);
        std::string body;
        req.EncodeTo(&body);
        stats->batches_sent += 1;
        stats->records_sent += req.batch.records.size();

        // Acquire one credit for this node — the backpressure point.
        {
          std::unique_lock<std::mutex> lock(shared.mu);
          if (!shared.first_error.ok()) {
            aborted = true;
            break;
          }
          if (shared.credits[node] == 0) {
            ++shared.credit_stalls;
            shared.cv.wait(lock, [&] {
              return shared.credits[node] > 0 || !shared.first_error.ok();
            });
            if (!shared.first_error.ok()) {
              aborted = true;
              break;
            }
          }
          --shared.credits[node];
          credit_gauges[node]->Set(shared.credits[node]);
          uint32_t in = ++shared.inflight[node];
          shared.hwm[node] = std::max(shared.hwm[node], in);
          ++shared.total_inflight;
          shared.max_total_inflight =
              std::max(shared.max_total_inflight, shared.total_inflight);
        }
        auto* gauge = credit_gauges[node];
        Status submitted = transport_->CallAsync(
            endpoints_[node], MessageType::kProcessBatch, std::move(body),
            [&shared, gauge, node, off](Status st, std::string reply_body) {
              std::lock_guard<std::mutex> lock(shared.mu);
              ++shared.credits[node];
              gauge->Set(shared.credits[node]);
              --shared.inflight[node];
              --shared.total_inflight;
              Result<ProcessBatchReply> decoded =
                  st.ok() ? ProcessBatchReply::Decode(reply_body)
                          : Result<ProcessBatchReply>(st);
              if (!decoded.ok() && shared.first_error.ok()) {
                shared.first_error = decoded.status();
              }
              shared.replies.insert_or_assign(std::make_pair(off, node),
                                              std::move(decoded));
              shared.cv.notify_all();
            });
        if (!submitted.ok()) {
          // Never submitted: the callback will not run, so the credit
          // comes back here.
          std::lock_guard<std::mutex> lock(shared.mu);
          ++shared.credits[node];
          --shared.inflight[node];
          --shared.total_inflight;
          if (shared.first_error.ok()) shared.first_error = submitted;
          aborted = true;
          break;
        }
      }
      works.push_back(std::move(work));
    }

    {
      // Drain: all acks in (or failed) before touching cursors/edge log.
      std::unique_lock<std::mutex> lock(shared.mu);
      shared.cv.wait(lock, [&] { return shared.total_inflight == 0; });
      stats->credit_stalls += shared.credit_stalls;
      stats->max_inflight =
          std::max(stats->max_inflight, shared.max_total_inflight);
      for (const auto& [node, hwm] : shared.hwm) {
        auto& slot = stats->node_inflight_hwm[node];
        slot = std::max(slot, hwm);
      }
    }

    // Single-threaded from here. Fold EVERY successful reply into stats
    // and the edge log — even past a failed sibling, whose replay dedups
    // the successful sub-batch — then advance the cursor over the
    // contiguous prefix of fully-acked offsets and mark those edge entries
    // complete.
    Status failure = shared.first_error;
    bool prefix_intact = true;
    for (const OffsetWork& work : works) {
      bool all_ok = true;
      for (uint32_t node : work.nodes) {
        auto rit = shared.replies.find({work.offset, node});
        if (rit == shared.replies.end() || !rit->second.ok()) {
          all_ok = false;
          if (failure.ok()) {
            failure = rit == shared.replies.end()
                          ? Status::Aborted("batch was never acknowledged")
                          : rit->second.status();
          }
          continue;
        }
        const ProcessBatchReply& reply = rit->second.value();
        stats->applied += reply.applied;
        stats->deduped += reply.deduped;
        if (routing.track_outputs) {
          Status recorded = RecordOutputs(routing, input_idx, work.offset,
                                          work.create_time, reply);
          if (!recorded.ok()) {
            all_ok = false;
            if (failure.ok()) failure = recorded;
          }
        }
      }
      if (all_ok && prefix_intact) {
        if (routing.track_outputs) {
          auto key = std::make_pair(input_idx, work.offset);
          auto [eit, inserted] = routing.entry_index.try_emplace(
              key, routing.entries.size());
          if (inserted) routing.entries.emplace_back();
          EdgeEntry& entry = routing.entries[eit->second];
          entry.create_time = std::max(entry.create_time, work.create_time);
          entry.complete = true;
        }
        input.cursor = work.offset + 1;
      } else {
        prefix_intact = false;
      }
    }
    RHINO_RETURN_NOT_OK(failure);
  }
  return Status::OK();
}

std::vector<dataflow::Record> ClusterDriver::OutputRecords(
    const std::string& op) const {
  std::vector<dataflow::Record> records;
  auto it = routing_.find(op);
  if (it == routing_.end()) return records;
  uint64_t end = CompletePrefix(it->second);
  for (uint64_t e = 0; e < end; ++e) {
    for (const auto& [vnode, recs] : it->second.entries[e].slots) {
      records.insert(records.end(), recs.begin(), recs.end());
    }
  }
  return records;
}

Result<CheckpointStats> ClusterDriver::Checkpoint() {
  CheckpointStats stats;
  stats.checkpoint_id = ++last_checkpoint_id_;
  std::string body;
  CheckpointRequest{stats.checkpoint_id}.EncodeTo(&body);

  // Concurrent barrier broadcast: every node persists (and drains its
  // replication stream) in parallel, so the cluster-wide checkpoint costs
  // one slowest-node barrier, not the sum.
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    uint32_t outstanding = 0;
    uint64_t bytes = 0;
    uint32_t replicated = 0;
    Status first_error;
  } shared;
  for (uint32_t node = 0; node < endpoints_.size(); ++node) {
    if (!alive_[node]) continue;
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      ++shared.outstanding;
    }
    stats.nodes += 1;
    Status submitted = transport_->CallAsync(
        endpoints_[node], MessageType::kCheckpoint, body,
        [&shared](Status st, std::string reply_body) {
          std::lock_guard<std::mutex> lock(shared.mu);
          if (st.ok()) {
            auto reply = CheckpointReply::Decode(reply_body);
            if (reply.ok()) {
              shared.bytes += reply->bytes;
              shared.replicated += reply->replicated;
            } else if (shared.first_error.ok()) {
              shared.first_error = reply.status();
            }
          } else if (shared.first_error.ok()) {
            shared.first_error = st;
          }
          --shared.outstanding;
          shared.cv.notify_all();
        });
    if (!submitted.ok()) {
      std::lock_guard<std::mutex> lock(shared.mu);
      --shared.outstanding;
      if (shared.first_error.ok()) shared.first_error = submitted;
    }
  }
  {
    std::unique_lock<std::mutex> lock(shared.mu);
    shared.cv.wait(lock, [&] { return shared.outstanding == 0; });
  }
  RHINO_RETURN_NOT_OK(shared.first_error);
  stats.bytes = shared.bytes;
  stats.replicated_nodes = shared.replicated;
  obs_->trace().Emit("net", "cluster_checkpoint", "driver",
                     stats.checkpoint_id,
                     {{"bytes", static_cast<int64_t>(stats.bytes)},
                      {"nodes", static_cast<int64_t>(stats.nodes)}});
  return stats;
}

Status ClusterDriver::TriggerHandover(const std::string& op, uint32_t origin,
                                      uint32_t target,
                                      const std::vector<uint32_t>& vnodes) {
  auto rit = routing_.find(op);
  if (rit == routing_.end()) return Status::NotFound("no operator: " + op);
  if (target >= endpoints_.size() || !alive_[target]) {
    return Status::InvalidArgument("handover target " + std::to_string(target) +
                                   " is not a live node");
  }
  if (origin == target) {
    return Status::InvalidArgument("handover of node " +
                                   std::to_string(origin) +
                                   "'s vnodes to itself");
  }
  OpRouting& routing = rit->second;
  for (uint32_t vnode : vnodes) {
    if (vnode >= routing.spec.num_vnodes || routing.owner[vnode] != origin) {
      return Status::FailedPrecondition(
          "vnode " + std::to_string(vnode) + " not owned by node " +
          std::to_string(origin));
    }
  }
  // One move per holder: the vnodes the target holds go replica-locally,
  // every other group keeps its holder.
  std::map<uint32_t, std::vector<uint32_t>> by_holder;
  for (uint32_t vnode : vnodes) {
    by_holder[routing.holder[vnode]].push_back(vnode);
  }
  for (const auto& [holder, group] : by_holder) {
    RHINO_RETURN_NOT_OK(MoveVnodes(routing, op, origin, target, group));
  }
  return Status::OK();
}

Status ClusterDriver::MoveVnodes(OpRouting& routing, const std::string& op,
                                 uint32_t origin, uint32_t target,
                                 const std::vector<uint32_t>& vnodes) {
  const uint32_t holder = routing.holder[vnodes.front()];
  // The target holds the vnodes: it takes its copies over, and the origin
  // keeps its rows as the copies it holds for the target (paper §4.1: the
  // target already holds the state, and nothing moves).
  const bool demote = holder == target;
  ExtractRequest extract;
  extract.id = ++last_handover_id_;
  extract.op = op;
  extract.vnodes = vnodes;
  extract.replica_local = demote ? 1 : 0;
  IngestRequest ingest;
  ingest.id = extract.id;
  ingest.op = op;
  ingest.origin = origin;
  ingest.holder = demote ? origin : holder;
  std::string body, reply_body;
  bool replica_local = false;
  while (true) {
    // Step 1: the origin drains its streams and answers the images of the
    // moved vnodes (state + watermarks), or empty runs on top of the
    // copies the target holds.
    body.clear();
    extract.EncodeTo(&body);
    RHINO_RETURN_NOT_OK(
        Call(origin, MessageType::kExtractVnodes, body, &reply_body));

    // Step 2: the target applies each image on top of its copy, or of
    // nothing, and reserves the seq that labels the holder's copy.
    RHINO_ASSIGN_OR_RETURN(ingest.images, DecodeVnodeImages(reply_body));
    replica_local = std::any_of(
        ingest.images.begin(), ingest.images.end(),
        [](const VnodeImage& image) { return image.base_seq != 0; });
    body.clear();
    ingest.EncodeTo(&body);
    Status st = Call(target, MessageType::kIngestVnodes, body, &reply_body);
    if (st.code() == StatusCode::kFailedPrecondition && replica_local) {
      // The target's replica is not at the origin's last shipped seqs;
      // it touched nothing. Redo the move with whole images.
      extract.replica_local = 0;
      continue;
    }
    RHINO_RETURN_NOT_OK(st);
    break;
  }
  RHINO_ASSIGN_OR_RETURN(IngestReply ingested, IngestReply::Decode(reply_body));

  // Step 3: the origin releases the moved vnodes: it demotes them to the
  // copies it holds for the target (even after whole images, its rows are
  // what the target ingested), or drops them and answers the seqs its
  // holder's copies must be at. Then routing flips — later batches go to
  // the target.
  ReleaseRequest release;
  release.op = op;
  release.vnodes = vnodes;
  if (demote) {
    release.seq = ingested.seq;
    release.target = target;
  }
  body.clear();
  release.EncodeTo(&body);
  RHINO_RETURN_NOT_OK(
      Call(origin, MessageType::kDropVnodes, body, &reply_body));
  for (uint32_t vnode : vnodes) {
    routing.owner[vnode] = target;
    if (demote) routing.holder[vnode] = origin;
  }

  // Step 4 (cold): the old holder relabels its copies as the target's.
  // Best effort: a copy it misses or drops makes the target's next delta
  // of the vnode find no copy, and that delta ships the vnode whole.
  if (!demote && holder != kNoNode && ingested.seq != 0) {
    RHINO_ASSIGN_OR_RETURN(ReleaseReply released,
                           ReleaseReply::Decode(reply_body));
    if (released.shipped.size() != vnodes.size()) {
      return Status::Corruption("release reply lists " +
                                std::to_string(released.shipped.size()) +
                                " seqs for " + std::to_string(vnodes.size()) +
                                " vnodes");
    }
    RelabelRequest relabel;
    relabel.op = op;
    relabel.origin = origin;
    relabel.target = target;
    relabel.seq = ingested.seq;
    for (size_t i = 0; i < vnodes.size(); ++i) {
      relabel.shipped[vnodes[i]] = released.shipped[i];
    }
    body.clear();
    relabel.EncodeTo(&body);
    Status relabelled =
        Call(holder, MessageType::kRelabelVnodes, body, nullptr);
    if (!relabelled.ok()) {
      RHINO_LOG(Warn) << "relabel at node " << holder
                         << " failed: " << relabelled.ToString();
    }
  }
  obs_->trace().Emit("net", "cluster_handover", "driver", extract.id,
                     {{"origin", origin},
                      {"target", target},
                      {"vnodes", static_cast<int64_t>(vnodes.size())},
                      {"replica_local", replica_local ? 1 : 0}});
  return Status::OK();
}

Status ClusterDriver::RecoverNodes(const std::vector<uint32_t>& dead_nodes) {
  // Declare every death FIRST: the re-formed cluster and the recovery RPCs
  // below must only touch true survivors, even when several nodes (e.g.
  // one VM's worth) failed together.
  std::vector<uint32_t> newly_dead;
  for (uint32_t dead : dead_nodes) {
    if (dead >= endpoints_.size()) {
      return Status::InvalidArgument("no such node");
    }
    if (!alive_[dead]) continue;  // already declared
    alive_[dead] = false;
    transport_->Forget(endpoints_[dead]);
    newly_dead.push_back(dead);
  }
  // A recovery that failed part-way (a survivor died during it) left
  // vnodes on dead nodes: this call re-homes them too.
  bool orphaned = false;
  for (const auto& [op, routing] : routing_) {
    for (uint32_t owner : routing.owner) orphaned = orphaned || !alive_[owner];
  }
  if (newly_dead.empty() && !orphaned) return Status::OK();
  // A survivor's vnode whose holder died gets the next live node after
  // its owner; the Hello below makes each owner do the same.
  for (auto& [op, routing] : routing_) {
    for (uint32_t vnode = 0; vnode < routing.spec.num_vnodes; ++vnode) {
      const uint32_t holder = routing.holder[vnode];
      if (alive_[routing.owner[vnode]] &&
          (holder == kNoNode || !alive_[holder])) {
        routing.holder[vnode] = HolderAfter(routing.owner[vnode]);
      }
    }
  }
  // Survivors learn who died, so the checkpoint a caller takes right after
  // recovery replicates (and doesn't hang trying to reach a dead holder).
  RHINO_RETURN_NOT_OK(ReformRing());
  for (uint32_t node = 0; node < endpoints_.size(); ++node) {
    if (!alive_[node]) RHINO_RETURN_NOT_OK(RecoverOne(node));
  }
  return Status::OK();
}

Status ClusterDriver::RecoverOne(uint32_t dead_node) {
  RHINO_ASSIGN_OR_RETURN(uint32_t fallback, NextAlive(dead_node));

  for (auto& [op, routing] : routing_) {
    // Each lost vnode is promoted at its holder, which holds its replica
    // (the Rhino path); one whose holder died too goes to the dead node's
    // ring successor, which restores it from its checkpoint chain
    // (RhinoDFS: no replica survived).
    std::map<uint32_t, std::vector<uint32_t>> lost;
    for (uint32_t vnode = 0; vnode < routing.spec.num_vnodes; ++vnode) {
      if (routing.owner[vnode] != dead_node) continue;
      const uint32_t holder = routing.holder[vnode];
      lost[holder != kNoNode && alive_[holder] ? holder : fallback].push_back(
          vnode);
    }
    for (const auto& [target, vnodes] : lost) {
      ReplicaFetchRequest fetch;
      fetch.origin_node = dead_node;
      fetch.op = op;
      fetch.vnodes = vnodes;
      std::string body;
      fetch.EncodeTo(&body);
      std::string reply_body;
      RHINO_RETURN_NOT_OK(
          Call(target, MessageType::kPromoteReplica, body, &reply_body));
      RHINO_ASSIGN_OR_RETURN(std::vector<VnodeImage> images,
                             DecodeVnodeImages(reply_body));
      // The holder became the owner: the vnodes get the next live node.
      for (uint32_t vnode : vnodes) {
        routing.owner[vnode] = target;
        routing.holder[vnode] = HolderAfter(target);
      }

      // Rewind each of THIS operator's input cursors to the earliest
      // offset any restored vnode still needs; surviving vnodes dedup the
      // replayed overlap. A restored vnode with no watermark for an input
      // replays that input from the start (it may have applied records
      // that were never checkpointed). Edge inputs rewind into the
      // driver-resident edge log — the upstream backup of the edge.
      for (OpInput& input : routing.inputs) {
        uint64_t low = input.cursor;
        for (const VnodeImage& image : images) {
          auto mark = image.watermarks.find(input.source_id);
          low = std::min(low,
                         mark != image.watermarks.end() ? mark->second : 0);
        }
        input.cursor = low;
      }
      obs_->trace().Emit("net", "cluster_recovery", "driver", 0,
                         {{"dead", dead_node},
                          {"target", target},
                          {"vnodes", static_cast<int64_t>(vnodes.size())}});
    }
  }
  return Status::OK();
}

std::vector<uint32_t> ClusterDriver::ProbeFailures() {
  std::vector<uint32_t> dead;
  for (uint32_t node = 0; node < endpoints_.size(); ++node) {
    if (!alive_[node]) continue;
    std::string reply_body;
    if (!Call(node, MessageType::kStats, {}, &reply_body).ok()) {
      dead.push_back(node);
    }
  }
  return dead;
}

Result<uint64_t> ClusterDriver::QueryCount(const std::string& op,
                                           uint64_t key) {
  RHINO_ASSIGN_OR_RETURN(QueryCountReply reply, QueryState(op, key));
  return reply.count;
}

Result<QueryCountReply> ClusterDriver::QueryState(const std::string& op,
                                                  uint64_t key) {
  RHINO_ASSIGN_OR_RETURN(uint32_t node, RouteKey(op, key));
  QueryCountRequest req;
  req.op = op;
  req.key = key;
  std::string body;
  req.EncodeTo(&body);
  std::string reply_body;
  RHINO_RETURN_NOT_OK(Call(node, MessageType::kQueryCount, body, &reply_body));
  return QueryCountReply::Decode(reply_body);
}

Result<StatsReply> ClusterDriver::NodeStats(uint32_t node) {
  std::string reply_body;
  RHINO_RETURN_NOT_OK(Call(node, MessageType::kStats, {}, &reply_body));
  return StatsReply::Decode(reply_body);
}

void ClusterDriver::Shutdown() {
  for (uint32_t node = 0; node < endpoints_.size(); ++node) {
    if (!alive_[node]) continue;
    Call(node, MessageType::kShutdown, {}, nullptr);  // best-effort
  }
}

Result<uint32_t> ClusterDriver::RouteKey(const std::string& op,
                                         uint64_t key) const {
  auto it = routing_.find(op);
  if (it == routing_.end()) return Status::NotFound("no operator: " + op);
  return it->second.owner[VnodeForKey(key, it->second.spec.num_vnodes)];
}

Result<uint32_t> ClusterDriver::HolderOf(const std::string& op,
                                        uint32_t vnode) const {
  auto it = routing_.find(op);
  if (it == routing_.end()) return Status::NotFound("no operator: " + op);
  if (vnode >= it->second.spec.num_vnodes) {
    return Status::InvalidArgument("no vnode " + std::to_string(vnode) +
                                   " in " + op);
  }
  const uint32_t holder = it->second.holder[vnode];
  if (holder == kNoNode) {
    return Status::FailedPrecondition("no node holds a replica of vnode " +
                                      std::to_string(vnode));
  }
  return holder;
}

std::vector<uint32_t> ClusterDriver::VnodesOwnedBy(const std::string& op,
                                                   uint32_t node) const {
  std::vector<uint32_t> vnodes;
  auto it = routing_.find(op);
  if (it == routing_.end()) return vnodes;
  for (uint32_t vnode = 0; vnode < it->second.spec.num_vnodes; ++vnode) {
    if (it->second.owner[vnode] == node) vnodes.push_back(vnode);
  }
  return vnodes;
}

uint64_t ClusterDriver::cursor(size_t partition) const {
  uint64_t low = 0;
  bool found = false;
  for (const auto& [op, routing] : routing_) {
    for (const OpInput& input : routing.inputs) {
      if (!input.from_partition || input.partition != partition) continue;
      low = found ? std::min(low, input.cursor) : input.cursor;
      found = true;
    }
  }
  return low;
}

}  // namespace rhino::net
