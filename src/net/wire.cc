#include "net/wire.h"

#include <utility>

#include "common/serde.h"

namespace rhino::net {

namespace {

// Decoders share this trailing-bytes check: a frame that parses but has
// leftover bytes is as suspect as a truncated one.
Status CheckAtEnd(const BinaryReader& r, const char* what) {
  if (!r.AtEnd()) {
    return Status::Corruption(std::string("trailing bytes after ") + what);
  }
  return Status::OK();
}

Status CheckVersion(BinaryReader* r, const char* what) {
  uint8_t version = 0;
  RHINO_RETURN_NOT_OK(r->GetU8(&version));
  if (version != kWireVersion) {
    return Status::Corruption(std::string(what) + " has wire version " +
                              std::to_string(version) + ", expected " +
                              std::to_string(kWireVersion));
  }
  return Status::OK();
}

// Minimum encoded sizes of repeated elements, which bound every decoded
// element count (`BinaryReader::GetCount`) before anything is reserved.
constexpr size_t kMinVnodeBytes = 1;        // varint vnode
constexpr size_t kMinRecordBytes = 4;       // key | time | size | payload
// vnode | base seq | bytes | watermark count | run length
constexpr size_t kMinImageBytes = 5;
constexpr size_t kMinWatermarkBytes = 2;    // source | offset
constexpr size_t kMinStringBytes = 1;       // length
constexpr size_t kMinSeqBytes = 1;          // varint seq
constexpr size_t kMinShippedBytes = 2;      // vnode | seq

void PutVnodes(BinaryWriter* w, const std::vector<uint32_t>& vnodes) {
  w->PutVarint(vnodes.size());
  for (uint32_t v : vnodes) w->PutVarint(v);
}

Status GetVnodes(BinaryReader* r, std::vector<uint32_t>* vnodes) {
  uint64_t n = 0;
  RHINO_RETURN_NOT_OK(r->GetCount(kMinVnodeBytes, &n));
  vnodes->clear();
  vnodes->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t v = 0;
    RHINO_RETURN_NOT_OK(r->GetVarint32(&v));
    vnodes->push_back(v);
  }
  return Status::OK();
}

void PutImages(BinaryWriter* w, const std::vector<VnodeImage>& images) {
  w->PutVarint(images.size());
  for (const VnodeImage& image : images) {
    w->PutVarint(image.vnode);
    w->PutVarint(image.base_seq);
    w->PutVarint(image.bytes);
    w->PutVarint(image.watermarks.size());
    for (const auto& [source, offset] : image.watermarks) {
      w->PutZigzag(source);
      w->PutVarint(offset);
    }
    w->PutString(image.entries);
  }
}

Status GetImages(BinaryReader* r, std::vector<VnodeImage>* images) {
  uint64_t n = 0;
  RHINO_RETURN_NOT_OK(r->GetCount(kMinImageBytes, &n));
  images->clear();
  images->resize(n);
  for (VnodeImage& image : *images) {
    uint64_t marks = 0;
    RHINO_RETURN_NOT_OK(r->GetVarint32(&image.vnode));
    RHINO_RETURN_NOT_OK(r->GetVarint(&image.base_seq));
    RHINO_RETURN_NOT_OK(r->GetVarint(&image.bytes));
    RHINO_RETURN_NOT_OK(r->GetCount(kMinWatermarkBytes, &marks));
    for (uint64_t i = 0; i < marks; ++i) {
      int64_t source = 0;
      uint64_t offset = 0;
      RHINO_RETURN_NOT_OK(r->GetZigzag(&source));
      RHINO_RETURN_NOT_OK(r->GetVarint(&offset));
      image.watermarks[static_cast<int>(source)] = offset;
    }
    RHINO_RETURN_NOT_OK(r->GetString(&image.entries));
  }
  return Status::OK();
}

// The request type of the checkpoint restore verb until version 8: unused.
constexpr uint8_t kRetiredType = 10;

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kReply: return "Reply";
    case MessageType::kHello: return "Hello";
    case MessageType::kAddOperator: return "AddOperator";
    case MessageType::kProcessBatch: return "ProcessBatch";
    case MessageType::kCheckpoint: return "Checkpoint";
    case MessageType::kExtractVnodes: return "ExtractVnodes";
    case MessageType::kIngestVnodes: return "IngestVnodes";
    case MessageType::kDropVnodes: return "DropVnodes";
    case MessageType::kReplicateState: return "ReplicateState";
    case MessageType::kPromoteReplica: return "PromoteReplica";
    case MessageType::kQueryCount: return "QueryCount";
    case MessageType::kStats: return "Stats";
    case MessageType::kShutdown: return "Shutdown";
    case MessageType::kRelabelVnodes: return "RelabelVnodes";
  }
  return "Unknown";
}

// ------------------------------------------------------------ envelopes --

void RequestEnvelope::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(kWireVersion);
  w.PutU64(seq);
  out->append(body);
}

Result<RequestEnvelope> RequestEnvelope::Decode(std::string_view data) {
  BinaryReader r(data);
  RequestEnvelope env;
  uint8_t type = 0;
  RHINO_RETURN_NOT_OK(r.GetU8(&type));
  if (type == 0 || type == kRetiredType ||
      type > static_cast<uint8_t>(MessageType::kRelabelVnodes)) {
    return Status::Corruption("unknown request type " + std::to_string(type));
  }
  env.type = static_cast<MessageType>(type);
  RHINO_RETURN_NOT_OK(CheckVersion(&r, "request envelope"));
  RHINO_RETURN_NOT_OK(r.GetU64(&env.seq));
  env.body.assign(data.substr(r.position()));
  return env;
}

void ReplyEnvelope::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutU8(static_cast<uint8_t>(MessageType::kReply));
  w.PutU8(kWireVersion);
  w.PutU64(seq);
  w.PutU8(static_cast<uint8_t>(code));
  w.PutString(message);
  out->append(body);
}

Result<ReplyEnvelope> ReplyEnvelope::Decode(std::string_view data) {
  BinaryReader r(data);
  ReplyEnvelope env;
  uint8_t type = 0;
  RHINO_RETURN_NOT_OK(r.GetU8(&type));
  if (type != static_cast<uint8_t>(MessageType::kReply)) {
    return Status::Corruption("reply envelope has type " +
                              std::to_string(type));
  }
  RHINO_RETURN_NOT_OK(CheckVersion(&r, "reply envelope"));
  RHINO_RETURN_NOT_OK(r.GetU64(&env.seq));
  uint8_t code = 0;
  RHINO_RETURN_NOT_OK(r.GetU8(&code));
  if (code > static_cast<uint8_t>(StatusCode::kUnknown)) {
    return Status::Corruption("reply has status code " + std::to_string(code));
  }
  env.code = static_cast<StatusCode>(code);
  RHINO_RETURN_NOT_OK(r.GetString(&env.message));
  env.body.assign(data.substr(r.position()));
  return env;
}

// ----------------------------------------------- batches and operators --

void EncodeBatch(const dataflow::Batch& batch, std::string* out) {
  BinaryWriter w(out);
  w.PutZigzag(batch.create_time);
  w.PutVarint(batch.count);
  w.PutVarint(batch.bytes);
  w.PutZigzag(batch.source_id);
  w.PutVarint(batch.source_offset);
  w.PutVarint(batch.records.size());
  // A record's event time travels as its difference from the previous
  // record's (the first one's from `create_time`), in wrapping unsigned
  // arithmetic so no difference overflows.
  uint64_t previous = static_cast<uint64_t>(batch.create_time);
  for (const auto& rec : batch.records) {
    const uint64_t time = static_cast<uint64_t>(rec.event_time);
    w.PutVarint(rec.key);
    w.PutZigzag(static_cast<int64_t>(time - previous));
    w.PutVarint(rec.size);
    w.PutString(rec.payload);
    previous = time;
  }
  // Modeled-mode slices do not cross the wire: the networked runtime
  // always runs in real (record-carrying) mode.
}

Result<dataflow::Batch> DecodeBatch(std::string_view data) {
  BinaryReader r(data);
  dataflow::Batch batch;
  RHINO_RETURN_NOT_OK(r.GetZigzag(&batch.create_time));
  RHINO_RETURN_NOT_OK(r.GetVarint(&batch.count));
  RHINO_RETURN_NOT_OK(r.GetVarint(&batch.bytes));
  int64_t source_id = 0;
  RHINO_RETURN_NOT_OK(r.GetZigzag(&source_id));
  batch.source_id = static_cast<int>(source_id);
  RHINO_RETURN_NOT_OK(r.GetVarint(&batch.source_offset));
  uint64_t n = 0;
  RHINO_RETURN_NOT_OK(r.GetCount(kMinRecordBytes, &n));
  batch.records.reserve(n);
  uint64_t previous = static_cast<uint64_t>(batch.create_time);
  for (uint64_t i = 0; i < n; ++i) {
    dataflow::Record rec;
    int64_t delta = 0;
    RHINO_RETURN_NOT_OK(r.GetVarint(&rec.key));
    RHINO_RETURN_NOT_OK(r.GetZigzag(&delta));
    previous += static_cast<uint64_t>(delta);
    rec.event_time = static_cast<int64_t>(previous);
    RHINO_RETURN_NOT_OK(r.GetVarint32(&rec.size));
    RHINO_RETURN_NOT_OK(r.GetString(&rec.payload));
    batch.records.push_back(std::move(rec));
  }
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "batch"));
  return batch;
}

void EncodeOperatorSpec(const dataflow::OperatorSpec& spec, std::string* out) {
  BinaryWriter w(out);
  w.PutU8(static_cast<uint8_t>(spec.kind));
  w.PutString(spec.name);
  w.PutU32(spec.num_vnodes);
  w.PutU32(spec.input_arity);
}

Result<dataflow::OperatorSpec> DecodeOperatorSpec(std::string_view data) {
  BinaryReader r(data);
  dataflow::OperatorSpec spec;
  uint8_t kind = 0;
  RHINO_RETURN_NOT_OK(r.GetU8(&kind));
  if (!dataflow::ValidOperatorKind(kind)) {
    // InvalidArgument, not Corruption: the frame parsed fine, the peer
    // just asked for an operator this build cannot host.
    return Status::InvalidArgument("unknown operator kind " +
                                   std::to_string(kind));
  }
  spec.kind = static_cast<dataflow::OperatorKind>(kind);
  RHINO_RETURN_NOT_OK(r.GetString(&spec.name));
  RHINO_RETURN_NOT_OK(r.GetU32(&spec.num_vnodes));
  RHINO_RETURN_NOT_OK(r.GetU32(&spec.input_arity));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "operator spec"));
  return spec;
}

// ------------------------------------------------------- request bodies --

void HelloRequest::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutU32(node_id);
  w.PutVarint(peers.size());
  for (const std::string& peer : peers) w.PutString(peer);
}

Result<HelloRequest> HelloRequest::Decode(std::string_view data) {
  BinaryReader r(data);
  HelloRequest req;
  RHINO_RETURN_NOT_OK(r.GetU32(&req.node_id));
  uint64_t n = 0;
  RHINO_RETURN_NOT_OK(r.GetCount(kMinStringBytes, &n));
  req.peers.resize(n);
  for (std::string& peer : req.peers) {
    RHINO_RETURN_NOT_OK(r.GetString(&peer));
  }
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "hello request"));
  return req;
}

void AddOperatorRequest::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  std::string encoded;
  EncodeOperatorSpec(spec, &encoded);
  w.PutString(encoded);
  PutVnodes(&w, owned_vnodes);
}

Result<AddOperatorRequest> AddOperatorRequest::Decode(std::string_view data) {
  BinaryReader r(data);
  AddOperatorRequest req;
  std::string_view encoded;
  RHINO_RETURN_NOT_OK(r.GetString(&encoded));
  RHINO_ASSIGN_OR_RETURN(req.spec, DecodeOperatorSpec(encoded));
  RHINO_RETURN_NOT_OK(GetVnodes(&r, &req.owned_vnodes));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "add-operator request"));
  return req;
}

void ProcessBatchRequest::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutString(op);
  w.PutU32(side);
  w.PutU8(return_outputs);
  if (return_outputs != 0) w.PutVarint(cursor);
  std::string encoded;
  EncodeBatch(batch, &encoded);
  w.PutString(encoded);
}

Result<ProcessBatchRequest> ProcessBatchRequest::Decode(std::string_view data) {
  BinaryReader r(data);
  ProcessBatchRequest req;
  RHINO_RETURN_NOT_OK(r.GetString(&req.op));
  RHINO_RETURN_NOT_OK(r.GetU32(&req.side));
  RHINO_RETURN_NOT_OK(r.GetU8(&req.return_outputs));
  if (req.return_outputs != 0) RHINO_RETURN_NOT_OK(r.GetVarint(&req.cursor));
  std::string_view encoded;
  RHINO_RETURN_NOT_OK(r.GetString(&encoded));
  RHINO_ASSIGN_OR_RETURN(req.batch, DecodeBatch(encoded));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "process-batch request"));
  return req;
}

void ProcessBatchReply::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutVarint(applied);
  w.PutVarint(deduped);
  PutVnodes(&w, applied_vnodes);
  w.PutString(outputs);
}

Result<ProcessBatchReply> ProcessBatchReply::Decode(std::string_view data) {
  BinaryReader r(data);
  ProcessBatchReply rep;
  RHINO_RETURN_NOT_OK(r.GetVarint(&rep.applied));
  RHINO_RETURN_NOT_OK(r.GetVarint(&rep.deduped));
  RHINO_RETURN_NOT_OK(GetVnodes(&r, &rep.applied_vnodes));
  RHINO_RETURN_NOT_OK(r.GetString(&rep.outputs));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "process-batch reply"));
  return rep;
}

void CheckpointRequest::EncodeTo(std::string* out) const {
  BinaryWriter(out).PutVarint(checkpoint_id);
}

Result<CheckpointRequest> CheckpointRequest::Decode(std::string_view data) {
  BinaryReader r(data);
  CheckpointRequest req;
  RHINO_RETURN_NOT_OK(r.GetVarint(&req.checkpoint_id));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "checkpoint request"));
  return req;
}

void CheckpointReply::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutU64(checkpoint_id);
  w.PutU64(bytes);
  w.PutU8(replicated);
}

Result<CheckpointReply> CheckpointReply::Decode(std::string_view data) {
  BinaryReader r(data);
  CheckpointReply rep;
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.checkpoint_id));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.bytes));
  RHINO_RETURN_NOT_OK(r.GetU8(&rep.replicated));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "checkpoint reply"));
  return rep;
}

void EncodeVnodeImages(const std::vector<VnodeImage>& images,
                       std::string* out) {
  BinaryWriter w(out);
  PutImages(&w, images);
}

Result<std::vector<VnodeImage>> DecodeVnodeImages(std::string_view data) {
  BinaryReader r(data);
  std::vector<VnodeImage> images;
  RHINO_RETURN_NOT_OK(GetImages(&r, &images));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "vnode images"));
  return images;
}

void ExtractRequest::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutVarint(id);
  w.PutString(op);
  PutVnodes(&w, vnodes);
  w.PutU8(replica_local);
}

Result<ExtractRequest> ExtractRequest::Decode(std::string_view data) {
  BinaryReader r(data);
  ExtractRequest req;
  RHINO_RETURN_NOT_OK(r.GetVarint(&req.id));
  RHINO_RETURN_NOT_OK(r.GetString(&req.op));
  RHINO_RETURN_NOT_OK(GetVnodes(&r, &req.vnodes));
  RHINO_RETURN_NOT_OK(r.GetU8(&req.replica_local));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "extract request"));
  return req;
}

void IngestRequest::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutVarint(id);
  w.PutString(op);
  w.PutVarint(origin);
  w.PutVarint(holder);
  PutImages(&w, images);
}

Result<IngestRequest> IngestRequest::Decode(std::string_view data) {
  BinaryReader r(data);
  IngestRequest req;
  RHINO_RETURN_NOT_OK(r.GetVarint(&req.id));
  RHINO_RETURN_NOT_OK(r.GetString(&req.op));
  RHINO_RETURN_NOT_OK(r.GetVarint32(&req.origin));
  RHINO_RETURN_NOT_OK(r.GetVarint32(&req.holder));
  RHINO_RETURN_NOT_OK(GetImages(&r, &req.images));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "ingest request"));
  return req;
}

void IngestReply::EncodeTo(std::string* out) const {
  BinaryWriter(out).PutVarint(seq);
}

Result<IngestReply> IngestReply::Decode(std::string_view data) {
  BinaryReader r(data);
  IngestReply rep;
  RHINO_RETURN_NOT_OK(r.GetVarint(&rep.seq));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "ingest reply"));
  return rep;
}

void ReleaseRequest::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutString(op);
  PutVnodes(&w, vnodes);
  w.PutVarint(seq);
  if (seq != 0) w.PutVarint(target);
}

Result<ReleaseRequest> ReleaseRequest::Decode(std::string_view data) {
  BinaryReader r(data);
  ReleaseRequest req;
  RHINO_RETURN_NOT_OK(r.GetString(&req.op));
  RHINO_RETURN_NOT_OK(GetVnodes(&r, &req.vnodes));
  RHINO_RETURN_NOT_OK(r.GetVarint(&req.seq));
  if (req.seq != 0) RHINO_RETURN_NOT_OK(r.GetVarint32(&req.target));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "release request"));
  return req;
}

void ReleaseReply::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutVarint(shipped.size());
  for (uint64_t seq : shipped) w.PutVarint(seq);
}

Result<ReleaseReply> ReleaseReply::Decode(std::string_view data) {
  BinaryReader r(data);
  ReleaseReply rep;
  uint64_t n = 0;
  RHINO_RETURN_NOT_OK(r.GetCount(kMinSeqBytes, &n));
  rep.shipped.resize(n);
  for (uint64_t& seq : rep.shipped) RHINO_RETURN_NOT_OK(r.GetVarint(&seq));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "release reply"));
  return rep;
}

void RelabelRequest::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutString(op);
  w.PutVarint(origin);
  w.PutVarint(target);
  w.PutVarint(seq);
  w.PutVarint(shipped.size());
  for (const auto& [vnode, at] : shipped) {
    w.PutVarint(vnode);
    w.PutVarint(at);
  }
}

Result<RelabelRequest> RelabelRequest::Decode(std::string_view data) {
  BinaryReader r(data);
  RelabelRequest req;
  RHINO_RETURN_NOT_OK(r.GetString(&req.op));
  RHINO_RETURN_NOT_OK(r.GetVarint32(&req.origin));
  RHINO_RETURN_NOT_OK(r.GetVarint32(&req.target));
  RHINO_RETURN_NOT_OK(r.GetVarint(&req.seq));
  uint64_t n = 0;
  RHINO_RETURN_NOT_OK(r.GetCount(kMinShippedBytes, &n));
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t vnode = 0;
    uint64_t at = 0;
    RHINO_RETURN_NOT_OK(r.GetVarint32(&vnode));
    RHINO_RETURN_NOT_OK(r.GetVarint(&at));
    if (!req.shipped.emplace(vnode, at).second) {
      return Status::Corruption("relabel request lists vnode " +
                                std::to_string(vnode) + " twice");
    }
  }
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "relabel request"));
  return req;
}

void ReplicateStateRequest::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutU32(origin_node);
  w.PutString(op);
  w.PutU64(stream_seq);
  PutImages(&w, vnodes);
}

Result<ReplicateStateRequest> ReplicateStateRequest::Decode(
    std::string_view data) {
  BinaryReader r(data);
  ReplicateStateRequest req;
  RHINO_RETURN_NOT_OK(r.GetU32(&req.origin_node));
  RHINO_RETURN_NOT_OK(r.GetString(&req.op));
  RHINO_RETURN_NOT_OK(r.GetU64(&req.stream_seq));
  RHINO_RETURN_NOT_OK(GetImages(&r, &req.vnodes));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "replicate-state request"));
  return req;
}

void ReplicaFetchRequest::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutU32(origin_node);
  w.PutString(op);
  PutVnodes(&w, vnodes);
}

Result<ReplicaFetchRequest> ReplicaFetchRequest::Decode(std::string_view data) {
  BinaryReader r(data);
  ReplicaFetchRequest req;
  RHINO_RETURN_NOT_OK(r.GetU32(&req.origin_node));
  RHINO_RETURN_NOT_OK(r.GetString(&req.op));
  RHINO_RETURN_NOT_OK(GetVnodes(&r, &req.vnodes));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "replica-fetch request"));
  return req;
}

void QueryCountRequest::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutString(op);
  w.PutU64(key);
}

Result<QueryCountRequest> QueryCountRequest::Decode(std::string_view data) {
  BinaryReader r(data);
  QueryCountRequest req;
  RHINO_RETURN_NOT_OK(r.GetString(&req.op));
  RHINO_RETURN_NOT_OK(r.GetU64(&req.key));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "query-count request"));
  return req;
}

void QueryCountReply::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutU64(count);
  w.PutU64(left);
  w.PutU64(right);
}

Result<QueryCountReply> QueryCountReply::Decode(std::string_view data) {
  BinaryReader r(data);
  QueryCountReply rep;
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.count));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.left));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.right));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "query-count reply"));
  return rep;
}

void StatsReply::EncodeTo(std::string* out) const {
  BinaryWriter w(out);
  w.PutU64(applied);
  w.PutU64(deduped);
  w.PutU64(owned_vnodes);
  w.PutU64(replicas_held);
  w.PutU64(state_bytes);
  w.PutU64(repl_dirty);
  w.PutU64(repl_inflight);
  w.PutU64(repl_stream_seq);
  w.PutU64(repl_shipped);
}

Result<StatsReply> StatsReply::Decode(std::string_view data) {
  BinaryReader r(data);
  StatsReply rep;
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.applied));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.deduped));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.owned_vnodes));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.replicas_held));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.state_bytes));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.repl_dirty));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.repl_inflight));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.repl_stream_seq));
  RHINO_RETURN_NOT_OK(r.GetU64(&rep.repl_shipped));
  RHINO_RETURN_NOT_OK(CheckAtEnd(r, "stats reply"));
  return rep;
}

}  // namespace rhino::net
