#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "dataflow/operator_core.h"
#include "dataflow/record.h"
#include "state/state_backend.h"

/// \file wire.h
/// Wire format of the multi-process runtime: RPC envelopes plus binary
/// serialization of the things that cross process boundaries — data
/// batches, the request and reply bodies of the control verbs, each
/// carrying only the fields its handler reads, and vnode state, which
/// always travels as `VnodeImage`s.
///
/// Everything uses the little-endian `BinaryWriter`/`BinaryReader` format
/// shared with the LSM on-disk structures; every `Decode` returns
/// `Corruption` on truncated or trailing bytes instead of crashing — the
/// payload may have arrived from a byte stream in an arbitrary failure
/// state. Every decoded element count is bounded by the bytes left over
/// the element's minimum encoded size before anything is reserved.

namespace rhino::net {

/// RPC verbs understood by a `NodeServer`. The driver plans checkpoints
/// and handovers by issuing these over TCP (or the in-process loopback
/// transport — same bytes either way). Values are stable: tools index
/// per-verb counters by them, and tools that count verbs 0-15 only see
/// every verb's bytes. 10 is unused since version 8 (it was the
/// checkpoint restore, now part of `kPromoteReplica`), and a request of
/// that type is refused like any unknown one.
enum class MessageType : uint8_t {
  kReply = 0,           ///< server -> client response envelope
  kHello = 1,           ///< configure node id + the peers' endpoints
  kAddOperator = 2,     ///< host an operator instance + LSM shard
  kProcessBatch = 3,    ///< data plane: one routed batch
  kCheckpoint = 4,      ///< control: checkpoint barrier
  kExtractVnodes = 5,   ///< handover origin: serialize moved vnodes
  kIngestVnodes = 6,    ///< handover target: ingest moved vnodes
  kDropVnodes = 7,      ///< handover origin: demote or drop moved vnodes
  kReplicateState = 8,  ///< node -> node: replication stream delta
  kPromoteReplica = 9,  ///< recovery: own a dead node's vnodes
  kQueryCount = 11,     ///< read side: keyed counter lookup
  kStats = 12,          ///< introspection for tests/benches
  kShutdown = 13,       ///< graceful stop
  kRelabelVnodes = 14,  ///< cold handover: the old holder's copy changes hands
};
static_assert(static_cast<uint8_t>(MessageType::kRelabelVnodes) < 16,
              "per-verb byte counters have 16 slots");

const char* MessageTypeName(MessageType type);

/// Version byte carried by every envelope, directly after the type byte.
/// Decoders reject any other value as `Corruption` so a protocol change
/// fails loudly at the first frame instead of mis-parsing the stream.
/// Version 1 introduced correlation-id pipelining (out-of-order windows);
/// version 0 never carried an explicit byte, so 1 is the first value.
/// Version 2 made `kAddOperator` carry a full operator spec (kind +
/// config + input arity), `kProcessBatch` carry the input side and an
/// output-collection flag, and widened the batch/query replies.
/// Version 3 dropped the full-image shape of `kReplicateState`: the verb
/// only carries continuous-stream deltas.
/// Version 4 made the stream incremental and the handover replica-local:
/// `kReplicateState` lists its vnodes, each whole or as the keys written
/// since `base_seq`; `kExtractVnodes` and `kIngestVnodes` carry a
/// replica-local flag and per-vnode stream seqs, and the extract reply
/// became `ExtractVnodesReply`.
/// Version 5 made the encodings compact. A batch's header fields and each
/// record's key, size and payload length are varints, and a record's event
/// time is the zigzag varint of its difference from the previous record's
/// (the first record's from `create_time`). Vnode ids in every vnode list
/// and vnode->seq map, `ReplicatedVnode::vnode` and `base_seq`, and
/// `ProcessBatchReply`'s counts are varints, as is every integer of an
/// encoded replica image (ids, file and vnode sizes, watermarks). State
/// entries, in blobs and change runs alike, are prefix-coded against the
/// previous key of their vnode (`state::EntryWriter`).
/// Version 6 made `VnodeImage` the one state payload. It replaced the
/// simulator's replica image envelope (whose file lists and source offsets
/// always travelled empty) in `kReplicateState`, `kExtractVnodes`,
/// `kIngestVnodes`, `kPromoteReplica` and the checkpoint restore, the
/// per-vnode seq maps, `ReplicatedVnode`, the ingest's durable flag and
/// the extract reply's replica-local flag: an image's `base_seq` says
/// whether its run is the whole vnode (0) or the keys written since a copy
/// the receiver holds.
/// Version 7 tag-packed the state entries of every run: one varint tag
/// carries the suffix length, a same-length flag that makes `shared`
/// implicit, and a tombstone mark or a value length of up to 5 bytes, so
/// a counter entry costs one header byte instead of three.
/// Version 8 made every control body carry only what its handler reads.
/// `kCheckpoint` is the checkpoint id alone, the handover request is flat
/// (id, operator, origin, moved vnodes, replica-local flag, images) instead
/// of a nested control event with a whole handover spec, and
/// `CheckpointReply` lost its operator count. The checkpoint restore verb
/// (10) is gone: `kPromoteReplica` takes each vnode from the replica held
/// here, its checkpoint chain, or nothing.
/// Version 9 gave every vnode a holder beside its owner. `kHello` names
/// the peers' endpoints by node id instead of one ring successor. The
/// extract and the ingest have bodies of their own: the extract lost the
/// origin, the ingest the moved-vnode list and the replica-local flag, and
/// gained the holder the target streams the moved vnodes to; its reply is
/// the stream seq the target reserved for them. `kDropVnodes` demotes the
/// moved vnodes to the held copy of that seq, or drops them and answers
/// their last shipped seqs, which `kRelabelVnodes` (14) checks at the old
/// holder. Stream deltas carry no tombstones.
/// Version 10 keeps an operator edge's outputs with the state that made
/// them: `kProcessBatch` carries the input's cursor when it asks for
/// outputs, and a replayed batch is answered with the outputs its first
/// apply kept. The operator spec lost the modeled-state config: the
/// networked runtime hosts no modeled operators.
constexpr uint8_t kWireVersion = 10;

/// Always true: the pipelined data plane with continuous replication is
/// the only one. Kept as a constant because `perfbench/` still guards on
/// it.
inline bool NetPipelineEnabled() { return true; }

/// Key -> virtual node mapping of the networked runtime. Driver (routing)
/// and nodes (ownership checks) must agree, so it lives here.
inline uint32_t VnodeForKey(uint64_t key, uint32_t num_vnodes) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(key >> (8 * i));
  }
  return static_cast<uint32_t>(Fnv1a64(bytes, 8) % num_vnodes);
}

// ----------------------------------------------------------- envelopes --

/// Client -> server: `u8 type | u8 version | u64 seq | body`. `seq` is
/// the correlation id: the client (`PipelinedChannel`) keeps a window of
/// requests in flight and matches replies back by `seq`, so the server
/// echoes it verbatim (replies may then arrive out of submission order).
struct RequestEnvelope {
  MessageType type = MessageType::kReply;
  uint64_t seq = 0;
  std::string body;

  void EncodeTo(std::string* out) const;
  static Result<RequestEnvelope> Decode(std::string_view data);
};

/// Server -> client: `u8 kReply | u8 version | u64 seq | u8 code | msg |
/// body`. The handler's `Status` travels in the envelope so application
/// errors are distinguishable from transport failures; `seq` echoes the
/// request's correlation id.
struct ReplyEnvelope {
  uint64_t seq = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::string body;

  void EncodeTo(std::string* out) const;
  static Result<ReplyEnvelope> Decode(std::string_view data);

  Status ToStatus() const {
    if (code == StatusCode::kOk) return Status::OK();
    return Status(code, message);
  }
};

// ---------------------------------------------- batches and operators --

void EncodeBatch(const dataflow::Batch& batch, std::string* out);
Result<dataflow::Batch> DecodeBatch(std::string_view data);

/// Operator specs travel inside `kAddOperator`: kind byte, name, vnode
/// count and input arity. An unknown kind byte
/// decodes to `InvalidArgument` (not `Corruption`) — the frame is intact,
/// the request is just not satisfiable, and the driver surfaces the error
/// verbatim instead of silently hosting the wrong operator.
void EncodeOperatorSpec(const dataflow::OperatorSpec& spec, std::string* out);
Result<dataflow::OperatorSpec> DecodeOperatorSpec(std::string_view data);

// ------------------------------------------------------- request bodies --

/// kHello: assigns the node id and names the peers: `peers[i]` is node
/// i's endpoint, empty for a dead node (the node's own entry is not
/// read). A node streams each vnode it owns to the vnode's holder; a vnode
/// it comes to own with no live holder named goes to its ring successor,
/// the first live peer after it. Sent by the driver once every node's port
/// is known, and again after each failure.
struct HelloRequest {
  uint32_t node_id = 0;
  std::vector<std::string> peers;

  void EncodeTo(std::string* out) const;
  static Result<HelloRequest> Decode(std::string_view data);
};

/// kAddOperator: host the operator described by `spec` and initially own
/// the given vnode set.
struct AddOperatorRequest {
  dataflow::OperatorSpec spec;
  std::vector<uint32_t> owned_vnodes;

  void EncodeTo(std::string* out) const;
  static Result<AddOperatorRequest> Decode(std::string_view data);
};

/// kProcessBatch: one batch routed to this node. `batch.source_id` is the
/// logical input source (broker partition or upstream operator edge),
/// `batch.source_offset` the log offset — the node's per-vnode replay
/// watermarks deduplicate on them. `side` is the operator's logical input
/// (1 = the join's right column); `return_outputs` asks the node to ship
/// produced records back in the reply so the driver can feed downstream
/// operators or audit sink output. Only then does the request carry
/// `cursor`, the input's replay cursor: the node keeps each applied
/// vnode's outputs as output rows of its state and deletes the vnode's
/// rows below the cursor, whose outputs the driver holds
/// (`dataflow::OperatorHost::Apply`).
struct ProcessBatchRequest {
  std::string op;
  uint32_t side = 0;
  uint8_t return_outputs = 0;
  uint64_t cursor = 0;  ///< encoded only with `return_outputs`
  dataflow::Batch batch;

  void EncodeTo(std::string* out) const;
  static Result<ProcessBatchRequest> Decode(std::string_view data);
};

struct ProcessBatchReply {
  uint64_t applied = 0;
  uint64_t deduped = 0;
  /// Vnodes whose outputs of this batch the reply carries: those it
  /// folded into (post-dedup), and deduplicated ones answered from their
  /// output rows. The driver replaces its edge-log output slots only for
  /// these, so replays cannot clobber retained outputs of other vnodes.
  std::vector<uint32_t> applied_vnodes;
  /// Encoded output batch when `return_outputs` was set and the operator
  /// produced records; empty otherwise.
  std::string outputs;

  void EncodeTo(std::string* out) const;
  static Result<ProcessBatchReply> Decode(std::string_view data);
};

/// kCheckpoint: the aligned barrier, which needs nothing out of band but
/// its id (one varint).
struct CheckpointRequest {
  uint64_t checkpoint_id = 0;

  void EncodeTo(std::string* out) const;
  static Result<CheckpointRequest> Decode(std::string_view data);
};

struct CheckpointReply {
  uint64_t checkpoint_id = 0;
  uint64_t bytes = 0;
  /// 1 when the node's replication streams had drained before the ack (0
  /// when the node has no live peer).
  uint8_t replicated = 0;

  void EncodeTo(std::string* out) const;
  static Result<CheckpointReply> Decode(std::string_view data);
};

/// One vnode's state, the only state payload of the protocol: the record
/// both runtimes move (state_backend.h).
using state::VnodeImage;

/// A list of images as a whole body: the reply of `kExtractVnodes` and
/// `kPromoteReplica`.
void EncodeVnodeImages(const std::vector<VnodeImage>& images, std::string* out);
Result<std::vector<VnodeImage>> DecodeVnodeImages(std::string_view data);

/// kExtractVnodes: `varint id | op | vnodes | u8 replica_local`. `id` is
/// the handover's (the origin's chain records carry it), `vnodes` the
/// moved ones. The origin first drains its streams to the moved vnodes'
/// holders. The reply lists an image per moved vnode: whole, or, when
/// `replica_local` asks for the replica path (the target holds the
/// vnodes) and the drain left every moved vnode as last shipped, an empty
/// run on top of the seq of the last delta that carried it.
struct ExtractRequest {
  uint64_t id = 0;
  std::string op;
  std::vector<uint32_t> vnodes;
  uint8_t replica_local = 0;

  void EncodeTo(std::string* out) const;
  static Result<ExtractRequest> Decode(std::string_view data);
};

/// kIngestVnodes: `varint id | op | varint origin | varint holder |
/// images`, an image per moved vnode as the origin's extract answered.
/// The target writes a whole image's run, and takes the copy it holds of
/// `origin` over for the others, which must each be at exactly their
/// `base_seq`. From then on it streams the vnodes to `holder`, a live
/// peer: the origin, which demotes its rows to that copy, or the old
/// holder, which relabels its copy. Either copy is labelled with the
/// stream seq the target reserves for the vnodes here and answers.
struct IngestRequest {
  uint64_t id = 0;
  std::string op;
  uint32_t origin = 0;
  uint32_t holder = 0;
  std::vector<VnodeImage> images;

  void EncodeTo(std::string* out) const;
  static Result<IngestRequest> Decode(std::string_view data);
};

/// kIngestVnodes' reply: the seq the target reserved in its stream to the
/// holder, the label of the holder's copy of the moved vnodes.
struct IngestReply {
  uint64_t seq = 0;

  void EncodeTo(std::string* out) const;
  static Result<IngestReply> Decode(std::string_view data);
};

/// kDropVnodes: the origin releases the moved vnodes once the target owns
/// them: `op | vnodes | varint seq | [varint target]`. With `seq` set the
/// origin demotes them: their rows stay, as held rows of `target`'s copy
/// at that seq (the target reserved it at the ingest), and it writes
/// nothing. With `seq` 0 (no target follows) it drops them, and answers
/// per vnode the seq of its last delta of it to the vnode's holder.
struct ReleaseRequest {
  std::string op;
  std::vector<uint32_t> vnodes;
  uint64_t seq = 0;
  uint32_t target = 0;

  void EncodeTo(std::string* out) const;
  static Result<ReleaseRequest> Decode(std::string_view data);
};

/// kDropVnodes' reply: for a drop, per moved vnode in request order, the
/// seq of the origin's last delta of it to its holder, 0 when the holder
/// may lack its last state (unshipped writes, or nothing shipped); empty
/// for a demote.
struct ReleaseReply {
  std::vector<uint64_t> shipped;

  void EncodeTo(std::string* out) const;
  static Result<ReleaseReply> Decode(std::string_view data);
};

/// kRelabelVnodes: after a cold handover the old holder's copy of each
/// moved vnode becomes the target's: `op | varint origin | varint target |
/// varint seq | n x (varint vnode, varint shipped)`. A copy held for
/// `origin` at exactly the origin's last shipped seq (`shipped`, from
/// `ReleaseReply`) is relabelled as `target`'s copy at `seq`, the seq the
/// target reserved at the ingest; any other copy held for `origin` is
/// dropped, and the target's next delta, finding no copy, ships the
/// vnode whole.
struct RelabelRequest {
  std::string op;
  uint32_t origin = 0;
  uint32_t target = 0;
  uint64_t seq = 0;
  std::map<uint32_t, uint64_t> shipped;

  void EncodeTo(std::string* out) const;
  static Result<RelabelRequest> Decode(std::string_view data);
};

/// kReplicateState: one element of `origin_node`'s continuous
/// replication stream to one holder. `vnodes` holds an image of each
/// vnode written since its last delta: whole, or a key delta on top of
/// the copy the holder keeps at `base_seq` (the previous delta that
/// carried it, or the seq reserved when the vnode changed hands).
/// `stream_seq` orders the stream, one seq space per origin and holder.
/// The receiver applies vnode by vnode to its replica catalog; it does NOT
/// touch live state until promoted.
struct ReplicateStateRequest {
  uint32_t origin_node = 0;
  std::string op;
  uint64_t stream_seq = 0;
  std::vector<VnodeImage> vnodes;

  void EncodeTo(std::string* out) const;
  static Result<ReplicateStateRequest> Decode(std::string_view data);
};

/// kPromoteReplica: make `vnodes` of the dead `origin_node` owned here,
/// each from the first source that exists: the copy this node holds of
/// it for `origin_node`, its checkpoint chain, or nothing. The reply
/// lists an image per requested vnode with an empty run — the state stays
/// on the node — whose `base_seq` is what the vnode now is as of: the
/// stream seq of the promoted copy, the checkpoint of the chain's last
/// record, or 0 (the vnode starts empty). The driver rewinds its input
/// cursors to the images' watermarks.
struct ReplicaFetchRequest {
  uint32_t origin_node = 0;
  std::string op;
  std::vector<uint32_t> vnodes;

  void EncodeTo(std::string* out) const;
  static Result<ReplicaFetchRequest> Decode(std::string_view data);
};

struct QueryCountRequest {
  std::string op;
  uint64_t key = 0;

  void EncodeTo(std::string* out) const;
  static Result<QueryCountRequest> Decode(std::string_view data);
};

/// Kind-specific: the running count (counter), or total stored entries
/// for the key with the per-side split (join).
struct QueryCountReply {
  uint64_t count = 0;
  uint64_t left = 0;
  uint64_t right = 0;

  void EncodeTo(std::string* out) const;
  static Result<QueryCountReply> Decode(std::string_view data);
};

struct StatsReply {
  uint64_t applied = 0;
  uint64_t deduped = 0;
  uint64_t owned_vnodes = 0;
  uint64_t replicas_held = 0;
  uint64_t state_bytes = 0;
  /// Continuous-replication stream health, summed over the node's streams
  /// to its holders: vnodes dirtied but not yet shipped, deltas in
  /// flight, and the stream/acked sequence numbers.
  /// `repl_dirty == 0 && repl_inflight == 0` means every stream is idle
  /// (benches poll this to separate steady replication from
  /// checkpoint-barrier cost).
  uint64_t repl_dirty = 0;
  uint64_t repl_inflight = 0;
  uint64_t repl_stream_seq = 0;
  uint64_t repl_shipped = 0;

  void EncodeTo(std::string* out) const;
  static Result<StatsReply> Decode(std::string_view data);
};

}  // namespace rhino::net
