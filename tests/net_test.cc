#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/serde.h"
#include "lsm/env.h"
#include "lsm/log_format.h"
#include "net/checkpoint_chain.h"
#include "net/frame.h"
#include "net/pipeline.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/observability.h"
#include "state/lsm_state_backend.h"

/// \file net_test.cc
/// The networked substrate in isolation: socket error contract, frame
/// robustness (truncated / corrupt / oversized / mid-message disconnect on
/// BOTH sides), RPC request/reply incl. reconnect-after-restart, and wire
/// serialization round trips with prefix-truncation fuzzing.
///
/// Everything binds port 0 (kernel-assigned), so parallel test shards
/// never collide.

namespace rhino::net {
namespace {

/// A listener + one accepted connection, paired with a client socket.
struct SocketPair {
  Socket listener;
  Socket server;  // accepted side
  Socket client;  // connecting side

  static SocketPair Make() {
    SocketPair p;
    auto listen = Socket::Listen("127.0.0.1", 0);
    EXPECT_TRUE(listen.ok()) << listen.status().ToString();
    p.listener = std::move(listen).MoveValue();
    auto client = Socket::Connect("127.0.0.1", p.listener.local_port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    p.client = std::move(client).MoveValue();
    auto server = p.listener.Accept();
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    p.server = std::move(server).MoveValue();
    return p;
  }
};

TEST(SocketTest, PortZeroGetsKernelAssignedPort) {
  auto listen = Socket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listen.ok()) << listen.status().ToString();
  EXPECT_NE(listen->local_port(), 0);
}

TEST(SocketTest, ConnectToClosedPortIsError) {
  // Bind a port, close the listener, then connect to the now-dead port.
  uint16_t dead_port;
  {
    auto listen = Socket::Listen("127.0.0.1", 0);
    ASSERT_TRUE(listen.ok());
    dead_port = listen->local_port();
  }
  auto conn = Socket::Connect("127.0.0.1", dead_port);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kIOError);
}

TEST(SocketTest, CleanPeerCloseIsAborted) {
  auto p = SocketPair::Make();
  p.client.Close();
  char buf[1];
  Status st = p.server.ReadExact(buf, 1);
  EXPECT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
}

TEST(SocketTest, MidMessageDisconnectIsIOError) {
  auto p = SocketPair::Make();
  ASSERT_TRUE(p.client.WriteAll("abc").ok());
  p.client.Close();
  char buf[8];
  Status st = p.server.ReadExact(buf, 8);  // wants 8, peer sent 3 and died
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
}

TEST(SocketTest, RecvTimeoutIsTimedOut) {
  auto p = SocketPair::Make();
  ASSERT_TRUE(p.server.SetRecvTimeout(50).ok());
  char buf[1];
  Status st = p.server.ReadExact(buf, 1);
  EXPECT_EQ(st.code(), StatusCode::kTimedOut) << st.ToString();
}

TEST(SocketTest, DataPlaneSocketsHaveNoDelay) {
  // Both ends of every data-plane connection must disable Nagle: a
  // pipelined window of small frames would otherwise sit in the kernel
  // waiting for acks.
  auto p = SocketPair::Make();
  EXPECT_TRUE(p.client.nodelay());
  EXPECT_TRUE(p.server.nodelay());
  // The seam is real: the option can be flipped and read back.
  ASSERT_TRUE(p.client.SetNoDelay(false).ok());
  EXPECT_FALSE(p.client.nodelay());
  ASSERT_TRUE(p.client.SetNoDelay(true).ok());
  EXPECT_TRUE(p.client.nodelay());
}

TEST(ParseEndpointTest, RoundTripAndErrors) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseEndpoint("127.0.0.1:8080", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_EQ(FormatEndpoint(host, port), "127.0.0.1:8080");
  EXPECT_FALSE(ParseEndpoint("no-port", &host, &port).ok());
  EXPECT_FALSE(ParseEndpoint("h:99999", &host, &port).ok());
  EXPECT_FALSE(ParseEndpoint("h:abc", &host, &port).ok());
}

// ------------------------------------------------------------- framing --

TEST(FrameTest, RoundTrip) {
  auto p = SocketPair::Make();
  std::string payload(100000, 'x');
  payload += "tail";
  ASSERT_TRUE(WriteFrame(p.client, payload).ok());
  std::string got;
  ASSERT_TRUE(ReadFrame(p.server, &got).ok());
  EXPECT_EQ(got, payload);
}

TEST(FrameTest, TruncatedPayloadIsIOError) {
  auto p = SocketPair::Make();
  // Header promises 100 bytes; only 10 arrive before the peer dies.
  std::string framed;
  lsm::AppendLogRecord(&framed, std::string(100, 'x'));
  ASSERT_TRUE(p.client.WriteAll(framed.substr(0, 8 + 10)).ok());
  p.client.Close();
  std::string got;
  Status st = ReadFrame(p.server, &got);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
}

TEST(FrameTest, TruncatedHeaderIsIOError) {
  auto p = SocketPair::Make();
  ASSERT_TRUE(p.client.WriteAll("abc").ok());  // 3 of 8 header bytes
  p.client.Close();
  std::string got;
  Status st = ReadFrame(p.server, &got);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
}

TEST(FrameTest, CleanCloseBetweenFramesIsAborted) {
  auto p = SocketPair::Make();
  ASSERT_TRUE(WriteFrame(p.client, "one").ok());
  p.client.Close();
  std::string got;
  ASSERT_TRUE(ReadFrame(p.server, &got).ok());
  EXPECT_EQ(got, "one");
  Status st = ReadFrame(p.server, &got);
  EXPECT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
}

TEST(FrameTest, CorruptChecksumIsCorruption) {
  auto p = SocketPair::Make();
  std::string framed;
  lsm::AppendLogRecord(&framed, "payload");
  framed[0] ^= 0x5a;  // flip checksum bits
  ASSERT_TRUE(p.client.WriteAll(framed).ok());
  std::string got;
  Status st = ReadFrame(p.server, &got);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(FrameTest, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  auto p = SocketPair::Make();
  // A garbage header claiming ~4 GiB. ReadFrame must fail on the length
  // check alone — it never waits for (or allocates) the claimed bytes.
  char header[8];
  uint32_t crc = 0xdeadbeef, len = 0xfffffff0;
  std::memcpy(header, &crc, 4);
  std::memcpy(header + 4, &len, 4);
  ASSERT_TRUE(p.client.WriteAll(std::string_view(header, 8)).ok());
  std::string got;
  Status st = ReadFrame(p.server, &got);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();

  // Same with a caller-tightened limit: 1 byte over is rejected.
  ASSERT_TRUE(WriteFrame(p.client, std::string(65, 'x')).ok());
  st = ReadFrame(p.server, &got, /*max_frame_bytes=*/64);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

// ------------------------------------------------------------------ rpc --

PipelinedChannelOptions FastChannelOptions() {
  PipelinedChannelOptions options;
  options.poll_ms = 10;
  options.retry.initial_backoff_us = 1000;  // 1ms: keep tests snappy
  options.retry.max_backoff_us = 10000;
  options.retry.max_attempts = 4;
  return options;
}

std::string LocalEndpoint(uint16_t port) {
  return FormatEndpoint("127.0.0.1", port);
}

TEST(RpcTest, EchoAndApplicationError) {
  RpcServer server([](MessageType type, std::string_view body) -> Result<std::string> {
    if (type == MessageType::kStats) {
      return Status::FailedPrecondition("stats refused");
    }
    return std::string(body);
  });
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  TcpTransport client(FastChannelOptions());
  const std::string endpoint = LocalEndpoint(server.port());
  std::string reply;
  ASSERT_TRUE(client.Call(endpoint, MessageType::kHello, "ping", &reply).ok());
  EXPECT_EQ(reply, "ping");
  // Application errors are not transport errors: no retry, code preserved.
  Status st = client.Call(endpoint, MessageType::kStats, "", &reply);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(st.message(), "stats refused");
}

TEST(RpcTest, ServerSurvivesGarbageBytes) {
  std::atomic<int> served{0};
  RpcServer server([&](MessageType, std::string_view body) -> Result<std::string> {
    ++served;
    return std::string(body);
  });
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());

  {  // Raw garbage that is not even a frame header.
    auto conn = Socket::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->WriteAll("total garbage, not a frame").ok());
    conn->Close();
  }
  {  // A valid frame whose payload is not a request envelope.
    auto conn = Socket::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(*conn, "\xff").ok());
    // The server answers on seq 0 with an error (or closes); either way it
    // must not crash or hang.
    conn->SetRecvTimeout(2000);
    std::string got;
    (void)ReadFrame(*conn, &got);
  }
  {  // A frame with an oversized length prefix.
    auto conn = Socket::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok());
    char header[8];
    uint32_t crc = 1, len = 0xffffff00;
    std::memcpy(header, &crc, 4);
    std::memcpy(header + 4, &len, 4);
    ASSERT_TRUE(conn->WriteAll(std::string_view(header, 8)).ok());
    conn->Close();
  }

  // After all that abuse, a well-formed client still gets service.
  TcpTransport client(FastChannelOptions());
  std::string reply;
  ASSERT_TRUE(client
                  .Call(LocalEndpoint(server.port()), MessageType::kHello,
                        "still alive", &reply)
                  .ok());
  EXPECT_EQ(reply, "still alive");
  EXPECT_GE(served.load(), 1);
}

TEST(RpcTest, ClientSurvivesGarbageReply) {
  // A hand-rolled "server" that answers every frame with a corrupt one.
  auto listen = Socket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listen.ok());
  ASSERT_TRUE(listen->SetRecvTimeout(500).ok());  // bounded accept waits
  uint16_t port = listen->local_port();
  std::thread server([listener = std::move(listen).MoveValue()]() mutable {
    for (int i = 0; i < 8; ++i) {  // serve a few connections, then quit
      auto conn = listener.Accept();
      if (!conn.ok()) return;
      conn->SetRecvTimeout(2000);
      std::string frame;
      if (!ReadFrame(*conn, &frame).ok()) continue;
      std::string garbage;
      lsm::AppendLogRecord(&garbage, "\x01\x02not an envelope");
      (void)conn->WriteAll(garbage);
    }
  });
  PipelinedChannelOptions options = FastChannelOptions();
  options.retry.max_attempts = 2;
  TcpTransport client(options);
  std::string reply;
  Status st = client.Call(LocalEndpoint(port), MessageType::kHello, "hi",
                          &reply);
  EXPECT_FALSE(st.ok());  // corrupt reply is an error, never a hang/crash
  server.join();
}

TEST(RpcTest, ClientReconnectsAfterServerRestart) {
  auto handler = [](MessageType, std::string_view body) -> Result<std::string> {
    return std::string(body);
  };
  auto server = std::make_unique<RpcServer>(handler);
  ASSERT_TRUE(server->Start("127.0.0.1", 0).ok());
  uint16_t port = server->port();

  TcpTransport client(FastChannelOptions());
  const std::string endpoint = LocalEndpoint(port);
  std::string reply;
  ASSERT_TRUE(client.Call(endpoint, MessageType::kHello, "before", &reply).ok());

  // Restart the server on the same port (SO_REUSEADDR): the client's
  // cached connection is now stale, so the next call must transparently
  // reconnect and replay.
  server->Stop();
  server = std::make_unique<RpcServer>(handler);
  ASSERT_TRUE(server->Start("127.0.0.1", port).ok());
  ASSERT_TRUE(client.Call(endpoint, MessageType::kHello, "after", &reply).ok());
  EXPECT_EQ(reply, "after");
}

TEST(RpcTest, DeadEndpointFailsFastWithExhaustedRetries) {
  uint16_t dead_port;
  {
    auto listen = Socket::Listen("127.0.0.1", 0);
    ASSERT_TRUE(listen.ok());
    dead_port = listen->local_port();
  }
  TcpTransport client(FastChannelOptions());
  Status st =
      client.Call(LocalEndpoint(dead_port), MessageType::kStats, "", nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("gave up after"), std::string::npos)
      << st.ToString();
}

// ------------------------------------------------------- wire round trips --

dataflow::Batch MakeBatch() {
  dataflow::Batch batch;
  batch.create_time = 123456;
  batch.source_id = 3;
  batch.source_offset = 42;
  for (uint64_t k = 0; k < 5; ++k) {
    dataflow::Record rec;
    rec.key = k * 1000 + 7;
    rec.event_time = 1000 + static_cast<SimTime>(k);
    rec.size = 32;
    rec.payload = "payload-" + std::to_string(k);
    batch.records.push_back(rec);
    batch.count += 1;
    batch.bytes += rec.size;
  }
  return batch;
}

/// One image of each shape: a whole vnode, a key delta with a tombstone,
/// a replica-local handover's empty run, and an empty whole vnode. Every
/// integer field reaches a multi-byte varint somewhere, a watermark
/// source is negative, and the fields differ from each other.
std::vector<VnodeImage> MakeImages() {
  VnodeImage whole;
  whole.vnode = 3;
  whole.bytes = 4096;
  whole.watermarks = {{0, 10}, {-1, 4}, {1 << 20, UINT64_MAX}};
  state::EntryWriter whole_run(&whole.entries);
  whole_run.Put("apple", "1");
  whole_run.Put("apricot", std::string(300, 'v'));
  VnodeImage keys;
  keys.vnode = 200;
  keys.base_seq = 97;
  keys.bytes = 1ull << 40;
  keys.watermarks = {{2, 300}};
  state::EntryWriter key_run(&keys.entries);
  key_run.Put("b", "2");
  key_run.Delete("c");
  VnodeImage replica_local;
  replica_local.vnode = UINT32_MAX;
  replica_local.base_seq = UINT64_MAX;
  replica_local.bytes = 7;
  replica_local.watermarks = {{5, 6}};
  VnodeImage empty;
  empty.vnode = 128;
  return {whole, keys, replica_local, empty};
}

/// Every strict prefix of a valid encoding must decode to an error (or,
/// for a handful of self-delimiting prefixes, a success) — never crash,
/// never read out of bounds. ASan turns any violation into a test failure.
template <typename DecodeFn>
void FuzzPrefixes(const std::string& encoded, DecodeFn decode) {
  for (size_t len = 0; len < encoded.size(); ++len) {
    (void)decode(std::string_view(encoded).substr(0, len));
  }
}

TEST(WireTest, BatchRoundTripAndTruncationFuzz) {
  dataflow::Batch batch = MakeBatch();
  std::string encoded;
  EncodeBatch(batch, &encoded);
  auto decoded = DecodeBatch(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->create_time, batch.create_time);
  EXPECT_EQ(decoded->source_id, batch.source_id);
  EXPECT_EQ(decoded->source_offset, batch.source_offset);
  ASSERT_EQ(decoded->records.size(), batch.records.size());
  for (size_t i = 0; i < batch.records.size(); ++i) {
    EXPECT_EQ(decoded->records[i].key, batch.records[i].key);
    EXPECT_EQ(decoded->records[i].payload, batch.records[i].payload);
  }
  FuzzPrefixes(encoded, DecodeBatch);
  // Trailing garbage is Corruption, not silent acceptance.
  EXPECT_EQ(DecodeBatch(encoded + "x").status().code(),
            StatusCode::kCorruption);
}

TEST(WireTest, BatchFieldsRoundTripAtEveryWidth) {
  // Event times travel as differences from the previous record's; extreme
  // and out-of-order times, negative ones included, come back exactly.
  dataflow::Batch batch;
  batch.create_time = -5;
  batch.count = 6;
  batch.bytes = UINT64_MAX;
  batch.source_id = -1;
  batch.source_offset = UINT64_MAX;
  const SimTime times[] = {INT64_MAX, INT64_MIN, 0, -1, 1, INT64_MIN};
  for (size_t i = 0; i < std::size(times); ++i) {
    dataflow::Record rec;
    rec.key = i % 2 == 0 ? UINT64_MAX : i;
    rec.event_time = times[i];
    rec.size = i % 2 == 0 ? UINT32_MAX : 0;
    rec.payload = std::string(i * 70, 'p');
    batch.records.push_back(rec);
  }
  std::string encoded;
  EncodeBatch(batch, &encoded);
  auto decoded = DecodeBatch(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->create_time, batch.create_time);
  EXPECT_EQ(decoded->count, batch.count);
  EXPECT_EQ(decoded->bytes, batch.bytes);
  EXPECT_EQ(decoded->source_id, batch.source_id);
  EXPECT_EQ(decoded->source_offset, batch.source_offset);
  ASSERT_EQ(decoded->records.size(), batch.records.size());
  for (size_t i = 0; i < batch.records.size(); ++i) {
    EXPECT_EQ(decoded->records[i].key, batch.records[i].key) << i;
    EXPECT_EQ(decoded->records[i].event_time, batch.records[i].event_time)
        << i;
    EXPECT_EQ(decoded->records[i].size, batch.records[i].size) << i;
    EXPECT_EQ(decoded->records[i].payload, batch.records[i].payload) << i;
  }
  FuzzPrefixes(encoded, DecodeBatch);

  // A counter record (key below 2^21, the batch's event time, 32 B
  // nominal, no payload) costs key 3 + time 1 + size 1 + length 1 bytes.
  dataflow::Batch small;
  small.create_time = 1000;
  for (uint64_t key = 1 << 14; key < (1 << 14) + 100; ++key) {
    dataflow::Record rec;
    rec.key = key;
    rec.event_time = 1000;
    rec.size = 32;
    small.records.push_back(rec);
  }
  dataflow::Batch bare = small;
  bare.records.clear();
  std::string compact, header;
  EncodeBatch(small, &compact);
  EncodeBatch(bare, &header);
  EXPECT_EQ(compact.size() - header.size(), 6 * small.records.size());
}

TEST(WireTest, HugeElementCountIsCorruption) {
  // Every body that carries a vnode list, with a count of 2^61 where the
  // list starts: the decoder must refuse the count before it sizes
  // anything.
  constexpr uint64_t kHuge = uint64_t{1} << 61;
  auto expect_corruption = [](const Status& st, const char* what) {
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << what << ": "
                                                  << st.ToString();
  };
  {
    std::string body;
    BinaryWriter w(&body);
    w.PutString("counter");
    w.PutVarint(kHuge);
    expect_corruption(ReleaseRequest::Decode(body).status(), "release");
  }
  {
    std::string body;
    BinaryWriter w(&body);
    w.PutU32(1);  // node id
    w.PutVarint(kHuge);
    expect_corruption(HelloRequest::Decode(body).status(), "hello peers");
  }
  {
    std::string body;
    BinaryWriter(&body).PutVarint(kHuge);
    expect_corruption(ReleaseReply::Decode(body).status(), "release reply");
  }
  {
    std::string body;
    BinaryWriter w(&body);
    w.PutString("counter");
    w.PutVarint(0);  // origin
    w.PutVarint(1);  // target
    w.PutVarint(5);  // seq
    w.PutVarint(kHuge);
    expect_corruption(RelabelRequest::Decode(body).status(), "relabel");
  }
  {
    std::string spec, body;
    dataflow::OperatorSpec op;
    op.name = "counter";
    EncodeOperatorSpec(op, &spec);
    BinaryWriter w(&body);
    w.PutString(spec);
    w.PutVarint(kHuge);
    expect_corruption(AddOperatorRequest::Decode(body).status(),
                      "add operator");
  }
  {
    std::string body;
    BinaryWriter w(&body);
    w.PutVarint(5);  // applied
    w.PutVarint(0);  // deduped
    w.PutVarint(kHuge);
    expect_corruption(ProcessBatchReply::Decode(body).status(),
                      "process-batch reply");
  }
  {
    std::string body;
    BinaryWriter w(&body);
    w.PutU32(1);
    w.PutString("counter");
    w.PutVarint(kHuge);
    expect_corruption(ReplicaFetchRequest::Decode(body).status(),
                      "replica fetch");
  }
  {
    std::string body;
    BinaryWriter w(&body);
    w.PutU32(1);
    w.PutString("counter");
    w.PutU64(3);  // stream seq
    w.PutVarint(kHuge);
    expect_corruption(ReplicateStateRequest::Decode(body).status(),
                      "replicate state images");
  }
  {
    std::string body;
    BinaryWriter w(&body);
    w.PutVarint(9);  // handover id
    w.PutString("counter");
    w.PutVarint(kHuge);
    expect_corruption(ExtractRequest::Decode(body).status(), "extract vnodes");
  }
  {
    std::string body;
    BinaryWriter w(&body);
    w.PutVarint(9);  // handover id
    w.PutString("counter");
    w.PutVarint(0);  // origin
    w.PutVarint(1);  // holder
    w.PutVarint(kHuge);
    expect_corruption(IngestRequest::Decode(body).status(), "ingest images");
  }
  {
    std::string body;
    BinaryWriter(&body).PutVarint(kHuge);
    expect_corruption(DecodeVnodeImages(body).status(), "image list");
  }
  {
    // An image's watermarks are a list too.
    std::string body;
    BinaryWriter w(&body);
    w.PutVarint(1);  // one image
    w.PutVarint(4);  // vnode
    w.PutVarint(0);  // base seq
    w.PutVarint(9);  // bytes
    w.PutVarint(kHuge);
    expect_corruption(DecodeVnodeImages(body).status(), "image watermarks");
  }

  // Elements of the minimum size fill the body exactly and decode: one
  // byte per vnode below 128, five per image (vnode, base seq, bytes,
  // watermark count, empty run).
  ReleaseRequest set;
  set.op = "counter";
  for (uint32_t v = 0; v < 100; ++v) set.vnodes.push_back(v);
  std::string encoded;
  set.EncodeTo(&encoded);
  EXPECT_EQ(encoded.size(), 1 + set.op.size() + 1 + set.vnodes.size() + 1);
  auto decoded_set = ReleaseRequest::Decode(encoded);
  ASSERT_TRUE(decoded_set.ok()) << decoded_set.status().ToString();
  EXPECT_EQ(decoded_set->vnodes, set.vnodes);
  std::vector<VnodeImage> images(50);
  encoded.clear();
  EncodeVnodeImages(images, &encoded);
  EXPECT_EQ(encoded.size(), 1 + 5 * images.size());
  auto decoded_images = DecodeVnodeImages(encoded);
  ASSERT_TRUE(decoded_images.ok()) << decoded_images.status().ToString();
  EXPECT_EQ(*decoded_images, images);
}

TEST(WireTest, EnvelopesRoundTripAndRejectJunk) {
  RequestEnvelope req;
  req.type = MessageType::kProcessBatch;
  req.seq = 77;
  req.body = "body-bytes";
  std::string encoded;
  req.EncodeTo(&encoded);
  auto decoded = RequestEnvelope::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MessageType::kProcessBatch);
  EXPECT_EQ(decoded->seq, 77u);
  EXPECT_EQ(decoded->body, "body-bytes");
  EXPECT_FALSE(RequestEnvelope::Decode("\xff junk").ok());
  // Type 10, the checkpoint restore verb until version 8, is refused like
  // any other type no verb has.
  for (uint8_t type : {0, 10, 15, 255}) {
    std::string bad = encoded;
    bad[0] = static_cast<char>(type);
    auto refused = RequestEnvelope::Decode(bad);
    EXPECT_EQ(refused.status().code(), StatusCode::kCorruption)
        << static_cast<int>(type);
    EXPECT_NE(refused.status().message().find("unknown request type"),
              std::string::npos)
        << refused.status().ToString();
  }

  ReplyEnvelope rep;
  rep.seq = 77;
  rep.code = StatusCode::kNotFound;
  rep.message = "nope";
  rep.body = "partial";
  encoded.clear();
  rep.EncodeTo(&encoded);
  auto decoded2 = ReplyEnvelope::Decode(encoded);
  ASSERT_TRUE(decoded2.ok());
  EXPECT_EQ(decoded2->ToStatus().code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded2->body, "partial");
  FuzzPrefixes(encoded, ReplyEnvelope::Decode);
}

TEST(WireTest, EnvelopeVersionByteIsChecked) {
  RequestEnvelope req;
  req.type = MessageType::kProcessBatch;
  req.seq = 9;
  req.body = "b";
  std::string encoded;
  req.EncodeTo(&encoded);
  ASSERT_GE(encoded.size(), 2u);
  std::string bad = encoded;
  bad[1] = static_cast<char>(kWireVersion + 1);  // version follows type
  EXPECT_EQ(RequestEnvelope::Decode(bad).status().code(),
            StatusCode::kCorruption);

  ReplyEnvelope rep;
  rep.seq = 9;
  rep.body = "r";
  encoded.clear();
  rep.EncodeTo(&encoded);
  ASSERT_GE(encoded.size(), 2u);
  bad = encoded;
  bad[1] = static_cast<char>(kWireVersion + 1);
  EXPECT_EQ(ReplyEnvelope::Decode(bad).status().code(),
            StatusCode::kCorruption);
}

TEST(WireTest, EnvelopeByteMutationFuzz) {
  // Byte-granular: every single-byte corruption of a valid envelope must
  // decode to an error or a (different) well-formed envelope — never
  // crash or overread. ASan enforces the memory half.
  RequestEnvelope req;
  req.type = MessageType::kProcessBatch;
  req.seq = 1234567;
  req.body = "fuzz-body-abcdef";
  std::string encoded;
  req.EncodeTo(&encoded);
  FuzzPrefixes(encoded, RequestEnvelope::Decode);
  for (size_t i = 0; i < encoded.size(); ++i) {
    for (int mask : {0x01, 0x10, 0x80, 0xff}) {
      std::string mutated = encoded;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      (void)RequestEnvelope::Decode(mutated);
    }
  }

  ReplyEnvelope rep;
  rep.seq = 1234567;
  rep.code = StatusCode::kNotFound;
  rep.message = "nope";
  rep.body = "fuzz-reply-body";
  encoded.clear();
  rep.EncodeTo(&encoded);
  FuzzPrefixes(encoded, ReplyEnvelope::Decode);
  for (size_t i = 0; i < encoded.size(); ++i) {
    for (int mask : {0x01, 0x10, 0x80, 0xff}) {
      std::string mutated = encoded;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      (void)ReplyEnvelope::Decode(mutated);
    }
  }
}

TEST(WireTest, VersionIsTen) {
  // Version 10: a batch that asks for outputs carries its input's cursor,
  // and operator specs carry no model. A version 9 envelope, whose batch
  // and operator bodies this decoder cannot read, is refused, and the
  // relabel verb (14) is known.
  EXPECT_EQ(kWireVersion, 10);
  RequestEnvelope req;
  req.type = MessageType::kRelabelVnodes;
  req.body = "b";
  std::string encoded;
  req.EncodeTo(&encoded);
  auto decoded = RequestEnvelope::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MessageType::kRelabelVnodes);
  EXPECT_STREQ(MessageTypeName(MessageType::kRelabelVnodes), "RelabelVnodes");
  encoded[1] = 9;
  EXPECT_EQ(RequestEnvelope::Decode(encoded).status().code(),
            StatusCode::kCorruption);
  ReplyEnvelope rep;
  encoded.clear();
  rep.EncodeTo(&encoded);
  encoded[1] = 9;
  EXPECT_EQ(ReplyEnvelope::Decode(encoded).status().code(),
            StatusCode::kCorruption);
}

TEST(WireTest, ReplicateStateStreamFieldsRoundTrip) {
  ReplicateStateRequest msg;
  msg.origin_node = 2;
  msg.op = "counter";
  msg.stream_seq = 99;
  VnodeImage whole;
  whole.vnode = 4;
  whole.bytes = 64;
  whole.entries = "whole-run-bytes";
  VnodeImage keys;
  keys.vnode = 5;
  keys.base_seq = 97;
  keys.watermarks = {{0, 12}};
  keys.entries = "change-run-bytes";
  msg.vnodes = {whole, keys};
  std::string encoded;
  msg.EncodeTo(&encoded);
  auto decoded = ReplicateStateRequest::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stream_seq, 99u);
  EXPECT_EQ(decoded->vnodes, msg.vnodes);
  FuzzPrefixes(encoded, ReplicateStateRequest::Decode);
  std::string trailing = encoded + "x";
  EXPECT_FALSE(ReplicateStateRequest::Decode(trailing).ok());
}

TEST(WireTest, ExtractVnodesReplyRoundTripAndFuzz) {
  // A replica-local extract's reply: each moved vnode an empty run on top
  // of the seq of its last delta, with its size and watermarks.
  std::vector<VnodeImage> msg(3);
  const uint32_t vnodes[] = {1, 3, 5};
  const uint64_t seqs[] = {40, 41, 7};
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i].vnode = vnodes[i];
    msg[i].base_seq = seqs[i];
    msg[i].bytes = 100 * i;
    msg[i].watermarks = {{0, 9 + i}};
  }
  std::string encoded;
  EncodeVnodeImages(msg, &encoded);
  auto decoded = DecodeVnodeImages(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, msg);
  FuzzPrefixes(encoded, DecodeVnodeImages);
  std::string trailing = encoded + "x";
  EXPECT_FALSE(DecodeVnodeImages(trailing).ok());
}

TEST(WireTest, RequestBodiesRoundTripAndFuzz) {
  {
    // The peers by node id, a dead one empty.
    HelloRequest msg;
    msg.node_id = 2;
    msg.peers = {"127.0.0.1:9999", "", "127.0.0.1:9998"};
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = HelloRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->node_id, msg.node_id);
    EXPECT_EQ(decoded->peers, msg.peers);
    FuzzPrefixes(encoded, HelloRequest::Decode);
    EXPECT_FALSE(HelloRequest::Decode(encoded + "x").ok());
  }
  {
    AddOperatorRequest msg;
    msg.spec.kind = dataflow::OperatorKind::kSymmetricHashJoin;
    msg.spec.name = "join";
    msg.spec.num_vnodes = 16;
    msg.spec.input_arity = 2;
    msg.owned_vnodes = {0, 3, 6, 9};
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = AddOperatorRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->spec.kind, msg.spec.kind);
    EXPECT_EQ(decoded->spec.name, "join");
    EXPECT_EQ(decoded->spec.input_arity, 2u);
    EXPECT_EQ(decoded->owned_vnodes, msg.owned_vnodes);
    FuzzPrefixes(encoded, AddOperatorRequest::Decode);
  }
  {
    ProcessBatchRequest msg;
    msg.op = "counter";
    msg.side = 1;
    msg.return_outputs = 1;
    msg.cursor = 300;
    msg.batch = MakeBatch();
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = ProcessBatchRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->side, 1u);
    EXPECT_EQ(decoded->return_outputs, 1);
    EXPECT_EQ(decoded->cursor, 300u);
    EXPECT_EQ(decoded->batch.records.size(), msg.batch.records.size());
    FuzzPrefixes(encoded, ProcessBatchRequest::Decode);
    // Without outputs the cursor stays off the wire: its two varint bytes
    // are the whole difference.
    msg.return_outputs = 0;
    std::string bare;
    msg.EncodeTo(&bare);
    EXPECT_EQ(bare.size() + 2, encoded.size());
    decoded = ProcessBatchRequest::Decode(bare);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->cursor, 0u);
  }
  {
    // An extract: the move and the replica-local flag. For four vnodes it
    // costs id 1 + op 8 + vnodes 5 + flag 1 bytes.
    ExtractRequest msg;
    msg.id = 9;
    msg.op = "counter";
    msg.vnodes = {1, 3, 5, 7};
    msg.replica_local = 1;
    std::string encoded;
    msg.EncodeTo(&encoded);
    EXPECT_EQ(encoded.size(), 15u);
    auto decoded = ExtractRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->id, msg.id);
    EXPECT_EQ(decoded->op, msg.op);
    EXPECT_EQ(decoded->vnodes, msg.vnodes);
    EXPECT_EQ(decoded->replica_local, 1);
    FuzzPrefixes(encoded, ExtractRequest::Decode);
    EXPECT_FALSE(ExtractRequest::Decode(encoded + "x").ok());
  }
  {
    // An ingest: an image per moved vnode and the holder the target streams
    // them to, with fields of every width.
    IngestRequest msg;
    msg.id = UINT64_MAX;
    msg.op = "counter";
    msg.origin = UINT32_MAX;
    msg.holder = 300;
    msg.images = MakeImages();
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = IngestRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->id, msg.id);
    EXPECT_EQ(decoded->op, msg.op);
    EXPECT_EQ(decoded->origin, msg.origin);
    EXPECT_EQ(decoded->holder, msg.holder);
    EXPECT_EQ(decoded->images, msg.images);
    FuzzPrefixes(encoded, IngestRequest::Decode);
    EXPECT_FALSE(IngestRequest::Decode(encoded + "x").ok());
  }
  for (uint64_t seq : {uint64_t{1}, uint64_t{300}, UINT64_MAX}) {
    // The ingest's reply: the seq the target reserved, one varint.
    std::string encoded;
    IngestReply{seq}.EncodeTo(&encoded);
    auto decoded = IngestReply::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->seq, seq);
    FuzzPrefixes(encoded, IngestReply::Decode);
    EXPECT_FALSE(IngestReply::Decode(encoded + "x").ok());
  }
  for (bool demote : {false, true}) {
    // A release: a drop carries no target, a demote the target and the seq
    // it reserved.
    ReleaseRequest msg;
    msg.op = "counter";
    msg.vnodes = {2, 4, 600};
    if (demote) {
      msg.seq = 1ull << 40;
      msg.target = 2;
    }
    std::string encoded;
    msg.EncodeTo(&encoded);
    EXPECT_EQ(encoded.size(), demote ? 20u : 14u);
    auto decoded = ReleaseRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->op, msg.op);
    EXPECT_EQ(decoded->vnodes, msg.vnodes);
    EXPECT_EQ(decoded->seq, msg.seq);
    EXPECT_EQ(decoded->target, msg.target);
    FuzzPrefixes(encoded, ReleaseRequest::Decode);
    EXPECT_FALSE(ReleaseRequest::Decode(encoded + "x").ok());
  }
  {
    ReleaseReply msg;
    msg.shipped = {0, 7, UINT64_MAX};
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = ReleaseReply::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->shipped, msg.shipped);
    FuzzPrefixes(encoded, ReleaseReply::Decode);
    EXPECT_FALSE(ReleaseReply::Decode(encoded + "x").ok());
  }
  {
    RelabelRequest msg;
    msg.op = "counter";
    msg.origin = 1;
    msg.target = 2;
    msg.seq = 1ull << 35;
    msg.shipped = {{3, 0}, {6, 90}, {700, UINT64_MAX}};
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = RelabelRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->op, msg.op);
    EXPECT_EQ(decoded->origin, msg.origin);
    EXPECT_EQ(decoded->target, msg.target);
    EXPECT_EQ(decoded->seq, msg.seq);
    EXPECT_EQ(decoded->shipped, msg.shipped);
    FuzzPrefixes(encoded, RelabelRequest::Decode);
    EXPECT_FALSE(RelabelRequest::Decode(encoded + "x").ok());
    // A vnode listed twice is Corruption, not a silent merge.
    std::string twice;
    BinaryWriter w(&twice);
    w.PutString("counter");
    w.PutVarint(1);
    w.PutVarint(2);
    w.PutVarint(5);
    w.PutVarint(2);
    for (int i = 0; i < 2; ++i) {
      w.PutVarint(3);
      w.PutVarint(4);
    }
    EXPECT_EQ(RelabelRequest::Decode(twice).status().code(),
              StatusCode::kCorruption);
  }
  // A checkpoint is its id, one varint; anything after it is Corruption.
  for (uint64_t id : {uint64_t{1}, uint64_t{300}, UINT64_MAX}) {
    std::string encoded, varint;
    CheckpointRequest{id}.EncodeTo(&encoded);
    BinaryWriter(&varint).PutVarint(id);
    EXPECT_EQ(encoded, varint);
    auto decoded = CheckpointRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->checkpoint_id, id);
    FuzzPrefixes(encoded, CheckpointRequest::Decode);
    EXPECT_EQ(CheckpointRequest::Decode(encoded + "x").status().code(),
              StatusCode::kCorruption);
  }
  {
    ReplicateStateRequest msg;
    msg.origin_node = 7;
    msg.op = "counter";
    msg.stream_seq = 1ull << 33;
    msg.vnodes = MakeImages();
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = ReplicateStateRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->origin_node, msg.origin_node);
    EXPECT_EQ(decoded->op, msg.op);
    EXPECT_EQ(decoded->stream_seq, msg.stream_seq);
    EXPECT_EQ(decoded->vnodes, msg.vnodes);
    FuzzPrefixes(encoded, ReplicateStateRequest::Decode);
  }
  {
    // The extract and promotion replies are an image list.
    const std::vector<VnodeImage> msg = MakeImages();
    std::string encoded;
    EncodeVnodeImages(msg, &encoded);
    auto decoded = DecodeVnodeImages(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, msg);
    FuzzPrefixes(encoded, DecodeVnodeImages);
  }
  {
    ReplicaFetchRequest msg;
    msg.origin_node = 3;
    msg.op = "counter";
    msg.vnodes = {1, 2};
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = ReplicaFetchRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->vnodes, msg.vnodes);
    FuzzPrefixes(encoded, ReplicaFetchRequest::Decode);
  }
  {
    // The batch reply's counts and vnodes are varints of every width.
    ProcessBatchReply msg;
    msg.applied = 300;
    msg.deduped = UINT64_MAX;
    msg.applied_vnodes = {0, 127, 128, UINT32_MAX};
    msg.outputs = "outputs";
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = ProcessBatchReply::Decode(encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->applied, msg.applied);
    EXPECT_EQ(decoded->deduped, msg.deduped);
    EXPECT_EQ(decoded->applied_vnodes, msg.applied_vnodes);
    EXPECT_EQ(decoded->outputs, msg.outputs);
    FuzzPrefixes(encoded, ProcessBatchReply::Decode);
  }
  // The reply bodies: a distinct non-zero value in every field, so a
  // decoder that reads one field at another's width or place fails.
  {
    CheckpointReply msg;
    msg.checkpoint_id = 41;
    msg.bytes = 1ull << 40;
    msg.replicated = 1;
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = CheckpointReply::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->checkpoint_id, msg.checkpoint_id);
    EXPECT_EQ(decoded->bytes, msg.bytes);
    EXPECT_EQ(decoded->replicated, msg.replicated);
    FuzzPrefixes(encoded, CheckpointReply::Decode);
  }
  {
    QueryCountRequest msg;
    msg.op = "counter";
    msg.key = 0x0123456789abcdefull;
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = QueryCountRequest::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->op, msg.op);
    EXPECT_EQ(decoded->key, msg.key);
    FuzzPrefixes(encoded, QueryCountRequest::Decode);
  }
  {
    QueryCountReply msg;
    msg.count = 7;
    msg.left = 300;
    msg.right = UINT64_MAX;
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = QueryCountReply::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->count, msg.count);
    EXPECT_EQ(decoded->left, msg.left);
    EXPECT_EQ(decoded->right, msg.right);
    FuzzPrefixes(encoded, QueryCountReply::Decode);
  }
  {
    StatsReply msg;
    msg.applied = 1ull << 33;
    msg.deduped = 2;
    msg.owned_vnodes = 3;
    msg.replicas_held = 4;
    msg.state_bytes = 5ull << 40;
    msg.repl_dirty = 6;
    msg.repl_inflight = 7;
    msg.repl_stream_seq = 8;
    msg.repl_shipped = 9;
    std::string encoded;
    msg.EncodeTo(&encoded);
    auto decoded = StatsReply::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->applied, msg.applied);
    EXPECT_EQ(decoded->deduped, msg.deduped);
    EXPECT_EQ(decoded->owned_vnodes, msg.owned_vnodes);
    EXPECT_EQ(decoded->replicas_held, msg.replicas_held);
    EXPECT_EQ(decoded->state_bytes, msg.state_bytes);
    EXPECT_EQ(decoded->repl_dirty, msg.repl_dirty);
    EXPECT_EQ(decoded->repl_inflight, msg.repl_inflight);
    EXPECT_EQ(decoded->repl_stream_seq, msg.repl_stream_seq);
    EXPECT_EQ(decoded->repl_shipped, msg.repl_shipped);
    FuzzPrefixes(encoded, StatsReply::Decode);
  }
}

TEST(WireTest, OperatorSpecRoundTripAndFuzz) {
  dataflow::OperatorSpec spec;
  spec.kind = dataflow::OperatorKind::kSymmetricHashJoin;
  spec.name = "join";
  spec.num_vnodes = 64;
  spec.input_arity = 2;
  std::string encoded;
  EncodeOperatorSpec(spec, &encoded);
  // kind 1 + name 5 + vnodes 4 + arity 4 bytes: no model config.
  EXPECT_EQ(encoded.size(), 14u);
  auto decoded = DecodeOperatorSpec(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, spec.kind);
  EXPECT_EQ(decoded->name, spec.name);
  EXPECT_EQ(decoded->num_vnodes, spec.num_vnodes);
  EXPECT_EQ(decoded->input_arity, spec.input_arity);
  FuzzPrefixes(encoded, DecodeOperatorSpec);
  // Single-byte corruption must never crash, and whatever it produces is
  // a Status, not garbage state.
  for (size_t i = 0; i < encoded.size(); ++i) {
    for (int mask : {0x01, 0x10, 0x80, 0xff}) {
      std::string mutated = encoded;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      (void)DecodeOperatorSpec(mutated);
    }
  }
}

TEST(WireTest, UnknownOperatorKindIsDecodableError) {
  dataflow::OperatorSpec spec;
  spec.name = "mystery";
  spec.num_vnodes = 8;
  std::string encoded;
  EncodeOperatorSpec(spec, &encoded);
  // The kind byte leads the encoding; forge a value no decoder knows.
  encoded[0] = static_cast<char>(0x7f);
  auto decoded = DecodeOperatorSpec(encoded);
  ASSERT_FALSE(decoded.ok());
  // InvalidArgument, not Corruption: the frame is intact, the request is
  // just not satisfiable — callers surface it verbatim to the driver.
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  AddOperatorRequest req;
  req.spec = spec;
  std::string body;
  req.EncodeTo(&body);
  // The nested spec string sits behind the envelope's length prefix.
  auto pos = body.find(encoded.substr(1));
  ASSERT_NE(pos, std::string::npos);
  body[pos - 1] = static_cast<char>(0x7f);
  auto bad = AddOperatorRequest::Decode(body);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, VnodeImagesRoundTripAndTruncationFuzz) {
  std::vector<VnodeImage> images = MakeImages();
  images[0].entries += std::string(1000, 'z');  // a multi-byte run length
  std::string encoded;
  EncodeVnodeImages(images, &encoded);
  auto decoded = DecodeVnodeImages(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, images);
  FuzzPrefixes(encoded, DecodeVnodeImages);
  EXPECT_EQ(DecodeVnodeImages(encoded + "x").status().code(),
            StatusCode::kCorruption);
  // An empty list is one byte.
  encoded.clear();
  EncodeVnodeImages({}, &encoded);
  EXPECT_EQ(encoded, std::string(1, '\0'));
  ASSERT_TRUE(DecodeVnodeImages(encoded).ok());
  EXPECT_TRUE(DecodeVnodeImages(encoded)->empty());
}

/// A chain record of vnode state `body` at checkpoint `id`.
ChainRecord MakeRecord(ChainRecord::Kind kind, uint64_t id,
                              uint64_t nominal, std::string_view body) {
  ChainRecord record;
  record.kind = kind;
  record.checkpoint_id = id;
  record.nominal_bytes = nominal;
  record.watermarks = {{0, 10 * id}, {1 << 20, id}};
  record.body = body;
  return record;
}

/// The entry run of `vnode` in a fresh backend `chain` was restored into:
/// the state the chain stands for.
std::string RestoredRun(const VnodeChain& chain, uint32_t vnode) {
  lsm::MemEnv env;
  auto backend = state::LsmStateBackend::Open(&env, "/state/restored", "op", 0);
  RHINO_CHECK_OK(backend.status());
  RHINO_CHECK_OK(RestoreChain(chain, vnode, backend->get()));
  std::string run;
  RHINO_CHECK_OK((*backend)->ReadVnodeEntries(vnode, &run));
  return run;
}

TEST(WireTest, TornCheckpointImageIsCorruption) {
  lsm::MemEnv env;
  auto backend = state::LsmStateBackend::Open(&env, "/state/op", "op", 0);
  ASSERT_TRUE(backend.ok());
  ASSERT_TRUE(
      (*backend)->ApplyBatch({{1, false, "k", "some-state", 7}}).ok());
  std::string run, chain;
  ASSERT_TRUE((*backend)->ReadVnodeEntries(1, &run).ok());
  AppendChainRecord(
      MakeRecord(ChainRecord::Kind::kWhole, 3, 7, run), &chain);
  ASSERT_TRUE(env.WriteFile("/ckpt/op-1.chain", chain).ok());
  auto loaded = ReadChain(&env, "/ckpt/op-1.chain");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(RestoredRun(*loaded, 1), run);
  EXPECT_EQ(loaded->nominal_bytes, 7u);
  EXPECT_EQ(loaded->checkpoint_id, 3u);
  EXPECT_EQ(loaded->watermarks,
            (std::map<int, uint64_t>{{0, 30}, {1 << 20, 3}}));
  auto base = ChainBaseBytes(&env, "/ckpt/op-1.chain");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(*base, chain.size());

  // A SIGKILL mid-write leaves a short file: the framed record is torn and
  // the chain must be rejected, not half-restored.
  ASSERT_TRUE(env.WriteFile("/ckpt/op-1.chain",
                            chain.substr(0, chain.size() / 2))
                  .ok());
  auto torn = ReadChain(&env, "/ckpt/op-1.chain");
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(ReadChain(&env, "/ckpt/none.chain").status().code(),
            StatusCode::kNotFound);
  // A chain must start whole: a lone key record has nothing to extend.
  std::string keys_only;
  AppendChainRecord(
      MakeRecord(ChainRecord::Kind::kKeys, 4, 7, ""), &keys_only);
  EXPECT_EQ(ParseChain(keys_only).status().code(),
            StatusCode::kCorruption);
}

/// Vnode 2 of a fresh backend through `rounds` rounds of seeded random
/// writes, as a chain: a whole record, then one key record per round of
/// the checkpoint reader's changes. `states[i]` is the vnode's run after
/// record i and `ends[i]` the chain size that completes it.
struct ChainFixture {
  lsm::MemEnv env;
  std::unique_ptr<state::LsmStateBackend> backend;
  std::string chain;
  std::vector<std::string> states;
  std::vector<uint64_t> nominal;
  std::vector<size_t> ends;

  explicit ChainFixture(int rounds) {
    auto opened = state::LsmStateBackend::Open(&env, "/state/op", "op", 0);
    RHINO_CHECK_OK(opened.status());
    backend = std::move(opened).MoveValue();
    uint64_t rng = 7;
    auto next = [&rng] {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      return rng >> 33;
    };
    auto write_some = [&] {
      const int writes = static_cast<int>(next() % 40);
      for (int i = 0; i < writes; ++i) {
        const std::string key = "k" + std::to_string(next() % 120);
        if (next() % 4 == 0) {
          RHINO_CHECK_OK(backend->ApplyBatch({{2, true, key, "", 1}}));
        } else {
          RHINO_CHECK_OK(backend->ApplyBatch(
              {{2, false, key, std::to_string(next()), 3}}));
        }
      }
    };
    write_some();
    std::string run;
    RHINO_CHECK_OK(backend->ReadVnodeEntries(2, &run));
    Record(ChainRecord::Kind::kWhole, run);
    backend->SetChangeCapture(state::ChangeReader::kCheckpoint, true);
    for (int round = 0; round < rounds; ++round) {
      write_some();
      std::string run;
      RHINO_CHECK(backend->TakeChanges(state::ChangeReader::kCheckpoint, 2,
                                       &run)
                      .has_value());
      Record(ChainRecord::Kind::kKeys, run);
    }
  }

  std::string Run() {
    std::string run;
    RHINO_CHECK_OK(backend->ReadVnodeEntries(2, &run));
    return run;
  }

  void Record(ChainRecord::Kind kind, std::string_view body) {
    const uint64_t id = states.size() + 1;
    AppendChainRecord(
        MakeRecord(kind, id, backend->VnodeBytes(2), body), &chain);
    states.push_back(Run());
    nominal.push_back(backend->VnodeBytes(2));
    ends.push_back(chain.size());
  }
};

TEST(WireTest, EveryChainPrefixFoldsToItsLastCompleteRecord) {
  ChainFixture fixture(6);
  const std::string& chain = fixture.chain;
  for (size_t len = 0; len <= chain.size(); ++len) {
    auto folded = ParseChain(std::string_view(chain).substr(0, len));
    if (len < fixture.ends[0]) {
      EXPECT_EQ(folded.status().code(), StatusCode::kCorruption)
          << "prefix " << len;
      continue;
    }
    size_t last = 0;
    while (last + 1 < fixture.ends.size() && fixture.ends[last + 1] <= len) {
      ++last;
    }
    ASSERT_TRUE(folded.ok()) << "prefix " << len << ": "
                             << folded.status().ToString();
    EXPECT_EQ(folded->records, last + 1) << "prefix " << len;
    EXPECT_EQ(folded->valid_bytes, fixture.ends[last]) << "prefix " << len;
    EXPECT_EQ(RestoredRun(*folded, 2), fixture.states[last])
        << "prefix " << len;
    EXPECT_EQ(folded->nominal_bytes, fixture.nominal[last]);
    EXPECT_EQ(folded->checkpoint_id, last + 1);
    EXPECT_EQ(folded->watermarks.at(0), 10 * (last + 1));
  }
  // A flipped byte inside a complete record tears the chain there.
  std::string flipped = chain;
  flipped[fixture.ends[2] + 9] ^= 0x20;
  auto folded = ParseChain(flipped);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->records, 3u);
  EXPECT_EQ(RestoredRun(*folded, 2), fixture.states[2]);
}

TEST(WireTest, ChainFoldMatchesExtractionOverRandomRounds) {
  // 30 rounds of writes and checkpoints: restoring the chain after every
  // round yields exactly the live vnode's run and size.
  ChainFixture fixture(30);
  for (size_t i = 0; i < fixture.ends.size(); ++i) {
    auto folded = ParseChain(
        std::string_view(fixture.chain).substr(0, fixture.ends[i]));
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    ASSERT_EQ(RestoredRun(*folded, 2), fixture.states[i]) << "record " << i;
    ASSERT_EQ(folded->nominal_bytes, fixture.nominal[i]) << "record " << i;
  }
  EXPECT_EQ(fixture.states.back(), fixture.Run());
}

TEST(WireTest, VnodeForKeySpreadsAndIsStable) {
  const uint32_t kVnodes = 16;
  std::vector<int> hits(kVnodes, 0);
  for (uint64_t key = 0; key < 1000; ++key) {
    uint32_t vnode = VnodeForKey(key, kVnodes);
    ASSERT_LT(vnode, kVnodes);
    EXPECT_EQ(vnode, VnodeForKey(key, kVnodes));  // deterministic
    hits[vnode]++;
  }
  for (uint32_t v = 0; v < kVnodes; ++v) {
    EXPECT_GT(hits[v], 0) << "vnode " << v << " never hit";
  }
}

// ---------------------------------------------------- pipelined channel --

/// Writes a reply envelope frame for `seq`.
void SendReply(Socket* conn, uint64_t seq, const std::string& body) {
  ReplyEnvelope rep;
  rep.seq = seq;
  rep.body = body;
  std::string out;
  rep.EncodeTo(&out);
  EXPECT_TRUE(WriteFrame(*conn, out).ok());
}

/// Reads one request frame; returns seq 0 on any failure.
RequestEnvelope ReadRequest(Socket* conn) {
  std::string frame;
  if (!ReadFrame(*conn, &frame).ok()) return RequestEnvelope{};
  auto req = RequestEnvelope::Decode(frame);
  if (!req.ok()) return RequestEnvelope{};
  return std::move(req).MoveValue();
}

/// Blocks until the connection drops (the channel closed) — keeps a test
/// server from racing the client's last reads.
void HoldOpen(Socket* conn) {
  std::string dummy;
  while (ReadFrame(*conn, &dummy).ok()) {
  }
}

TEST(PipelinedChannelTest, OutOfOrderRepliesMatchByCorrelationId) {
  constexpr int kN = 4;
  auto listen = Socket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listen.ok());
  uint16_t port = listen->local_port();
  std::thread server([listener = std::move(listen).MoveValue()]() mutable {
    auto conn = listener.Accept();
    if (!conn.ok()) return;
    std::vector<RequestEnvelope> got;
    for (int i = 0; i < kN; ++i) got.push_back(ReadRequest(&*conn));
    // Replies in REVERSE order: matching must be by correlation id, not
    // arrival order.
    for (int i = kN - 1; i >= 0; --i) {
      SendReply(&*conn, got[i].seq, "echo:" + got[i].body);
    }
    HoldOpen(&*conn);
  });

  PipelinedChannel channel("127.0.0.1", port, FastChannelOptions(), "test");
  std::mutex mu;
  std::condition_variable cv;
  std::map<int, std::string> results;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(channel
                    .Submit(MessageType::kHello, "r" + std::to_string(i),
                            [&, i](Status st, std::string body) {
                              std::lock_guard<std::mutex> lock(mu);
                              results[i] =
                                  st.ok() ? body : "ERR:" + st.ToString();
                              cv.notify_all();
                            })
                    .ok());
  }
  ASSERT_TRUE(channel.Drain().ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] {
      return results.size() == static_cast<size_t>(kN);
    }));
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(results[i], "echo:r" + std::to_string(i)) << "request " << i;
    }
  }
  EXPECT_EQ(channel.inflight(), 0u);
  // The server held all replies until it had read all requests, so the
  // whole window was in flight at once.
  EXPECT_EQ(channel.inflight_high_water(), static_cast<uint32_t>(kN));
  EXPECT_EQ(channel.replayed_total(), 0u);
  channel.Close();
  server.join();
}

TEST(PipelinedChannelTest, FullWindowBlocksSubmitUntilAReplyFrees) {
  auto listen = Socket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listen.ok());
  uint16_t port = listen->local_port();
  std::atomic<bool> release{false};
  std::thread server([&release,
                      listener = std::move(listen).MoveValue()]() mutable {
    auto conn = listener.Accept();
    if (!conn.ok()) return;
    RequestEnvelope first = ReadRequest(&*conn);
    RequestEnvelope second = ReadRequest(&*conn);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SendReply(&*conn, first.seq, "ok");
    SendReply(&*conn, second.seq, "ok");
    RequestEnvelope third = ReadRequest(&*conn);
    SendReply(&*conn, third.seq, "ok");
    HoldOpen(&*conn);
  });

  PipelinedChannelOptions options = FastChannelOptions();
  options.window = 2;
  PipelinedChannel channel("127.0.0.1", port, options, "test");
  std::atomic<int> done{0};
  auto count_ok = [&done](Status st, std::string) {
    if (st.ok()) ++done;
  };
  ASSERT_TRUE(channel.Submit(MessageType::kHello, "a", count_ok).ok());
  ASSERT_TRUE(channel.Submit(MessageType::kHello, "b", count_ok).ok());
  std::atomic<bool> third_submitted{false};
  std::thread submitter([&] {
    EXPECT_TRUE(channel.Submit(MessageType::kHello, "c", count_ok).ok());
    third_submitted.store(true);
  });
  // The window is full: the third submit must be BLOCKED (backpressure),
  // not queued or dropped.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(third_submitted.load());
  EXPECT_EQ(channel.inflight(), 2u);
  release.store(true);
  submitter.join();
  ASSERT_TRUE(channel.Drain().ok());
  // Drain empties the window; the last callback may still be returning.
  for (int spins = 0; done.load() < 3 && spins < 500; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(done.load(), 3);
  EXPECT_EQ(channel.inflight_high_water(), 2u);
  channel.Close();
  server.join();
}

TEST(PipelinedChannelTest, DeadlineExpiresOneRequestWhileWindowKeepsMoving) {
  auto listen = Socket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listen.ok());
  uint16_t port = listen->local_port();
  std::thread server([listener = std::move(listen).MoveValue()]() mutable {
    auto conn = listener.Accept();
    if (!conn.ok()) return;
    RequestEnvelope starved = ReadRequest(&*conn);  // never answered in time
    RequestEnvelope served = ReadRequest(&*conn);
    SendReply(&*conn, served.seq, "served");
    RequestEnvelope after = ReadRequest(&*conn);
    SendReply(&*conn, after.seq, "after");
    // A LATE reply to the starved id, long past its deadline: the channel
    // must drop it silently (the callback already fired with TimedOut).
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    SendReply(&*conn, starved.seq, "too-late");
    HoldOpen(&*conn);
  });

  PipelinedChannelOptions options = FastChannelOptions();
  options.deadline_ms = 150;
  options.poll_ms = 20;
  PipelinedChannel channel("127.0.0.1", port, options, "test");
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::string, Status> statuses;
  auto record = [&](const std::string& name) {
    return [&, name](Status st, std::string) {
      std::lock_guard<std::mutex> lock(mu);
      statuses[name] = st;
      cv.notify_all();
    };
  };
  auto wait_for = [&](const std::string& name) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return statuses.count(name) > 0; });
  };
  ASSERT_TRUE(
      channel.Submit(MessageType::kHello, "starved", record("starved")).ok());
  ASSERT_TRUE(
      channel.Submit(MessageType::kHello, "served", record("served")).ok());
  ASSERT_TRUE(wait_for("served"));
  // The starved request is still pending; the window keeps moving.
  ASSERT_TRUE(
      channel.Submit(MessageType::kHello, "after", record("after")).ok());
  ASSERT_TRUE(wait_for("after"));
  ASSERT_TRUE(wait_for("starved"));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(statuses["served"].ok());
    EXPECT_TRUE(statuses["after"].ok());
    EXPECT_EQ(statuses["starved"].code(), StatusCode::kTimedOut)
        << statuses["starved"].ToString();
  }
  ASSERT_TRUE(channel.Drain().ok());  // the expired entry left the window
  // Give the late reply time to arrive and be dropped; the channel must
  // stay usable afterwards.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(channel.inflight(), 0u);
  channel.Close();
  server.join();
}

TEST(PipelinedChannelTest, ReconnectReplaysPendingWindowExactlyOnce) {
  auto listen = Socket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listen.ok());
  uint16_t port = listen->local_port();
  std::thread server([listener = std::move(listen).MoveValue()]() mutable {
    // First connection: serve one of three requests, then drop carrying
    // two unanswered (a mid-window outage).
    uint64_t pending_a = 0, pending_b = 0;
    {
      auto conn = listener.Accept();
      if (!conn.ok()) return;
      RequestEnvelope r1 = ReadRequest(&*conn);
      RequestEnvelope r2 = ReadRequest(&*conn);
      RequestEnvelope r3 = ReadRequest(&*conn);
      SendReply(&*conn, r1.seq, "echo:" + r1.body);
      pending_a = r2.seq;
      pending_b = r3.seq;
      // conn drops here (destructor closes the socket).
    }
    // Second connection: the channel must replay ONLY the unanswered
    // window, in correlation-id order.
    auto conn = listener.Accept();
    if (!conn.ok()) return;
    RequestEnvelope replay1 = ReadRequest(&*conn);
    RequestEnvelope replay2 = ReadRequest(&*conn);
    EXPECT_EQ(replay1.seq, pending_a);
    EXPECT_EQ(replay2.seq, pending_b);
    SendReply(&*conn, replay1.seq, "echo:" + replay1.body);
    SendReply(&*conn, replay2.seq, "echo:" + replay2.body);
    HoldOpen(&*conn);
  });

  PipelinedChannel channel("127.0.0.1", port, FastChannelOptions(), "test");
  std::mutex mu;
  std::condition_variable cv;
  std::map<int, int> fired;  // exactly-once audit: callback count per req
  std::map<int, std::string> results;
  int total_fired = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(channel
                    .Submit(MessageType::kHello, "r" + std::to_string(i),
                            [&, i](Status st, std::string body) {
                              std::lock_guard<std::mutex> lock(mu);
                              ++fired[i];
                              ++total_fired;
                              results[i] =
                                  st.ok() ? body : "ERR:" + st.ToString();
                              cv.notify_all();
                            })
                    .ok());
  }
  ASSERT_TRUE(channel.Drain().ok());
  {
    // Drain guarantees the window is empty, not that the last callback
    // already returned — wait for the audit itself.
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return total_fired >= 3; }));
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(fired[i], 1) << "request " << i << " callback count";
      EXPECT_EQ(results[i], "echo:r" + std::to_string(i)) << "request " << i;
    }
  }
  EXPECT_EQ(channel.replayed_total(), 2u);
  channel.Close();
  server.join();
}

TEST(TcpTransportTest, CallAndCallAsyncShareOneConnection) {
  // A hand-rolled echo server that counts the connections it accepts and
  // serves each on its own thread, so a client opening a second socket
  // would be served (and counted) rather than hang.
  auto listen = Socket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listen.ok());
  ASSERT_TRUE(listen->SetRecvTimeout(20).ok());  // accept polls `stop`
  const uint16_t port = listen->local_port();
  std::atomic<int> accepted{0};
  std::atomic<bool> stop{false};
  std::thread acceptor([&, listener = std::move(listen).MoveValue()]() mutable {
    std::vector<std::thread> conns;
    while (!stop.load()) {
      auto conn = listener.Accept();
      if (!conn.ok()) continue;
      ++accepted;
      conns.emplace_back([c = std::move(conn).MoveValue()]() mutable {
        // Serves until the client closes the connection.
        std::string frame;
        while (true) {
          Status st = ReadFrame(c, &frame);
          if (st.code() == StatusCode::kTimedOut) continue;
          if (!st.ok()) return;
          auto req = RequestEnvelope::Decode(frame);
          if (!req.ok()) return;
          SendReply(&c, req->seq, "echo:" + req->body);
        }
      });
    }
    for (auto& t : conns) t.join();
  });

  // Declared before the transport, whose destructor joins the reader
  // thread that runs the CallAsync callback.
  std::mutex mu;
  std::condition_variable cv;
  Status async_status;
  std::string async_reply;
  bool async_done = false;
  {
    TcpTransport transport(FastChannelOptions());
    const std::string endpoint = LocalEndpoint(port);
    std::string reply;
    ASSERT_TRUE(transport.Call(endpoint, MessageType::kHello, "a", &reply).ok());
    EXPECT_EQ(reply, "echo:a");
    ASSERT_TRUE(transport
                    .CallAsync(endpoint, MessageType::kHello, "b",
                               [&](Status st, std::string body) {
                                 std::lock_guard<std::mutex> lock(mu);
                                 async_status = st;
                                 async_reply = body;
                                 async_done = true;
                                 cv.notify_all();
                               })
                    .ok());
    {
      std::unique_lock<std::mutex> lock(mu);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                              [&] { return async_done; }));
    }
    ASSERT_TRUE(async_status.ok()) << async_status.ToString();
    EXPECT_EQ(async_reply, "echo:b");
    ASSERT_TRUE(transport.Call(endpoint, MessageType::kHello, "c", &reply).ok());
    EXPECT_EQ(reply, "echo:c");
  }  // the transport closes its connections: the echo threads exit
  stop.store(true);
  acceptor.join();
  EXPECT_EQ(accepted.load(), 1);
}

TEST(TcpTransportTest, CallLatencyIsRecordedInMicroseconds) {
  RpcServer server(
      [](MessageType, std::string_view body) -> Result<std::string> {
        return std::string(body);
      });
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  const std::string endpoint = LocalEndpoint(server.port());
  const obs::Histogram& latency =
      *obs::Observability::Default()->metrics().GetHistogram(
          "rhino_net_call_latency_us", {{"endpoint", endpoint}});
  const size_t before = latency.count();
  {
    TcpTransport client(FastChannelOptions());
    std::string reply;
    ASSERT_TRUE(client.Call(endpoint, MessageType::kHello, "x", &reply).ok());
  }
  // A loopback call takes well under a millisecond: at millisecond
  // resolution it recorded 0.
  ASSERT_EQ(latency.count(), before + 1);
  EXPECT_GT(latency.Max(), 0);
}

TEST(TcpTransportTest, InflightGaugeSumsTheEndpointsChannels) {
  // The handler blocks on each connection's first call, so every call
  // stays in flight until released.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  RpcServer server(
      [&](MessageType, std::string_view body) -> Result<std::string> {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
        return std::string(body);
      });
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  const std::string endpoint = LocalEndpoint(server.port());
  const obs::Gauge& inflight =
      *obs::Observability::Default()->metrics().GetGauge(
          "rhino_net_inflight", {{"endpoint", endpoint}});
  constexpr int kCalls = 3;
  std::atomic<int> done{0};
  {
    TcpTransport first(FastChannelOptions()), second(FastChannelOptions());
    for (int i = 0; i < kCalls; ++i) {
      for (TcpTransport* transport : {&first, &second}) {
        EXPECT_TRUE(transport
                        ->CallAsync(endpoint, MessageType::kHello, "x",
                                    [&done](Status st, std::string) {
                                      if (st.ok()) ++done;
                                    })
                        .ok());
      }
    }
    // One channel per transport, both to the endpoint: the gauge reads
    // their total.
    EXPECT_EQ(inflight.value(), 2 * kCalls);
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    for (int spins = 0; done.load() < 2 * kCalls && spins < 1000; ++spins) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(done.load(), 2 * kCalls);
    EXPECT_EQ(inflight.value(), 0);
  }
}

TEST(LoopbackTransportTest, KillMakesEndpointUnreachable) {
  LoopbackTransport transport;
  transport.Register("nodeA", [](MessageType, std::string_view body) {
    return Result<std::string>(std::string(body));
  });
  std::string reply;
  ASSERT_TRUE(transport.Call("nodeA", MessageType::kStats, "x", &reply).ok());
  EXPECT_EQ(reply, "x");
  transport.Kill("nodeA");
  Status st = transport.Call("nodeA", MessageType::kStats, "x", &reply);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace rhino::net
