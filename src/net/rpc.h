#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"

/// \file rpc.h
/// Server side of request/reply RPC over framed TCP.
///
/// One frame carries one `RequestEnvelope` (client -> server) or one
/// `ReplyEnvelope` (server -> client); the handler's `Status` travels
/// inside the reply so application failures are distinguishable from
/// transport failures. Transport failures never hang or crash the server:
/// corrupt frames produce error replies or clean connection teardown, and
/// all reads are bounded by receive timeouts.
///
/// The client side is `PipelinedChannel` (pipeline.h), reached through
/// `TcpTransport`. Its reconnect replays every pending request, and a
/// request whose reply was lost has already applied. What such a replay
/// does at a `NodeServer`, verb by verb:
///  - `kProcessBatch`: deduplicated on the replay watermarks, and answered
///    with the outputs the first apply kept.
///  - `kReplicateState`: a delta at or below the holder's copy is acked
///    unapplied.
///  - `kAddOperator`: the same spec is accepted again; another is refused.
///  - `kHello`: sets the same peers and marks every owned vnode for the
///    stream again; the state ends the same.
///  - `kCheckpoint`: appends to each chain only what changed since the
///    first apply, then waits on the stream barrier again.
///  - `kExtractVnodes`: answers the images again while the origin still
///    owns the vnodes, which it does until the driver's drop.
///  - `kIngestVnodes`: a whole image's rows are dropped and written again,
///    under a newly reserved seq. An image on top of a held copy is
///    refused: the first apply took the copy over.
///  - `kDropVnodes`: refused ("release of unowned vnode"): the vnodes
///    left with the first apply.
///  - `kRelabelVnodes`: finds no copy of the origin's and changes nothing.
///  - `kPromoteReplica`: the first apply took the held copy over, so a
///    replay drops the promoted rows, takes each vnode from its chain or
///    empty, and answers with that older state's watermarks.
///  - `kQueryCount`, `kStats` and `kShutdown` read, or set a flag again.
/// Replay is therefore safe for the data plane only. The control verbs
/// need a retry that each node answers idempotently (ROADMAP item 4(b)).

namespace rhino::net {

/// Server side: accept loop plus one thread per live connection.
class RpcServer {
 public:
  /// Handles one decoded request; the returned string is the reply body.
  /// Called concurrently from connection threads — the handler owns its
  /// locking.
  using Handler =
      std::function<Result<std::string>(MessageType, std::string_view)>;

  explicit RpcServer(Handler handler) : handler_(std::move(handler)) {}
  ~RpcServer() { Stop(); }

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds `host:port` (port 0 = kernel-assigned) and starts the accept
  /// thread.
  Status Start(const std::string& host, uint16_t port);

  /// Port actually bound (valid after `Start`).
  uint16_t port() const { return port_; }

  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent.
  void Stop();

 private:
  void AcceptLoop();
  void Serve(Socket& conn);

  Handler handler_;
  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  std::mutex mu_;
  std::vector<std::thread> conn_threads_;
  /// fds of live connections, shut down on Stop to unblock their reads.
  std::vector<std::shared_ptr<Socket>> conns_;
};

}  // namespace rhino::net
