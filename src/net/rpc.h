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
/// `TcpTransport`. Its reconnect replays pending requests, which is safe
/// because every verb a node serves is idempotent — batch application
/// dedups on replay watermarks, ingest/drop/replicate are set-state
/// operations — mirroring how the in-process protocol tolerates
/// re-delivered completions.

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
