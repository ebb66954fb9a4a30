#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/pipeline.h"
#include "net/rpc.h"
#include "net/wire.h"

/// \file transport.h
/// The transport seam between cluster logic and the wire.
///
/// `ClusterDriver` and `NodeServer` address peers by endpoint string and
/// never touch sockets directly; the `Transport` implementation decides
/// what an endpoint means:
///
///  * `TcpTransport`      — "host:port" over real sockets, one
///    `PipelinedChannel` (one connection) per peer (multi-process
///    clusters);
///  * `LoopbackTransport` — a name registered in an in-process table
///    (deterministic single-process tests of the same protocol logic,
///    including simulated node death by unregistering).
///
/// Both carry the exact same encoded bodies, so a protocol exercised over
/// loopback is byte-for-byte the protocol on the wire.

namespace rhino::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Completion of one asynchronous call: transport or application
  /// status plus the reply body.
  using AsyncCallback = std::function<void(Status, std::string)>;

  /// Issues one RPC to `endpoint` and waits for its reply. Application
  /// errors come back from the remote handler; unreachable/dead endpoints
  /// surface as transport errors (`IOError`/`TimedOut`).
  ///
  /// Must never run on a channel's reader thread (i.e. inside a
  /// `CallAsync` completion): over TCP the wait is for a completion that
  /// only a reader thread delivers.
  virtual Status Call(const std::string& endpoint, MessageType type,
                      std::string_view body, std::string* reply_body) = 0;

  /// Pipelined variant: submits the request and completes through `cb`
  /// (possibly on another thread, possibly out of submission order
  /// across endpoints). Per endpoint, requests are DELIVERED in
  /// submission order — callers rely on that for replay-watermark
  /// correctness. May block for backpressure (bounded in-flight window);
  /// a non-OK return means the request was never submitted and `cb` will
  /// not run.
  ///
  /// The default implementation completes synchronously on the calling
  /// thread via `Call` — loopback transports inherit it, keeping
  /// in-process tests deterministic while exercising the same call
  /// sites.
  virtual Status CallAsync(const std::string& endpoint, MessageType type,
                           std::string body, AsyncCallback cb) {
    std::string reply;
    Status st = Call(endpoint, type, body, &reply);
    cb(st, std::move(reply));
    return Status::OK();
  }

  /// Drops any cached connection to `endpoint` (after a peer restart).
  /// Pending pipelined requests to it fail with `Aborted`.
  virtual void Forget(const std::string& /*endpoint*/) {}
};

/// Real sockets. Caches one `PipelinedChannel` per endpoint, so blocking
/// and pipelined calls to a peer share one connection and one
/// reconnect/replay path. `Call` is `CallAsync` plus a wait; each call
/// has one deadline (`PipelinedChannelOptions::deadline_ms`). A channel
/// whose reconnect budget ran out fails every call fast until the
/// endpoint is `Forget`-ed.
class TcpTransport : public Transport {
 public:
  explicit TcpTransport(PipelinedChannelOptions options = {})
      : options_(options) {}

  Status Call(const std::string& endpoint, MessageType type,
              std::string_view body, std::string* reply_body) override;
  Status CallAsync(const std::string& endpoint, MessageType type,
                   std::string body, AsyncCallback cb) override;
  void Forget(const std::string& endpoint) override;

 private:
  PipelinedChannelOptions options_;
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<PipelinedChannel>> channels_;
};

/// In-process table of endpoint -> handler. `Call` invokes the handler on
/// the calling thread with the same encoded bodies that would cross a
/// socket.
class LoopbackTransport : public Transport {
 public:
  /// Registers `endpoint`; replaces any previous registration.
  void Register(const std::string& endpoint, RpcServer::Handler handler);

  /// Unregisters `endpoint`: subsequent calls fail with `IOError`, which
  /// is how tests simulate a fail-stopped node.
  void Kill(const std::string& endpoint);

  Status Call(const std::string& endpoint, MessageType type,
              std::string_view body, std::string* reply_body) override;

 private:
  std::mutex mu_;
  std::map<std::string, RpcServer::Handler> handlers_;
};

}  // namespace rhino::net
