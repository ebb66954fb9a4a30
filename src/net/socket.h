#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

/// \file socket.h
/// Thin RAII wrapper over blocking TCP sockets (IPv4 loopback/LAN).
///
/// Every networked component in `src/net` speaks through this class, so
/// error handling is uniform: syscall failures become `IOError`, receive
/// timeouts become `TimedOut`, and an orderly peer close observed at a
/// message boundary becomes `Aborted`. The RPC server and the pipelined
/// channel treat a `TimedOut` read as a poll tick and both others as a
/// dropped connection.
///
/// Sockets are blocking with an optional receive timeout (`SO_RCVTIMEO`):
/// a wedged peer costs at most one timeout interval, never a hung thread.
/// Servers listen with `port = 0` by default so parallel test shards get
/// kernel-assigned ports that cannot collide; `local_port()` reports the
/// actual binding.

namespace rhino::net {

/// Move-only owner of one socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Opens a listening socket on `host:port` (`port` 0 = kernel-assigned;
  /// query `local_port()` afterwards). SO_REUSEADDR is set so restarted
  /// servers can rebind their port immediately.
  static Result<Socket> Listen(const std::string& host, uint16_t port,
                               int backlog = 64);

  /// Connects to `host:port`. Failure to reach the peer is `IOError`.
  static Result<Socket> Connect(const std::string& host, uint16_t port);

  /// Accepts one connection (blocking, subject to the receive timeout set
  /// on the listening socket — a timeout returns `TimedOut` so accept
  /// loops can poll their stop flag).
  Result<Socket> Accept() const;

  /// Caps how long a blocking read (or accept) waits. 0 disables.
  Status SetRecvTimeout(int timeout_ms);

  /// Toggles TCP_NODELAY. The data plane exchanges small request/reply
  /// frames where Nagle's algorithm would serialize every exchange behind
  /// a delayed ACK, so `Connect` and `Accept` enable it on every
  /// connection they produce; this seam exists so callers (and tests) can
  /// assert or override the setting.
  Status SetNoDelay(bool enable);

  /// Reads TCP_NODELAY back from the kernel (false on any error), so
  /// tests assert the option really reached the socket.
  bool nodelay() const;

  /// Writes all of `data` (loops over partial sends, EINTR-safe). A broken
  /// pipe or reset is `IOError`.
  Status WriteAll(std::string_view data);

  /// Reads exactly `n` bytes into `buf`.
  ///  * `Aborted`  — the peer closed before the FIRST byte (clean EOF at a
  ///    message boundary);
  ///  * `IOError`  — EOF or a socket error after a partial read (the peer
  ///    disconnected mid-message);
  ///  * `TimedOut` — the receive timeout elapsed with the read incomplete.
  Status ReadExact(char* buf, size_t n);

  /// Port this socket is bound to (after Listen with port 0).
  uint16_t local_port() const;

  /// Half-closes both directions: blocked peers observe EOF immediately.
  /// Used to interrupt reads from another thread before Close/join.
  void ShutdownBoth();

  void Close();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// "host:port" -> parts. Port must parse and fit uint16.
Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port);

/// Formats "host:port".
std::string FormatEndpoint(const std::string& host, uint16_t port);

}  // namespace rhino::net
