#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/observability.h"

/// \file pipeline.h
/// Pipelined RPC channel: a bounded window of correlation-id-tagged
/// requests in flight on ONE connection, with out-of-order reply
/// matching and per-request deadlines. Each request is sent at most once.
///
/// Paying a full round trip per request would make the network the
/// pipeline at the driver's batch sizes. This channel overlaps
/// serialization, send, remote apply, and the reply path: `Submit` writes
/// a request and returns as soon as it is on the wire, and the completion
/// callback fires from the reader thread when the matching reply arrives.
/// It is the only RPC client: `TcpTransport` keeps one channel per peer
/// and runs blocking calls on it as a submit plus a wait.
///
/// Ordering contract — load-bearing for exactly-once: requests are
/// WRITTEN in correlation-id order (the id is assigned and the frame
/// written inside one critical section) on the channel's one connection,
/// and `RpcServer` serves a connection serially, so per-channel FIFO
/// application falls out even though replies may be matched out of order.
/// The driver's replay watermarks (`offset < mark` dedup) rely on batches
/// for one vnode applying in offset order; a channel that reordered
/// writes could advance a watermark past a batch that was never applied
/// and lose it silently.
///
/// Failure semantics — at most once: the channel connects on first use,
/// and the first refused connect, lost connection, failed write or
/// undecodable reply BREAKS it. Every pending request fails once through
/// its callback, and every later `Submit` fails fast with the same
/// `IOError` until the owner `Forget`s the endpoint, which destroys the
/// channel (`ClusterDriver::RecoverNodes` does so for the nodes it
/// declares dead). Nothing is written twice or on a second connection, so
/// no later request can overtake an earlier failed one. Workers
/// fail-stop, so a lost connection is a dead peer; each resend is the
/// caller's: the driver's re-pump (deduplicated, and answered from the
/// output rows) or the replicator's whole re-ship. A per-request deadline
/// bounds how long any single callback can stay unanswered while the
/// window keeps moving; a late reply to an expired id is dropped, and the
/// channel stays usable.
namespace rhino::net {

struct PipelinedChannelOptions {
  /// Max requests in flight (submitted, reply not yet matched). Submit
  /// blocks when the window is full — backpressure, not buffering.
  uint32_t window = 32;
  /// Per-request deadline from submit to matched reply.
  int deadline_ms = 10'000;
  /// Reader poll granularity: recv timeout between reply frames, which
  /// bounds how stale a deadline sweep can be.
  int poll_ms = 50;
};

class PipelinedChannel {
 public:
  /// Completion callback: transport or application status plus the reply
  /// body. Runs on the channel's reader thread (or on the submitter when
  /// a submit fails synchronously) — keep it cheap and non-blocking.
  using Callback = std::function<void(Status, std::string)>;

  PipelinedChannel(std::string host, uint16_t port,
                   PipelinedChannelOptions options, std::string what,
                   obs::Observability* obs = nullptr);
  ~PipelinedChannel();

  PipelinedChannel(const PipelinedChannel&) = delete;
  PipelinedChannel& operator=(const PipelinedChannel&) = delete;

  /// Writes one request. Blocks while the window is full; returns an
  /// error (without invoking `cb`) only when the channel is closed or
  /// broken, the first submit's refused connect included. Once written, a
  /// request's outcome arrives through `cb`.
  Status Submit(MessageType type, std::string body, Callback cb);

  /// Blocks until no request is in flight (each one completed or
  /// expired). Returns the breaking status if the channel died first.
  Status Drain();

  /// Fails all pending requests with `Aborted` and stops the reader.
  /// Idempotent; the destructor calls it.
  void Close();

  std::string endpoint() const { return FormatEndpoint(host_, port_); }

  uint32_t inflight() const;
  /// High-water mark of the in-flight window over the channel lifetime.
  uint32_t inflight_high_water() const;

 private:
  struct Pending {
    Callback cb;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point deadline;
  };

  void ReaderLoop();
  /// Opens the connection on the first submit (under `wmu_`). A refused
  /// connect breaks the channel; the breaking status is returned.
  Status Connect();
  /// Breaks the channel for good (the first cause wins) and shuts the
  /// connection down, which wakes the reader to fail the window. Returns
  /// the status every pending and later request fails with.
  Status Break(const Status& cause);
  /// Why a submit is refused now: `Aborted` once closing, the breaking
  /// status once broken, else OK. Caller holds `mu_`.
  Status RefusalLocked() const;
  /// Expires pending requests whose deadline passed (callbacks invoked
  /// with `TimedOut` outside the lock).
  void SweepDeadlines();
  /// Removes and fails every pending request with `st`.
  void FailAllPending(const Status& st);
  /// Completes one pending request (no-op for unknown/expired ids).
  void CompleteOne(uint64_t seq, const Status& st, std::string body);

  const std::string host_;
  const uint16_t port_;
  const PipelinedChannelOptions options_;
  const std::string what_;

  /// Shared by every channel of the registry to this endpoint: each adds
  /// its own pending changes, so the gauge reads their total.
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Histogram* latency_us_ = nullptr;

  /// Guards bookkeeping: the pending window, seq counter, closing and
  /// broken state. Never held across a syscall or a callback.
  mutable std::mutex mu_;
  std::condition_variable space_cv_;  ///< window space / drain / breakage
  std::condition_variable work_cv_;   ///< wakes the reader (work or close)
  std::map<uint64_t, Pending> pending_;
  uint64_t next_seq_ = 1;
  uint32_t reserved_ = 0;  ///< submitters between window wait and enqueue
  uint32_t high_water_ = 0;
  bool closing_ = false;
  Status broken_;  ///< non-OK once broken; never cleared

  /// Serializes the first connect and every socket write, so frames hit
  /// the wire in seq order. Lock order: wmu_ before mu_ (Submit holds
  /// wmu_ while it takes mu_ to assign the seq).
  std::mutex wmu_;
  /// Set once, by the first submit, before any request is pending; the
  /// reader reads it only while one is, and nothing replaces it.
  Socket conn_;

  std::thread reader_;
};

}  // namespace rhino::net
