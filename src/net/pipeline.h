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
#include "runtime/retry.h"

/// \file pipeline.h
/// Pipelined RPC channel: a bounded window of correlation-id-tagged
/// requests in flight on ONE connection, with out-of-order reply
/// matching, per-request deadlines, and window replay on reconnect.
///
/// Paying a full round trip per request would make the network the
/// pipeline at the driver's batch sizes. This channel overlaps
/// serialization, send, remote apply, and the reply path: `Submit`
/// enqueues a request and returns as soon as it is on the wire (or queued
/// for replay), and the completion callback fires from the reader thread
/// when the matching reply arrives. It is the only RPC client:
/// `TcpTransport` keeps one channel per peer and runs blocking calls on it
/// as a submit plus a wait.
///
/// Ordering contract — load-bearing for exactly-once: requests are
/// WRITTEN in correlation-id order (the id is assigned and the frame
/// written inside one critical section), and on reconnect the pending
/// window is replayed in that same order. `RpcServer` serves one
/// connection serially, so per-channel FIFO application falls out even
/// though replies may be matched out of order. The driver's replay
/// watermarks (`offset < mark` dedup) rely on batches for one vnode
/// applying in offset order; a channel that reordered writes could
/// advance a watermark past a batch that was never applied and lose it
/// silently.
///
/// Failure semantics: a transport error parks the window and the reader
/// reconnects under a fresh `runtime::Retrier` budget, replaying
/// every pending request. That is safe for the data plane only: a
/// `kProcessBatch` whose first apply landed is deduplicated, and answered
/// with the outputs that apply kept when they feed an operator edge; a
/// `kReplicateState` delta at or below the holder's copy is acked
/// unapplied. The control verbs are not idempotent (rpc.h, verb by verb):
/// a replayed `kDropVnodes`, or replica-local `kIngestVnodes`, whose first
/// apply landed fails, and the driver's routing and the nodes' ownership
/// part.
/// When the budget is exhausted the channel breaks: all pending and all
/// future submits fail with the retrier's verdict, and the owner is
/// expected to `Forget` the endpoint (driver failure handling) which
/// destroys the channel. A per-request deadline bounds how long any
/// single callback can stay unanswered even while the window keeps
/// moving; a late reply to an expired id is dropped by design.
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
  /// Reconnect budget per outage episode (armed fresh each time the
  /// connection drops with requests pending).
  runtime::RetryOptions retry;
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

  /// Queues one request. Blocks while the window is full; returns an
  /// error (without invoking `cb`) only when the channel is closed or
  /// broken. Connection setup is lazy and failures surface through `cb`.
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
  /// Requests re-sent by reconnect replay (0 on a healthy channel).
  uint64_t replayed_total() const;

 private:
  struct Pending {
    MessageType type = MessageType::kReply;
    std::string body;
    Callback cb;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point deadline;
  };

  void ReaderLoop();
  /// Reconnects and replays the pending window in seq order. Returns
  /// false when the retry budget is exhausted (channel broken) or the
  /// channel is closing. Runs on the reader thread.
  bool ReconnectAndReplay();
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
  /// Registry of the channel's gauges, latencies and reconnect retries.
  obs::Observability* const obs_;

  /// Shared by every channel of the registry to this endpoint: each adds
  /// its own pending changes, so the gauge reads their total.
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Histogram* latency_us_ = nullptr;

  /// Guards bookkeeping: the pending window, seq counter, connection
  /// state flags. Never held across a syscall or a callback.
  mutable std::mutex mu_;
  std::condition_variable space_cv_;  ///< window space / drain / breakage
  std::condition_variable work_cv_;   ///< wakes the reader (work or close)
  std::map<uint64_t, Pending> pending_;
  uint64_t next_seq_ = 1;
  uint32_t reserved_ = 0;  ///< submitters between window wait and enqueue
  uint32_t high_water_ = 0;
  uint64_t replayed_total_ = 0;
  bool connected_ = false;
  bool ever_connected_ = false;  ///< distinguishes first connect from replay
  bool closing_ = false;
  Status broken_;  ///< non-OK once the reconnect budget is exhausted

  /// Serializes socket writes AND connection replacement, so frames hit
  /// the wire in seq order and never interleave with a replay. Lock
  /// order: wmu_ before mu_ (Submit holds wmu_ while it takes mu_ to
  /// assign the seq).
  std::mutex wmu_;
  Socket conn_;

  std::thread reader_;
};

}  // namespace rhino::net
