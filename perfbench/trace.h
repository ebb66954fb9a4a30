#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/node_server.h"
#include "net/rpc.h"
#include "net/transport.h"

/// \file trace.h
/// Spans at the runtime's public seams, recorded from benchmark code only:
///
///  * driver spans — one per `ClusterDriver` call, with the calling
///    thread's CPU time;
///  * client spans — one per transport call, from a `net::Transport`
///    decorator (verb, endpoint, request and reply bytes; the parent is
///    the driver call in flight when the driver issued it);
///  * node spans — one per `NodeServer::Handle`, from a wrapper handler
///    registered with each `RpcServer` (node, verb, bytes; the time
///    includes the wait for the node lock).
///
/// Spans stay in memory and are exported at the end as a Chrome trace
/// through the `obs` exporter.

namespace perfbench {

enum class Layer : uint8_t { kDriver, kClient, kNode };

/// What the benchmark was doing when a span was recorded; per-layer
/// metrics select spans by phase.
enum class Phase : uint8_t { kSetup, kWindow, kCycle, kRecovery, kOther };

/// Driver calls, by name (spans of `Layer::kDriver` carry one of these in
/// `verb`).
enum class DriverOp : uint8_t {
  kSetup,
  kPump,
  kCheckpoint,
  kHandover,
  kRecover,
  kStats,
  kProbe,
};

const char* DriverOpName(DriverOp op);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Layer layer = Layer::kDriver;
  uint8_t verb = 0;  ///< DriverOp, or net::MessageType for client/node spans
  Phase phase = Phase::kOther;
  int16_t node = -1;  ///< target node (client, node spans)
  int16_t from = -1;  ///< issuing node of a client span; -1 = the driver
  bool ok = true;
  uint64_t req_bytes = 0;
  uint64_t reply_bytes = 0;
  int64_t cpu_ns = 0;            ///< driver spans: calling-thread CPU
  uint64_t source_records = 0;   ///< driver pump spans: input records done
  uint64_t records_sent = 0;     ///< driver pump spans: all routed records
  uint64_t batches_sent = 0;
  uint64_t credit_stalls = 0;
  uint64_t applied = 0;
  uint64_t deduped = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span store. Recording is off until `set_on(true)`; every
/// hook costs one relaxed load while it is off.
class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  Phase phase() const { return phase_.load(std::memory_order_relaxed); }
  void set_phase(Phase phase) {
    phase_.store(phase, std::memory_order_relaxed);
  }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// The driver call in flight on the coordinating thread (0 = none).
  uint64_t current_driver_span() const {
    return current_driver_.load(std::memory_order_relaxed);
  }
  void set_current_driver_span(uint64_t id) {
    current_driver_.store(id, std::memory_order_relaxed);
  }

  /// Names node `index` for spans addressed to `endpoint`.
  void RegisterEndpoint(const std::string& endpoint, int index);
  int NodeOf(const std::string& endpoint) const;

  void Record(const Span& span);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  /// Writes all spans as Chrome trace_event JSON.
  rhino::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<Phase> phase_{Phase::kOther};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> current_driver_{0};
  mutable std::mutex mu_;
  std::map<std::string, int> endpoints_;
  std::vector<Span> spans_;
};

/// Bytes on the wire by verb: request bodies as sent plus reply bodies as
/// received, summed over every transport that reports to it. Counted in
/// every run, traced or not, at one relaxed add per call and reply.
class WireCounter {
 public:
  /// More than the largest `net::MessageType`; larger types are not
  /// counted.
  static constexpr size_t kVerbs = 16;
  /// Byte totals indexed by `net::MessageType`.
  using Totals = std::array<uint64_t, kVerbs>;

  void Add(rhino::net::MessageType type, uint64_t bytes);
  Totals Read() const;

 private:
  std::array<std::atomic<uint64_t>, kVerbs> bytes_{};
};

/// Bytes the runtime moved between two readings: every verb except the
/// benchmark's own `kStats` polls.
uint64_t RuntimeBytes(const WireCounter::Totals& before,
                      const WireCounter::Totals& after);

/// Transport decorator that counts every call's bytes into `counter` and,
/// while `tracer` (may be null) is on, records one client span per call.
/// `from` is the issuing node's index, or -1 for the driver's transport.
class TracingTransport : public rhino::net::Transport {
 public:
  TracingTransport(rhino::net::Transport* inner, WireCounter* counter,
                   Tracer* tracer, int from)
      : inner_(inner), counter_(counter), tracer_(tracer), from_(from) {}

  rhino::Status Call(const std::string& endpoint, rhino::net::MessageType type,
                     std::string_view body, std::string* reply_body) override;
  rhino::Status CallAsync(const std::string& endpoint,
                          rhino::net::MessageType type, std::string body,
                          AsyncCallback cb) override;
  void Forget(const std::string& endpoint) override {
    inner_->Forget(endpoint);
  }

 private:
  Span Begin(const std::string& endpoint, rhino::net::MessageType type,
             size_t body_bytes) const;

  bool tracing() const { return tracer_ != nullptr && tracer_->on(); }

  rhino::net::Transport* inner_;
  WireCounter* counter_;
  Tracer* tracer_;
  int from_;
};

/// `node.Handle` wrapped to record one node span per request.
rhino::net::RpcServer::Handler TracedHandler(rhino::net::NodeServer* node,
                                             Tracer* tracer, int index);

}  // namespace perfbench
