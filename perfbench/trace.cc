#include "trace.h"

#include <algorithm>
#include <utility>

#include "obs/exporters.h"
#include "obs/trace_log.h"
#include "stats.h"

namespace perfbench {

using rhino::Status;
using rhino::net::MessageType;

const char* DriverOpName(DriverOp op) {
  switch (op) {
    case DriverOp::kSetup:
      return "setup";
    case DriverOp::kPump:
      return "Pump";
    case DriverOp::kCheckpoint:
      return "Checkpoint";
    case DriverOp::kHandover:
      return "TriggerHandover";
    case DriverOp::kRecover:
      return "RecoverNode";
    case DriverOp::kStats:
      return "NodeStats";
    case DriverOp::kProbe:
      return "ProbeFailures";
  }
  return "?";
}

void Tracer::RegisterEndpoint(const std::string& endpoint, int index) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[endpoint] = index;
}

int Tracer::NodeOf(const std::string& endpoint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = endpoints_.find(endpoint);
  return it == endpoints_.end() ? -1 : it->second;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<Span> all = spans();
  rhino::obs::TraceLog log;
  int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) origin = std::min(origin, s.start_ns);
  for (const Span& s : all) {
    std::string category;
    std::string name;
    std::string scope;
    switch (s.layer) {
      case Layer::kDriver:
        category = "driver";
        name = DriverOpName(static_cast<DriverOp>(s.verb));
        scope = "driver";
        break;
      case Layer::kClient:
        category = "transport";
        name = rhino::net::MessageTypeName(static_cast<MessageType>(s.verb));
        scope = s.from < 0 ? "driver->node" + std::to_string(s.node)
                           : "node" + std::to_string(s.from) + "->node" +
                                 std::to_string(s.node);
        break;
      case Layer::kNode:
        category = "node";
        name = rhino::net::MessageTypeName(static_cast<MessageType>(s.verb));
        scope = "node" + std::to_string(s.node);
        break;
    }
    std::map<std::string, int64_t> args = {
        {"span", static_cast<int64_t>(s.id)},
        {"parent", static_cast<int64_t>(s.parent)},
        {"phase", static_cast<int64_t>(s.phase)},
        {"ok", s.ok ? 1 : 0},
        {"req_bytes", static_cast<int64_t>(s.req_bytes)},
        {"reply_bytes", static_cast<int64_t>(s.reply_bytes)}};
    if (s.layer == Layer::kDriver) {
      args["cpu_us"] = s.cpu_ns / 1000;
      args["records_sent"] = static_cast<int64_t>(s.records_sent);
    }
    log.EmitSpan(std::move(category), std::move(name), std::move(scope),
                 (s.start_ns - origin) / 1000, (s.end_ns - origin) / 1000,
                 s.id, std::move(args));
  }
  return rhino::obs::WriteTextFile(path, rhino::obs::TraceToChromeJson(log));
}

void WireCounter::Add(MessageType type, uint64_t bytes) {
  const auto verb = static_cast<size_t>(type);
  if (verb < bytes_.size()) {
    bytes_[verb].fetch_add(bytes, std::memory_order_relaxed);
  }
}

WireCounter::Totals WireCounter::Read() const {
  Totals totals{};
  for (size_t i = 0; i < bytes_.size(); ++i) {
    totals[i] = bytes_[i].load(std::memory_order_relaxed);
  }
  return totals;
}

uint64_t RuntimeBytes(const WireCounter::Totals& before,
                      const WireCounter::Totals& after) {
  uint64_t bytes = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    if (i == static_cast<size_t>(MessageType::kStats)) continue;
    bytes += after[i] - before[i];
  }
  return bytes;
}

Span TracingTransport::Begin(const std::string& endpoint, MessageType type,
                             size_t body_bytes) const {
  Span span;
  span.id = tracer_->NewId();
  span.parent = from_ < 0 ? tracer_->current_driver_span() : 0;
  span.layer = Layer::kClient;
  span.verb = static_cast<uint8_t>(type);
  span.phase = tracer_->phase();
  span.node = static_cast<int16_t>(tracer_->NodeOf(endpoint));
  span.from = static_cast<int16_t>(from_);
  span.req_bytes = body_bytes;
  span.start_ns = WallNs();
  return span;
}

Status TracingTransport::Call(const std::string& endpoint, MessageType type,
                              std::string_view body, std::string* reply_body) {
  const size_t req_bytes = body.size();
  const bool traced = tracing();
  Span span;
  if (traced) span = Begin(endpoint, type, req_bytes);
  Status st = inner_->Call(endpoint, type, body, reply_body);
  const size_t reply_bytes = reply_body != nullptr ? reply_body->size() : 0;
  counter_->Add(type, req_bytes + reply_bytes);
  if (traced) {
    span.end_ns = WallNs();
    span.ok = st.ok();
    span.reply_bytes = reply_bytes;
    tracer_->Record(span);
  }
  return st;
}

Status TracingTransport::CallAsync(const std::string& endpoint,
                                   MessageType type, std::string body,
                                   AsyncCallback cb) {
  counter_->Add(type, body.size());
  // Null when untraced: the callback then only counts the reply.
  Tracer* tracer = tracing() ? tracer_ : nullptr;
  Span span;
  if (tracer != nullptr) span = Begin(endpoint, type, body.size());
  WireCounter* counter = counter_;
  return inner_->CallAsync(
      endpoint, type, std::move(body),
      [counter, tracer, type, span, cb = std::move(cb)](
          Status st, std::string reply) mutable {
        counter->Add(type, reply.size());
        if (tracer != nullptr) {
          span.end_ns = WallNs();
          span.ok = st.ok();
          span.reply_bytes = reply.size();
          tracer->Record(span);
        }
        cb(std::move(st), std::move(reply));
      });
}

rhino::net::RpcServer::Handler TracedHandler(rhino::net::NodeServer* node,
                                             Tracer* tracer, int index) {
  return [node, tracer, index](MessageType type, std::string_view body)
             -> rhino::Result<std::string> {
    if (!tracer->on()) return node->Handle(type, body);
    Span span;
    span.id = tracer->NewId();
    span.layer = Layer::kNode;
    span.verb = static_cast<uint8_t>(type);
    span.phase = tracer->phase();
    span.node = static_cast<int16_t>(index);
    span.req_bytes = body.size();
    span.start_ns = WallNs();
    rhino::Result<std::string> reply = node->Handle(type, body);
    span.end_ns = WallNs();
    span.ok = reply.ok();
    span.reply_bytes = reply.ok() ? reply->size() : 0;
    tracer->Record(span);
    return reply;
  };
}

}  // namespace perfbench
