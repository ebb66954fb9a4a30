#include "cluster.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>
#include <utility>

#include "stats.h"

namespace perfbench {

using rhino::Result;
using rhino::Status;
namespace net = rhino::net;

namespace {

constexpr auto kFirstPause = std::chrono::microseconds(100);
constexpr auto kLastPause = std::chrono::microseconds(1000);
constexpr int64_t kIdleTimeoutNs = 30'000'000'000;
constexpr int kCalibrationRounds = 32;

bool IsOk(const Status& st) { return st.ok(); }
template <typename T>
bool IsOk(const Result<T>& r) {
  return r.ok();
}
bool IsOk(const std::vector<uint32_t>& /*dead*/) { return true; }

template <typename T>
void FillSpan(Span* /*span*/, const T& /*result*/) {}
void FillSpan(Span* span, const Result<net::PumpStats>& r) {
  if (!r.ok()) return;
  span->records_sent = r->records_sent;
  span->batches_sent = r->batches_sent;
  span->credit_stalls = r->credit_stalls;
  span->applied = r->applied;
  span->deduped = r->deduped;
}

}  // namespace

Result<std::unique_ptr<Cluster>> Cluster::Start(const Options& options) {
  std::unique_ptr<Cluster> c(new Cluster());
  c->tracer_ = options.tracer;
  c->ledger_ = options.ledger;
  std::error_code ec;
  std::filesystem::create_directories(options.root, ec);
  std::string templ = options.root + "/cluster-XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) {
    return Status::IOError("mkdtemp under " + options.root);
  }
  c->dir_ = templ;
  RHINO_RETURN_NOT_OK(c->env_.CreateDir(c->dir_ + "/ckpt"));

  // Every node gets its own transport for its replication stream: on a
  // shared one, a node's stream rides the same serially-served connection
  // a peer's checkpoint handler blocks on.
  c->driver_tcp_ = std::make_unique<net::TcpTransport>();
  c->driver_counted_ = std::make_unique<TracingTransport>(
      c->driver_tcp_.get(), options.wire, c->tracer_, -1);
  for (uint32_t i = 0; i < options.nodes; ++i) {
    c->node_tcp_.push_back(std::make_unique<net::TcpTransport>());
    c->node_counted_.push_back(std::make_unique<TracingTransport>(
        c->node_tcp_.back().get(), options.wire, c->tracer_,
        static_cast<int>(i)));
    net::Transport* transport = c->node_counted_.back().get();
    std::string data_dir = c->dir_ + "/n" + std::to_string(i);
    RHINO_RETURN_NOT_OK(c->env_.CreateDir(data_dir));
    c->data_dirs_.push_back(data_dir);
    // Deployment defaults: continuous replication, default windows.
    net::NodeServerOptions node_options;
    node_options.data_dir = data_dir;
    node_options.ckpt_dir = c->dir_ + "/ckpt";
    c->nodes_.push_back(std::make_unique<net::NodeServer>(
        &c->env_, transport, std::move(node_options)));
    net::NodeServer* node = c->nodes_.back().get();
    c->servers_.push_back(std::make_unique<net::RpcServer>(
        c->tracer_ != nullptr
            ? TracedHandler(node, c->tracer_, static_cast<int>(i))
            : node->AsHandler()));
    RHINO_RETURN_NOT_OK(c->servers_.back()->Start("127.0.0.1", 0));
    c->endpoints_.push_back(
        net::FormatEndpoint("127.0.0.1", c->servers_.back()->port()));
    if (c->tracer_ != nullptr) {
      c->tracer_->RegisterEndpoint(c->endpoints_.back(), static_cast<int>(i));
    }
  }
  c->driver_ = std::make_unique<net::ClusterDriver>(c->driver_counted_.get(),
                                                    c->endpoints_);
  return c;
}

Cluster::~Cluster() {
  // Streams first, so no replicator is mid-call into a peer going away;
  // then the servers, the driver and the transports (which join their
  // channel threads), and only then the nodes.
  for (auto& node : nodes_) node->StopReplication();
  for (auto& server : servers_) server->Stop();
  driver_.reset();
  driver_counted_.reset();
  driver_tcp_.reset();
  node_counted_.clear();
  node_tcp_.clear();
  servers_.clear();
  nodes_.clear();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

rhino::broker::Partition* Cluster::AddPartition() {
  partitions_.push_back(std::make_unique<rhino::broker::Partition>(0));
  driver_->AddPartition(partitions_.back().get());
  return partitions_.back().get();
}

template <typename F>
auto Cluster::Counted(DriverOp op, uint64_t source_records, F&& fn) {
  ++ledger_->attempted;
  const bool traced = tracer_ != nullptr && tracer_->on();
  Span span;
  int64_t cpu0 = 0;
  if (traced) {
    span.id = tracer_->NewId();
    span.layer = Layer::kDriver;
    span.verb = static_cast<uint8_t>(op);
    span.phase = tracer_->phase();
    span.source_records = source_records;
    tracer_->set_current_driver_span(span.id);
    cpu0 = ThreadCpuNs();
    span.start_ns = WallNs();
  }
  auto result = fn();
  const bool ok = IsOk(result);
  if (!ok) ++ledger_->failed;
  if (traced) {
    span.end_ns = WallNs();
    span.cpu_ns = ThreadCpuNs() - cpu0;
    span.ok = ok;
    FillSpan(&span, result);
    tracer_->set_current_driver_span(0);
    tracer_->Record(span);
  }
  return result;
}

Status Cluster::Wire(const std::function<Status()>& setup_calls) {
  return Counted(DriverOp::kSetup, 0, setup_calls);
}

Result<net::PumpStats> Cluster::Pump(uint64_t source_records) {
  return Counted(DriverOp::kPump, source_records,
                 [this] { return driver_->Pump(); });
}

Result<net::CheckpointStats> Cluster::Checkpoint() {
  return Counted(DriverOp::kCheckpoint, 0,
                 [this] { return driver_->Checkpoint(); });
}

Status Cluster::Handover(const std::string& op, uint32_t origin,
                         uint32_t target, const std::vector<uint32_t>& vnodes) {
  return Counted(DriverOp::kHandover, 0, [&] {
    return driver_->TriggerHandover(op, origin, target, vnodes);
  });
}

Status Cluster::Recover(uint32_t node) {
  return Counted(DriverOp::kRecover, 0,
                 [&] { return driver_->RecoverNode(node); });
}

std::vector<uint32_t> Cluster::Probe() {
  return Counted(DriverOp::kProbe, 0,
                 [this] { return driver_->ProbeFailures(); });
}

Result<net::StatsReply> Cluster::Stats(uint32_t node) {
  return Counted(DriverOp::kStats, 0,
                 [&] { return driver_->NodeStats(node); });
}

Result<bool> Cluster::PollRound(IdleStats* idle, int skip) {
  bool all_idle = true;
  idle->state_bytes.assign(num_nodes(), 0);
  idle->total_state_bytes = 0;
  for (uint32_t node = 0; node < num_nodes(); ++node) {
    if (!driver_->IsAlive(node) || static_cast<int>(node) == skip) continue;
    RHINO_ASSIGN_OR_RETURN(net::StatsReply stats, Stats(node));
    ++idle->polls;
    if (stats.repl_dirty != 0 || stats.repl_inflight != 0) all_idle = false;
    idle->state_bytes[node] = stats.state_bytes;
    idle->total_state_bytes += stats.state_bytes;
  }
  return all_idle;
}

Result<IdleStats> Cluster::WaitReplicationIdle(int skip) {
  const int64_t start = WallNs();
  const int64_t deadline = start + kIdleTimeoutNs;
  // Polls back off from 100 us to 1 ms: fine resolution for short waits,
  // few polls for long ones.
  auto pause = kFirstPause;
  IdleStats idle;
  while (true) {
    RHINO_ASSIGN_OR_RETURN(bool all_idle, PollRound(&idle, skip));
    const int64_t now = WallNs();
    if (all_idle) {
      idle.wait_s = static_cast<double>(now - start) / 1e9;
      idle.poll_cpu_ns = static_cast<int64_t>(idle.polls) * poll_cpu_ns_;
      return idle;
    }
    if (now > deadline) {
      return Status::TimedOut("replication streams still busy after " +
                              std::to_string(kIdleTimeoutNs / 1'000'000'000) +
                              " s");
    }
    std::this_thread::sleep_for(pause);
    pause = std::min(2 * pause, kLastPause);
  }
}

Status Cluster::CalibratePolls() {
  std::vector<double> cpu_ns;
  for (int i = 0; i < kCalibrationRounds; ++i) {
    IdleStats idle;
    const int64_t cpu0 = ProcessCpuNs();
    RHINO_ASSIGN_OR_RETURN(bool all_idle, PollRound(&idle));
    // The pause lets the servers finish the round's work off the reply
    // path before the clock is read again.
    std::this_thread::sleep_for(kLastPause);
    if (!all_idle || idle.polls == 0) {
      return Status::Aborted("poll calibration needs live, idle streams");
    }
    cpu_ns.push_back(static_cast<double>(ProcessCpuNs() - cpu0) /
                     static_cast<double>(idle.polls));
  }
  poll_cpu_ns_ = static_cast<int64_t>(Median(cpu_ns));
  return Status::OK();
}

Result<std::vector<net::QueryCountReply>> Cluster::QueryMany(
    const std::string& op, const std::vector<uint64_t>& keys) {
  std::vector<uint32_t> owners;
  owners.reserve(keys.size());
  for (uint64_t key : keys) {
    RHINO_ASSIGN_OR_RETURN(uint32_t owner, driver_->RouteKey(op, key));
    owners.push_back(owner);
  }
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
    Status first_error;
  } shared;
  std::vector<net::QueryCountReply> replies(keys.size());
  // A transport of its own: audit reads never share the driver's
  // connections, and its channels close when it goes out of scope.
  net::TcpTransport transport;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t owner = owners[i];
    net::QueryCountRequest req;
    req.op = op;
    req.key = keys[i];
    std::string body;
    req.EncodeTo(&body);
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      ++shared.outstanding;
    }
    Status submitted = transport.CallAsync(
        endpoints_[owner], net::MessageType::kQueryCount, std::move(body),
        [&shared, &replies, i](Status st, std::string reply) {
          Result<net::QueryCountReply> decoded =
              st.ok() ? net::QueryCountReply::Decode(reply)
                      : Result<net::QueryCountReply>(st);
          std::lock_guard<std::mutex> lock(shared.mu);
          if (decoded.ok()) {
            replies[i] = *decoded;
          } else if (shared.first_error.ok()) {
            shared.first_error = decoded.status();
          }
          --shared.outstanding;
          shared.cv.notify_all();
        });
    if (!submitted.ok()) {
      std::lock_guard<std::mutex> lock(shared.mu);
      --shared.outstanding;
      if (shared.first_error.ok()) shared.first_error = submitted;
      break;
    }
  }
  std::unique_lock<std::mutex> lock(shared.mu);
  shared.cv.wait(lock, [&] { return shared.outstanding == 0; });
  RHINO_RETURN_NOT_OK(shared.first_error);
  return replies;
}

uint64_t Cluster::DiskBytes() const {
  uint64_t bytes = 0;
  for (const std::string& dir : data_dirs_) {
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
      std::error_code size_ec;
      if (it->is_regular_file(size_ec)) {
        uint64_t size = it->file_size(size_ec);
        if (!size_ec) bytes += size;
      }
    }
  }
  return bytes;
}

}  // namespace perfbench
