#include "net/pipeline.h"

#include <utility>
#include <vector>

#include "net/frame.h"

namespace rhino::net {

PipelinedChannel::PipelinedChannel(std::string host, uint16_t port,
                                   PipelinedChannelOptions options,
                                   std::string what, obs::Observability* obs)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      what_(std::move(what)) {
  if (obs == nullptr) obs = obs::Observability::Default();
  inflight_gauge_ = obs->metrics().GetGauge("rhino_net_inflight",
                                            {{"endpoint", endpoint()}});
  latency_us_ = obs->metrics().GetHistogram("rhino_net_call_latency_us",
                                            {{"endpoint", endpoint()}});
  reader_ = std::thread([this] { ReaderLoop(); });
}

PipelinedChannel::~PipelinedChannel() {
  Close();
  if (reader_.joinable()) reader_.join();
}

Status PipelinedChannel::Submit(MessageType type, std::string body,
                                Callback cb) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [&] {
      return closing_ || !broken_.ok() ||
             pending_.size() + reserved_ < options_.window;
    });
    RHINO_RETURN_NOT_OK(RefusalLocked());
    // Hold the slot (not yet a pending entry) across the wmu_ wait below
    // so concurrent submitters cannot oversubscribe the window.
    ++reserved_;
  }

  // Writes serialize under wmu_ with the seq assigned inside the same
  // critical section: wire order == seq order, which the server's serial
  // apply turns into FIFO application per channel (see file comment).
  std::unique_lock<std::mutex> wlock(wmu_);
  Status st = Connect();
  std::string frame;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --reserved_;
    if (st.ok()) st = RefusalLocked();
    if (!st.ok()) {
      space_cv_.notify_all();
      return st;
    }
    RequestEnvelope env;
    env.type = type;
    env.seq = next_seq_++;
    env.body = std::move(body);
    env.EncodeTo(&frame);
    Pending p;
    p.cb = std::move(cb);
    p.submitted = std::chrono::steady_clock::now();
    p.deadline = p.submitted + std::chrono::milliseconds(options_.deadline_ms);
    pending_.emplace(env.seq, std::move(p));
    if (pending_.size() > high_water_) {
      high_water_ = static_cast<uint32_t>(pending_.size());
    }
    inflight_gauge_->Add(1);
  }
  // A failed write breaks the channel: the reader fails the window, this
  // request included.
  st = WriteFrame(conn_, frame);
  if (!st.ok()) Break(st);
  wlock.unlock();
  work_cv_.notify_all();  // the reader may be idle on an empty window
  return Status::OK();
}

Status PipelinedChannel::Connect() {
  if (conn_.valid()) return Status::OK();
  {
    // A refused first connect broke the channel: never connect again.
    std::lock_guard<std::mutex> lock(mu_);
    RHINO_RETURN_NOT_OK(RefusalLocked());
  }
  auto sock = Socket::Connect(host_, port_);
  Status st =
      sock.ok() ? sock->SetRecvTimeout(options_.poll_ms) : sock.status();
  if (!st.ok()) return Break(st);
  conn_ = std::move(sock).MoveValue();
  return Status::OK();
}

Status PipelinedChannel::Break(const Status& cause) {
  Status refusal;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_.ok() && !closing_) {
      broken_ = Status::IOError(what_ + ": " + cause.ToString());
    }
    refusal = RefusalLocked();
  }
  // Shutdown, not close: the fd number stays reserved, so no submitter
  // can write into a recycled descriptor, and a blocked reader wakes.
  conn_.ShutdownBoth();
  work_cv_.notify_all();
  space_cv_.notify_all();
  return refusal;
}

Status PipelinedChannel::RefusalLocked() const {
  if (closing_) return Status::Aborted(what_ + ": channel closed");
  return broken_;
}

Status PipelinedChannel::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  space_cv_.wait(lock, [&] {
    return closing_ || !broken_.ok() ||
           (pending_.empty() && reserved_ == 0);
  });
  if (!broken_.ok()) return broken_;
  if (!pending_.empty() || reserved_ != 0) {
    return Status::Aborted(what_ + ": closed while draining");
  }
  return Status::OK();
}

void PipelinedChannel::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_) return;
    closing_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  {
    // Waits out a submitter's connect or write, then unblocks a reader
    // mid-ReadFrame.
    std::lock_guard<std::mutex> wlock(wmu_);
    conn_.ShutdownBoth();
  }
  FailAllPending(Status::Aborted(what_ + ": channel closed"));
}

uint32_t PipelinedChannel::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(pending_.size());
}

uint32_t PipelinedChannel::inflight_high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

void PipelinedChannel::ReaderLoop() {
  Status refusal;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return closing_ || !broken_.ok() || !pending_.empty();
      });
      refusal = RefusalLocked();
      if (!refusal.ok()) break;
    }
    // A pending request means the first submit connected.
    std::string payload;
    Status st = ReadFrame(conn_, &payload);
    if (st.code() == StatusCode::kTimedOut) {
      SweepDeadlines();
      continue;
    }
    Result<ReplyEnvelope> reply =
        st.ok() ? ReplyEnvelope::Decode(payload) : Result<ReplyEnvelope>(st);
    if (!reply.ok()) {
      // Aborted/IOError: the peer is gone. Corruption: the reply stream
      // lost sync. Either way no reply arrives on this connection again.
      refusal = Break(reply.status());
      break;
    }
    CompleteOne(reply->seq, reply->ToStatus(), std::move(reply->body));
  }
  // No request can join the window any more; fail what is in it.
  FailAllPending(refusal);
}

void PipelinedChannel::SweepDeadlines() {
  auto now = std::chrono::steady_clock::now();
  std::vector<Pending> expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.deadline <= now) {
        expired.push_back(std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    if (!expired.empty()) {
      inflight_gauge_->Add(-static_cast<double>(expired.size()));
      space_cv_.notify_all();
    }
  }
  for (auto& p : expired) {
    // The request may still apply at the server; a late reply to this id
    // is dropped. The channel resends nothing: a caller that resends
    // owns the outcome (a batch is deduplicated, a control verb is not
    // idempotent; rpc.h).
    if (p.cb) {
      p.cb(Status::TimedOut(what_ + ": no reply within " +
                            std::to_string(options_.deadline_ms) + "ms"),
           std::string());
    }
  }
}

void PipelinedChannel::FailAllPending(const Status& st) {
  std::map<uint64_t, Pending> failed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    failed.swap(pending_);
    inflight_gauge_->Add(-static_cast<double>(failed.size()));
    space_cv_.notify_all();
  }
  for (auto& [seq, p] : failed) {
    if (p.cb) p.cb(st, std::string());
  }
}

void PipelinedChannel::CompleteOne(uint64_t seq, const Status& st,
                                   std::string body) {
  Pending p;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;  // expired; drop the late reply
    p = std::move(it->second);
    pending_.erase(it);
    inflight_gauge_->Add(-1);
    space_cv_.notify_all();
  }
  latency_us_->Observe(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - p.submitted)
                           .count());
  if (p.cb) p.cb(st, std::move(body));
}

}  // namespace rhino::net
