#include "net/pipeline.h"

#include <utility>
#include <vector>

#include "common/hash.h"
#include "net/frame.h"

namespace rhino::net {

PipelinedChannel::PipelinedChannel(std::string host, uint16_t port,
                                   PipelinedChannelOptions options,
                                   std::string what, obs::Observability* obs)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      what_(std::move(what)),
      obs_(obs != nullptr ? obs : obs::Observability::Default()) {
  inflight_gauge_ = obs_->metrics().GetGauge("rhino_net_inflight",
                                             {{"endpoint", endpoint()}});
  latency_us_ = obs_->metrics().GetHistogram("rhino_net_call_latency_us",
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
    if (closing_) return Status::Aborted(what_ + ": channel closed");
    if (!broken_.ok()) return broken_;
    // Hold the slot (not yet a pending entry) across the wmu_ wait below
    // so concurrent submitters cannot oversubscribe the window.
    ++reserved_;
  }

  // Writes serialize under wmu_ with the seq assigned inside the same
  // critical section: wire order == seq order, which the server's serial
  // apply turns into FIFO application per channel (see file comment).
  std::unique_lock<std::mutex> wlock(wmu_);
  std::string frame;
  uint64_t seq = 0;
  bool write_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --reserved_;
    if (closing_) {
      space_cv_.notify_all();
      return Status::Aborted(what_ + ": channel closed");
    }
    if (!broken_.ok()) {
      space_cv_.notify_all();
      return broken_;
    }
    seq = next_seq_++;
    RequestEnvelope env;
    env.type = type;
    env.seq = seq;
    env.body = std::move(body);
    env.EncodeTo(&frame);
    Pending p;
    p.type = type;
    p.body = std::move(env.body);
    p.cb = std::move(cb);
    p.submitted = std::chrono::steady_clock::now();
    p.deadline = p.submitted + std::chrono::milliseconds(options_.deadline_ms);
    pending_.emplace(seq, std::move(p));
    if (pending_.size() > high_water_) {
      high_water_ = static_cast<uint32_t>(pending_.size());
    }
    inflight_gauge_->Add(1);
    write_now = connected_;
  }
  if (write_now) {
    Status st = WriteFrame(conn_, frame);
    if (!st.ok()) {
      // Park the window for the reader to replay. Shutdown (not close):
      // the fd number stays reserved so no submitter can ever write into
      // a recycled descriptor.
      {
        std::lock_guard<std::mutex> lock(mu_);
        connected_ = false;
      }
      conn_.ShutdownBoth();
    }
  }
  wlock.unlock();
  // Reader may be idle (empty window) or parked on a dead connection.
  work_cv_.notify_all();
  return Status::OK();
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
    // Unblocks a reader mid-ReadFrame; reconnect loops observe closing_.
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

uint64_t PipelinedChannel::replayed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replayed_total_;
}

void PipelinedChannel::ReaderLoop() {
  while (true) {
    bool need_reconnect = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return closing_ || !broken_.ok() || !pending_.empty();
      });
      if (closing_ || !broken_.ok()) return;
      need_reconnect = !connected_;
    }
    if (need_reconnect) {
      if (!ReconnectAndReplay()) return;
      continue;
    }
    std::string payload;
    Status st = ReadFrame(conn_, &payload);
    if (st.code() == StatusCode::kTimedOut) {
      SweepDeadlines();
      continue;
    }
    if (!st.ok()) {
      // Aborted/IOError: connection dropped. Corruption: the reply
      // stream lost sync. Either way the stream is unusable; park the
      // window and reconnect.
      {
        std::lock_guard<std::mutex> lock(mu_);
        connected_ = false;
      }
      {
        std::lock_guard<std::mutex> wlock(wmu_);
        conn_.ShutdownBoth();
      }
      SweepDeadlines();
      continue;
    }
    auto reply = ReplyEnvelope::Decode(payload);
    if (!reply.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      connected_ = false;
      continue;
    }
    CompleteOne(reply->seq, reply->ToStatus(), std::move(reply->body));
  }
}

bool PipelinedChannel::ReconnectAndReplay() {
  std::unique_lock<std::mutex> wlock(wmu_);
  // The retry ladder reads no clock: it is handed steady-clock
  // microseconds, and the delays it picks are slept here.
  auto now_us = [] {
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  // Fresh budget per outage episode, seeded deterministically (endpoint +
  // progress so far) so channels de-synchronize without wall-clock
  // entropy.
  runtime::Retrier retrier(now_us(), options_.retry,
                           Fnv1a64(host_) + port_ + next_seq_,
                           what_ + ":reconnect", obs_);
  Status last = Status::IOError(what_ + ": not connected");
  bool first_attempt = true;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closing_) return false;
      if (pending_.empty()) return true;  // nothing owed; connect lazily
    }
    if (!first_attempt) {
      SimTime delay = 0;
      if (!retrier.NextBackoff(now_us(), &delay)) {
        Status verdict = retrier.Exhausted(now_us(), last);
        {
          std::lock_guard<std::mutex> lock(mu_);
          broken_ = verdict;
        }
        FailAllPending(verdict);
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    first_attempt = false;
    conn_.Close();
    auto sock = Socket::Connect(host_, port_);
    if (!sock.ok()) {
      last = sock.status();
      continue;
    }
    conn_ = std::move(sock).MoveValue();
    Status st = conn_.SetRecvTimeout(options_.poll_ms);
    if (!st.ok()) {
      last = st;
      continue;
    }
    // Replay the whole window in seq order. A batch whose reply was lost
    // with the old connection is deduplicated server-side (and answered
    // with the outputs its first apply kept); a control verb is not
    // idempotent (pipeline.h).
    std::vector<std::pair<uint64_t, std::pair<MessageType, std::string>>> window;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [seq, p] : pending_) {
        window.emplace_back(seq, std::make_pair(p.type, p.body));
      }
    }
    bool wrote_all = true;
    for (auto& [seq, req] : window) {
      RequestEnvelope env;
      env.type = req.first;
      env.seq = seq;
      env.body = std::move(req.second);
      std::string frame;
      env.EncodeTo(&frame);
      st = WriteFrame(conn_, frame);
      if (!st.ok()) {
        last = st;
        wrote_all = false;
        break;
      }
    }
    if (!wrote_all) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closing_) return false;
      connected_ = true;
      // The lazy FIRST connection also flows through here; only a
      // re-established one counts as replay.
      if (ever_connected_) replayed_total_ += window.size();
      ever_connected_ = true;
    }
    return true;
  }
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
    // The request may still apply server-side; a late reply to this id
    // is dropped. Callers treat TimedOut as transient and replay: a batch
    // is deduplicated (and answered with its kept outputs), a control
    // verb is not idempotent.
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
    if (it == pending_.end()) return;  // expired or replaced; drop late reply
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
