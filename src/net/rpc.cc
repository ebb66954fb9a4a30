#include "net/rpc.h"

#include <utility>

#include "common/logging.h"
#include "net/frame.h"

namespace rhino::net {

namespace {

/// Accept/read poll interval: how often blocked server threads re-check
/// the stop flag. Long enough to stay off the profile, short enough that
/// Stop() completes promptly.
constexpr int kServerPollMs = 100;

}  // namespace

// ---------------------------------------------------------------- server --

Status RpcServer::Start(const std::string& host, uint16_t port) {
  RHINO_ASSIGN_OR_RETURN(listener_, Socket::Listen(host, port));
  RHINO_RETURN_NOT_OK(listener_.SetRecvTimeout(kServerPollMs));
  port_ = listener_.local_port();
  stop_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  if (stop_.exchange(true)) {
    // Second caller still joins in case the first is mid-Stop.
  }
  if (listener_.valid()) listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : conns_) conn->ShutdownBoth();
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  listener_.Close();
}

void RpcServer::AcceptLoop() {
  while (!stop_.load()) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kTimedOut) continue;
      // Listener shut down (Stop) or hard error: either way the accept
      // loop is done.
      break;
    }
    auto conn = std::make_shared<Socket>(std::move(accepted).MoveValue());
    if (!conn->SetRecvTimeout(kServerPollMs).ok()) continue;
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load()) break;
    conns_.push_back(conn);
    conn_threads_.emplace_back([this, conn] { Serve(*conn); });
  }
}

void RpcServer::Serve(Socket& conn) {
  std::string frame;
  while (!stop_.load()) {
    Status st = ReadFrame(conn, &frame);
    if (st.code() == StatusCode::kTimedOut) continue;  // poll stop flag
    if (!st.ok()) {
      // Aborted = client hung up cleanly; IOError = mid-message
      // disconnect; Corruption = garbage framing. None of them can be
      // answered (the stream is unsynchronized), so drop the connection —
      // the client reconnects on a fresh stream and replays its window.
      break;
    }
    auto request = RequestEnvelope::Decode(frame);
    ReplyEnvelope reply;
    if (!request.ok()) {
      // Framing was intact but the envelope is malformed: report it on
      // seq 0 (no request carries it, so the client's per-request deadline
      // fails the call), then resynchronize by closing.
      reply.seq = 0;
      reply.code = request.status().code();
      reply.message = request.status().message();
    } else {
      reply.seq = request->seq;
      auto result = handler_(request->type, request->body);
      if (result.ok()) {
        reply.body = std::move(result).MoveValue();
      } else {
        reply.code = result.status().code();
        reply.message = result.status().message();
      }
    }
    std::string encoded;
    reply.EncodeTo(&encoded);
    if (!WriteFrame(conn, encoded).ok()) break;
    if (!request.ok()) break;
  }
  // Under mu_: Stop() shuts down every live connection under the same
  // lock, and must not read the fd while it is being closed.
  std::lock_guard<std::mutex> lock(mu_);
  conn.Close();
}

}  // namespace rhino::net
