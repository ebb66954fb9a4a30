#include "net/transport.h"

#include <condition_variable>
#include <utility>

namespace rhino::net {

Status TcpTransport::Call(const std::string& endpoint, MessageType type,
                          std::string_view body, std::string* reply_body) {
  // Shared with the callback, which may still be returning on the reader
  // thread after this caller wakes.
  struct Completion {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    std::string reply;
  };
  auto completion = std::make_shared<Completion>();
  RHINO_RETURN_NOT_OK(CallAsync(
      endpoint, type, std::string(body),
      [completion](Status st, std::string reply) {
        std::lock_guard<std::mutex> lock(completion->mu);
        completion->status = std::move(st);
        completion->reply = std::move(reply);
        completion->done = true;
        completion->cv.notify_all();
      }));
  std::unique_lock<std::mutex> lock(completion->mu);
  completion->cv.wait(lock, [&] { return completion->done; });
  RHINO_RETURN_NOT_OK(completion->status);
  if (reply_body != nullptr) *reply_body = std::move(completion->reply);
  return Status::OK();
}

Status TcpTransport::CallAsync(const std::string& endpoint, MessageType type,
                               std::string body, AsyncCallback cb) {
  PipelinedChannel* channel = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = channels_.find(endpoint);
    if (it == channels_.end()) {
      std::string host;
      uint16_t port = 0;
      RHINO_RETURN_NOT_OK(ParseEndpoint(endpoint, &host, &port));
      it = channels_
               .emplace(endpoint, std::make_unique<PipelinedChannel>(
                                      host, port, options_,
                                      "pipelined_call:" + endpoint))
               .first;
    }
    channel = it->second.get();
  }
  // The channel handles its own backpressure; holding mu_ across Submit
  // would couple windows of DIFFERENT endpoints. Safe because channels
  // are only destroyed by Forget, which callers order after draining
  // their in-flight work for that endpoint.
  return channel->Submit(type, std::move(body), std::move(cb));
}

void TcpTransport::Forget(const std::string& endpoint) {
  std::unique_ptr<PipelinedChannel> channel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = channels_.find(endpoint);
    if (it != channels_.end()) {
      channel = std::move(it->second);
      channels_.erase(it);
    }
  }
  // Destroyed outside mu_: Close() invokes pending callbacks, which must
  // not deadlock against other transport calls.
  channel.reset();
}

void LoopbackTransport::Register(const std::string& endpoint,
                                 RpcServer::Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[endpoint] = std::move(handler);
}

void LoopbackTransport::Kill(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_.erase(endpoint);
}

Status LoopbackTransport::Call(const std::string& endpoint, MessageType type,
                               std::string_view body,
                               std::string* reply_body) {
  RpcServer::Handler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handlers_.find(endpoint);
    if (it == handlers_.end()) {
      return Status::IOError("loopback endpoint unreachable: " + endpoint);
    }
    handler = it->second;
  }
  auto result = handler(type, body);
  RHINO_RETURN_NOT_OK(result.status());
  if (reply_body != nullptr) *reply_body = std::move(result).MoveValue();
  return Status::OK();
}

}  // namespace rhino::net
