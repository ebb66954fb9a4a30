#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "net/transport.h"
#include "net/wire.h"

/// \file counting_transport.h
/// Byte-counting decorator for the distributed benches: wraps the
/// driver's transport and counts the request and reply bytes of every
/// call, per verb. The benches' own kStats polls are counted apart from
/// the rest, so `bytes()` is what the runtime itself put on the wire.

namespace rhino::bench {

class CountingTransport : public net::Transport {
 public:
  explicit CountingTransport(net::Transport* inner) : inner_(inner) {}

  Status Call(const std::string& endpoint, net::MessageType type,
              std::string_view body, std::string* reply_body) override {
    std::string reply;
    Status st = inner_->Call(endpoint, type, body, &reply);
    Count(type, body.size() + reply.size());
    if (type == net::MessageType::kExtractVnodes) last_extract_reply = reply;
    if (reply_body != nullptr) *reply_body = std::move(reply);
    return st;
  }

  Status CallAsync(const std::string& endpoint, net::MessageType type,
                   std::string body, AsyncCallback cb) override {
    const size_t request = body.size();
    return inner_->CallAsync(
        endpoint, type, std::move(body),
        [this, type, request, cb](Status st, std::string reply) {
          Count(type, request + reply.size());
          cb(st, std::move(reply));
        });
  }

  void Forget(const std::string& endpoint) override {
    inner_->Forget(endpoint);
  }

  /// Request and reply bytes of every verb but kStats.
  uint64_t bytes() const {
    uint64_t total = 0;
    for (size_t t = 0; t < bytes_.size(); ++t) {
      if (t != static_cast<size_t>(net::MessageType::kStats)) {
        total += bytes_[t].load();
      }
    }
    return total;
  }

  /// Request and reply bytes of `type`.
  uint64_t bytes(net::MessageType type) const {
    return bytes_[static_cast<size_t>(type)].load();
  }

  /// The last kExtractVnodes reply. Driver thread only.
  std::string last_extract_reply;

 private:
  void Count(net::MessageType type, size_t bytes) {
    bytes_[static_cast<size_t>(type)].fetch_add(bytes);
  }

  net::Transport* inner_;
  /// One slot per verb value; every verb is below 16 (wire.h).
  std::array<std::atomic<uint64_t>, 16> bytes_{};
};

}  // namespace rhino::bench
