#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/status.h"
#include "net/transport.h"
#include "net/wire.h"

/// \file fault_transport.h
/// A seeded fault-injecting `Transport` decorator for chaos tests of the
/// networked runtime: it loses and delays the requests and replies of
/// chosen verbs on their way through the wrapped transport.
///
/// A lost request never reaches the peer; a lost reply is one the peer
/// served and the caller never sees. Both surface as `IOError`, which is
/// what a fail-stopped peer or a broken connection looks like. The fate
/// of a message is a hash of the seed, the endpoint, the verb and the
/// message's index on that (endpoint, verb) link, so one caller's
/// schedule replays exactly; across callers it varies only with their
/// interleaving.
///
/// Thread-safe: a node's replicator thread and the driver's thread may
/// share one.

namespace rhino::net {

/// What a `FaultTransport` does to the messages of one verb.
struct MessageFaults {
  double lose_request = 0;  ///< chance a request never arrives
  double lose_reply = 0;    ///< chance a served request's reply is lost
  double delay = 0;         ///< chance a request, and again a reply, waits
  int max_delay_us = 0;     ///< a delay waits up to this long
};

class FaultTransport : public Transport {
 public:
  FaultTransport(Transport* inner, uint64_t seed)
      : inner_(inner), seed_(seed) {}

  void SetFaults(MessageType type, MessageFaults faults) {
    std::lock_guard<std::mutex> lock(mu_);
    faults_[type] = faults;
  }

  /// Stops injecting: every later message passes untouched.
  void Heal() {
    std::lock_guard<std::mutex> lock(mu_);
    faults_.clear();
  }

  uint64_t lost_requests() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lost_requests_;
  }
  uint64_t lost_replies() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lost_replies_;
  }

  Status Call(const std::string& endpoint, MessageType type,
              std::string_view body, std::string* reply_body) override {
    Fate fate = Decide(endpoint, type);
    Wait(fate.request_delay_us);
    if (fate.lose_request) {
      return Status::IOError("fault transport lost a request to " + endpoint);
    }
    std::string reply;
    Status st = inner_->Call(endpoint, type, body, &reply);
    Wait(fate.reply_delay_us);
    if (st.ok() && fate.lose_reply) {
      return Status::IOError("fault transport lost a reply from " + endpoint);
    }
    if (st.ok() && reply_body != nullptr) *reply_body = std::move(reply);
    return st;
  }

  void Forget(const std::string& endpoint) override {
    inner_->Forget(endpoint);
  }

 private:
  struct Fate {
    bool lose_request = false;
    bool lose_reply = false;
    int request_delay_us = 0;
    int reply_delay_us = 0;
  };

  Fate Decide(const std::string& endpoint, MessageType type) {
    std::lock_guard<std::mutex> lock(mu_);
    Fate fate;
    auto it = faults_.find(type);
    if (it == faults_.end()) return fate;
    const MessageFaults& f = it->second;
    const uint64_t index = sent_[{endpoint, type}]++;
    uint64_t state = seed_ ^ Fnv1a64(endpoint.data(), endpoint.size()) ^
                     (static_cast<uint64_t>(type) << 56) ^ (index << 8);
    // Five independent draws from one splitmix walk of the message's id.
    auto draw = [&state] {
      state += 0x9e3779b97f4a7c15ull;
      return static_cast<double>(Mix64(state) >> 11) *
             (1.0 / 9007199254740992.0);
    };
    fate.lose_request = draw() < f.lose_request;
    fate.lose_reply = draw() < f.lose_reply;
    if (draw() < f.delay) {
      fate.request_delay_us = static_cast<int>(draw() * f.max_delay_us);
    }
    if (draw() < f.delay) {
      fate.reply_delay_us = static_cast<int>(draw() * f.max_delay_us);
    }
    lost_requests_ += fate.lose_request ? 1 : 0;
    lost_replies_ += !fate.lose_request && fate.lose_reply ? 1 : 0;
    return fate;
  }

  static void Wait(int us) {
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  Transport* inner_;
  const uint64_t seed_;
  mutable std::mutex mu_;
  std::map<MessageType, MessageFaults> faults_;
  std::map<std::pair<std::string, MessageType>, uint64_t> sent_;
  uint64_t lost_requests_ = 0;
  uint64_t lost_replies_ = 0;
};

}  // namespace rhino::net
