#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/units.h"
#include "runtime/retry.h"
#include "sim/cluster.h"

/// \file reliable_transfer.h
/// A network transfer with an arrival timeout and seeded backoff retries.
///
/// `Cluster::Transfer` models a raw send: an installed fault policy may
/// swallow a `kState` transfer outright (network partition), in which case
/// the completion callback simply never fires. `ReliableTransfer` is the
/// protocol-side answer: it re-sends when the transfer has not arrived
/// within a generous multiple of its fault-free duration, with jittered
/// exponential backoff between attempts, and it guarantees exactly one of
/// `deliver` (first arrival) or `give_up` (an endpoint fail-stopped, or
/// the retry budget ran out) fires — duplicate deliveries from a late
/// attempt racing a retry are absorbed.

namespace rhino::sim {

namespace detail {

struct ReliableTransferState {
  Cluster* cluster = nullptr;
  int src = -1;
  int dst = -1;
  uint64_t bytes = 0;
  std::function<void()> deliver;
  std::function<void(Status)> give_up;
  std::shared_ptr<runtime::Retrier> retrier;
  bool settled = false;

  /// True the first time only.
  bool Settle() { return !std::exchange(settled, true); }

  static void Attempt(std::shared_ptr<ReliableTransferState> t) {
    if (t->settled) return;
    // Fail-stops are permanent: no resend reaches a dead endpoint.
    if (!t->cluster->node(t->src).alive() ||
        !t->cluster->node(t->dst).alive()) {
      int dead = t->cluster->node(t->src).alive() ? t->dst : t->src;
      if (t->Settle()) {
        t->give_up(Status::Aborted("transfer endpoint node " +
                                   std::to_string(dead) + " fail-stopped"));
      }
      return;
    }
    SimTime projected = t->cluster->Transfer(
        t->src, t->dst, t->bytes,
        [t] {
          if (t->Settle()) t->deliver();
        },
        TransferKind::kState);
    Simulation* sim = t->cluster->sim();
    // `projected` is the cluster's own delivery estimate, NIC queue
    // backlog included; a dropped transfer projects "now". Waiting out
    // the projection (plus slack for the fault-free duration) keeps the
    // watchdog from mistaking congestion for a drop — a fan-in of bulk
    // reads can queue a block far beyond any multiple of its uncontended
    // transfer time, and a retry storm there only deepens the backlog.
    SimTime now = sim->Now();
    SimTime queue_wait = projected > now ? projected - now : 0;
    const NodeSpec& spec = t->cluster->node(t->dst).spec();
    SimTime expected =
        TransferTime(t->bytes, spec.net_bytes_per_sec) + spec.net_latency;
    SimTime timeout = queue_wait + expected * 3 + 50 * kMillisecond;
    sim->Schedule(timeout, [t, sim] {
      if (t->settled) return;
      SimTime backoff = 0;
      if (!t->retrier->NextBackoff(sim->Now(), &backoff)) {
        if (t->Settle()) {
          t->give_up(t->retrier->Exhausted(
              sim->Now(), Status::TimedOut("transfer to node " +
                                           std::to_string(t->dst) +
                                           " not delivered in time")));
        }
        return;
      }
      sim->Schedule(backoff, [t] { Attempt(t); });
    });
  }
};

}  // namespace detail

/// Sends `bytes` from `src` to `dst` with retries per `retry`. Exactly one
/// of `deliver` (runs on the destination's queue, first arrival) or
/// `give_up` fires. `what` labels the `rhino_retry_attempts_total` counter
/// in `obs`'s registry.
inline void ReliableTransfer(Cluster* cluster, int src, int dst,
                             uint64_t bytes, runtime::RetryOptions retry,
                             uint64_t seed, const std::string& what,
                             obs::Observability* obs,
                             std::function<void()> deliver,
                             std::function<void(Status)> give_up) {
  auto t = std::make_shared<detail::ReliableTransferState>();
  t->cluster = cluster;
  t->src = src;
  t->dst = dst;
  t->bytes = bytes;
  t->deliver = std::move(deliver);
  t->give_up = std::move(give_up);
  t->retrier = std::make_shared<runtime::Retrier>(cluster->sim()->Now(),
                                                  retry, seed, what, obs);
  detail::ReliableTransferState::Attempt(std::move(t));
}

}  // namespace rhino::sim
