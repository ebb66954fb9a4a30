#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "broker/broker.h"
#include "common/random.h"
#include "dataflow/graph.h"
#include "sim/simulation.h"

/// \file nexmark.h
/// NEXMark workload (paper §5.1.2): the event model, a rate-controlled
/// stream generator, and builders for the three benchmark queries:
///
///  * **NBQ5**  — sliding-window aggregation on bids (60 s window, 10 s
///    slide): small state, read-modify-write updates;
///  * **NBQ8**  — 12 h tumbling-window join of auctions and new persons:
///    large state, append-only updates;
///  * **NBQX**  — four session-window joins (30/60/90/120 min gaps) plus a
///    4 h tumbling join on auctions and bids: several mid-size states that
///    are large in aggregate, with append and deletion patterns.

namespace rhino::nexmark {

/// NEXMark record sizes (bytes), paper §5.1.2.
constexpr uint32_t kPersonBytes = 206;
constexpr uint32_t kAuctionBytes = 269;
constexpr uint32_t kBidBytes = 32;

/// Rate-controlled generator for one topic: every `tick`, each partition
/// receives one batch of `bytes_per_sec * tick * rate_factor(now)` bytes.
struct GeneratorOptions {
  SimTime tick = 500 * kMillisecond;
  /// Steady per-partition rate.
  double bytes_per_sec = 1e6;
  uint32_t record_bytes = kBidBytes;
  /// Time-varying multiplier (Figure 6 uses a triangle wave). Default 1.
  std::function<double(SimTime)> rate_factor;
  /// When set, batches carry `records_per_batch` materialized records with
  /// uniformly random keys (real mode; tests/examples only).
  bool real_records = false;
  uint64_t key_space = 1000000;
};

/// Drives a broker topic with modeled (or real) NEXMark traffic.
class NexmarkGenerator {
 public:
  NexmarkGenerator(sim::Simulation* sim, broker::Topic* topic,
                   GeneratorOptions options, uint64_t seed = 42)
      : sim_(sim),
        topic_(topic),
        options_(std::move(options)),
        rng_(seed) {}

  void Start();
  void Stop() { running_ = false; }

  uint64_t bytes_generated() const { return bytes_generated_; }
  uint64_t records_generated() const { return records_generated_; }

 private:
  void Tick();

  sim::Simulation* sim_;
  broker::Topic* topic_;
  GeneratorOptions options_;
  Random rng_;
  bool running_ = false;
  uint64_t bytes_generated_ = 0;
  uint64_t records_generated_ = 0;
};

/// Knobs shared by the query builders.
struct QueryConfig {
  int source_parallelism = 32;   // one per Kafka partition (§5.1.5)
  int stateful_parallelism = 64; // paper's join/aggregation DOP
  int sink_parallelism = 8;
  dataflow::ProcessingProfile source_profile;
  dataflow::ProcessingProfile stateful_profile;
};

/// NBQ5: bids -> sliding-window aggregation (modeled RMW state).
dataflow::QueryDef BuildNBQ5(const QueryConfig& config);

/// NBQ8: auctions + persons -> 12 h tumbling-window join (modeled
/// append-only state).
dataflow::QueryDef BuildNBQ8(const QueryConfig& config);

/// NBQX: auctions + bids -> four session joins + one 4 h tumbling join.
dataflow::QueryDef BuildNBQX(const QueryConfig& config);

/// The stateful operator names of each query (the reconfiguration
/// targets).
std::vector<std::string> StatefulOpsOf(const std::string& query);

}  // namespace rhino::nexmark
