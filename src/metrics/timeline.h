#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "dataflow/engine.h"

/// \file timeline.h
/// Latency observability: per-operator time series (bucketed aggregates
/// for the Figure 4/6 timelines). Whole-run distributions (the mean/min/p99
/// numbers the paper quotes) are the engine's `rhino_op_latency_us{op}`
/// histograms.

namespace rhino::metrics {

/// Bucketed aggregation of (time, value) samples.
class TimeSeries {
 public:
  struct Bucket {
    SimTime start = 0;
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double Mean() const { return count == 0 ? 0 : sum / static_cast<double>(count); }
  };

  explicit TimeSeries(SimTime bucket_width = kSecond)
      : bucket_width_(bucket_width) {}

  void Add(SimTime t, double v) {
    SimTime start = t / bucket_width_ * bucket_width_;
    Bucket& b = buckets_[start];
    if (b.count == 0) {
      b.start = start;
      b.min = b.max = v;
    }
    ++b.count;
    b.sum += v;
    b.min = std::min(b.min, v);
    b.max = std::max(b.max, v);
  }

  /// Buckets in time order.
  std::vector<Bucket> Buckets() const {
    std::vector<Bucket> out;
    out.reserve(buckets_.size());
    for (const auto& [_, b] : buckets_) out.push_back(b);
    return out;
  }

  /// Largest bucket mean within [from, to] — "the latency spike".
  double PeakMean(SimTime from = 0, SimTime to = INT64_MAX) const {
    double peak = 0;
    for (const auto& [start, b] : buckets_) {
      if (start < from || start > to) continue;
      peak = std::max(peak, b.Mean());
    }
    return peak;
  }

  SimTime bucket_width() const { return bucket_width_; }
  bool empty() const { return buckets_.empty(); }

 private:
  SimTime bucket_width_;
  std::map<SimTime, Bucket> buckets_;
};

/// Binds to the engine's latency hook and keeps a series per instrumented
/// operator.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(dataflow::Engine* engine,
                           SimTime bucket_width = kSecond)
      : bucket_width_(bucket_width) {
    engine->SetLatencyListener(
        [this](const std::string& op, SimTime now, SimTime latency) {
          auto it = series_.find(op);
          if (it == series_.end()) {
            it = series_.emplace(op, TimeSeries(bucket_width_)).first;
          }
          it->second.Add(now, static_cast<double>(latency));
        });
  }

  const TimeSeries* Series(const std::string& op) const {
    auto it = series_.find(op);
    return it == series_.end() ? nullptr : &it->second;
  }

 private:
  SimTime bucket_width_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace rhino::metrics
