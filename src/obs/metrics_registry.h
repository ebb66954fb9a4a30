#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>

/// \file metrics_registry.h
/// Lock-cheap metrics registry: counters, gauges, and histograms with
/// label sets.
///
/// Protocol code registers an instrument **once** (paying a name lookup
/// and a possible allocation) and keeps the returned pointer; the hot-path
/// update through that pointer is a plain arithmetic store — no lookup, no
/// allocation, no branch on a registry lock. Every instrument is made of
/// atomics, so a networked node's threads (handlers, replicator, channel
/// readers, LSM background work) update them without coordination, and a
/// histogram is fixed-size from construction. Registration itself is
/// serialized by a registry mutex; the handle discipline is what keeps
/// instrumentation off the hot path.
///
/// Naming convention (see DESIGN.md "Observability"):
///   rhino_<subsystem>_<quantity>_<unit|total>
/// e.g. `rhino_replication_bytes_total`, `rhino_handover_state_fetch_us`.

namespace rhino::obs {

/// Sorted label set; part of an instrument's identity.
using Labels = std::map<std::string, std::string>;

/// Monotonically increasing counter (relaxed atomic: totals are exact,
/// cross-counter ordering is not promised under real threads).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins point-in-time value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Distribution of integer samples (latencies in µs) in fixed memory.
///
/// Every instance has the same bucket layout: a value below 128 has a
/// bucket of its own, each power of two above it is cut into 64 equal
/// buckets, and values at or above `kCap` share the top bucket. So two
/// histograms add up bucket by bucket. `count`, `sum`, `Min` and `Max` are
/// exact; `Percentile` is nearest-rank and reports its bucket's midpoint
/// clamped to [Min, Max], within 1/128 of the true sample below `kCap`.
///
/// `Observe` takes no lock and allocates nothing. Its updates are relaxed
/// except the count's, which publishes them: a reader running beside
/// observers sees at least every observation it counts.
class Histogram {
 public:
  /// Values at or above it share the top bucket (2^40 µs is 12.7 days).
  static constexpr int kCapBits = 40;
  static constexpr int64_t kCap = int64_t{1} << kCapBits;
  /// 128 exact buckets, then 64 for each power of two from 2^7 to kCap.
  static constexpr size_t kBuckets = 128 + 64 * (kCapBits - 7);

  void Observe(int64_t v) {
    int64_t seen = min_.load(std::memory_order_relaxed);
    while (v < seen && !min_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (v > seen && !max_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_release);
  }

  uint64_t count() const { return count_.load(std::memory_order_acquire); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  /// 0 when empty, like `Max` and `Percentile`.
  int64_t Min() const;
  int64_t Max() const;
  /// Percentile in [0, 100], nearest-rank.
  int64_t Percentile(double p) const;

 private:
  static size_t BucketOf(int64_t v);
  static int64_t Midpoint(size_t bucket);

  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max_{std::numeric_limits<int64_t>::min()};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// Registry of named instruments. Instruments live as long as the
/// registry; returned pointers are stable (node-based storage).
class MetricsRegistry {
 public:
  /// Idempotent: the same (name, labels) always returns the same handle.
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  /// One registered instrument of type T, for exporter enumeration.
  template <typename T>
  struct Instrument {
    std::string name;
    Labels labels;
    T metric;
  };

  /// Instruments in registration-key order (name, then serialized labels).
  /// Enumeration is unlocked: export/assert after a run drained.
  const std::map<std::string, Instrument<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Instrument<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Instrument<Histogram>>& histograms() const {
    return histograms_;
  }

  /// The identity key of (name, labels), e.g. `foo{op="join",sut="Rhino"}`.
  static std::string KeyOf(const std::string& name, const Labels& labels);

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  template <typename T>
  T* GetOrCreate(std::map<std::string, Instrument<T>>* family,
                 const std::string& name, const Labels& labels);

  mutable std::mutex mu_;
  std::map<std::string, Instrument<Counter>> counters_;
  std::map<std::string, Instrument<Gauge>> gauges_;
  std::map<std::string, Instrument<Histogram>> histograms_;
};

}  // namespace rhino::obs
