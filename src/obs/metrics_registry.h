#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/histogram.h"

/// \file metrics_registry.h
/// Lock-cheap metrics registry: counters, gauges, and histograms with
/// label sets.
///
/// Protocol code registers an instrument **once** (paying a name lookup
/// and a possible allocation) and keeps the returned pointer; the hot-path
/// update through that pointer is a plain arithmetic store — no lookup, no
/// allocation, no branch on a registry lock. Counters and gauges are
/// relaxed atomics so a networked node's threads (handlers, replicator,
/// channel readers, LSM background work) update them without
/// coordination; histograms take a short internal lock (they
/// allocate). Registration itself is serialized by a registry mutex; the
/// handle discipline is what keeps instrumentation off the hot path.
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
  void Reset() { value_.store(0, std::memory_order_relaxed); }

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

/// Sample distribution with percentile queries (wraps rhino::Histogram).
/// Observations lock internally; `histogram()` hands out the unlocked
/// sample set and must only be read when writers are quiescent (after a run
/// drained) — which is when exporters and tests run.
class HistogramMetric {
 public:
  void Observe(int64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Add(v);
  }
  const Histogram& histogram() const { return hist_; }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Clear();
  }

 private:
  mutable std::mutex mu_;
  Histogram hist_;
};

/// Registry of named instruments. Instruments live as long as the
/// registry; returned pointers are stable (node-based storage).
class MetricsRegistry {
 public:
  /// Idempotent: the same (name, labels) always returns the same handle.
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  HistogramMetric* GetHistogram(const std::string& name,
                                const Labels& labels = {});

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
  const std::map<std::string, Instrument<HistogramMetric>>& histograms() const {
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
  std::map<std::string, Instrument<HistogramMetric>> histograms_;
};

}  // namespace rhino::obs
