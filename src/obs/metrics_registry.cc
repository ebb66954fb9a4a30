#include "obs/metrics_registry.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace rhino::obs {

size_t Histogram::BucketOf(int64_t v) {
  if (v < 128) return v < 0 ? 0 : static_cast<size_t>(v);
  if (v >= kCap) return kBuckets - 1;
  // v in [2^msb, 2^(msb+1)), msb >= 7: its top 7 bits pick one of the
  // power's 64 buckets.
  const int msb = std::bit_width(static_cast<uint64_t>(v)) - 1;
  const int shift = msb - 6;
  return 128 + static_cast<size_t>(msb - 7) * 64 +
         static_cast<size_t>((v >> shift) - 64);
}

int64_t Histogram::Midpoint(size_t bucket) {
  if (bucket < 128) return static_cast<int64_t>(bucket);
  // BucketOf inverted: the bucket holds [(64 + s) << shift,
  // (65 + s) << shift), s its index within its power of two.
  const size_t j = bucket - 128;
  const int shift = static_cast<int>(j / 64) + 1;
  const int64_t low = static_cast<int64_t>(64 + j % 64) << shift;
  return low + ((int64_t{1} << shift) - 1) / 2;
}

double Histogram::Mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

int64_t Histogram::Min() const {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

int64_t Histogram::Max() const {
  return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
}

int64_t Histogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  const int64_t lo = min_.load(std::memory_order_relaxed);
  const int64_t hi = max_.load(std::memory_order_relaxed);
  if (p <= 0) return lo;
  if (p >= 100) return hi;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) return std::clamp(Midpoint(b), lo, hi);
  }
  return hi;
}

std::string MetricsRegistry::KeyOf(const std::string& name,
                                   const Labels& labels) {
  if (labels.empty()) return name;
  std::string key = name + "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) key += ",";
    first = false;
    key += k + "=\"" + v + "\"";
  }
  key += "}";
  return key;
}

template <typename T>
T* MetricsRegistry::GetOrCreate(std::map<std::string, Instrument<T>>* family,
                                const std::string& name, const Labels& labels) {
  std::string key = KeyOf(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  // try_emplace default-constructs in place: instruments hold atomics,
  // which cannot be copied into the map.
  auto [it, inserted] = family->try_emplace(std::move(key));
  if (inserted) {
    it->second.name = name;
    it->second.labels = labels;
  }
  return &it->second.metric;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  return GetOrCreate(&counters_, name, labels);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const Labels& labels) {
  return GetOrCreate(&gauges_, name, labels);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  return GetOrCreate(&histograms_, name, labels);
}

}  // namespace rhino::obs
