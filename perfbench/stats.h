#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file stats.h
/// The benchmark's own arithmetic, kept free of the runtime so it can be
/// tested on its own: the seeded open-loop schedule, percentiles with
/// their sample counts, latency charged from due times, the exactly-once
/// audit tally, and process clocks.

namespace perfbench {

/// SplitMix64: derives independent, reproducible streams from one seed.
uint64_t SplitMix64(uint64_t* state);

/// Reproducible uniform draws (xoshiro-free, just SplitMix64) so a seed
/// means the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return SplitMix64(&state_); }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Poisson arrivals conditioned on their count per second: second k holds
/// exactly floor((k+1)r) - floor(kr) arrivals at independent uniform times
/// — the order statistics of a Poisson process given its count. Timing
/// stays as bursty as Poisson's, but every whole second offers the same
/// load, so throughput over a window does not inherit the arrival
/// count's sampling noise. Due times are nanosecond offsets from the
/// schedule start and depend on the seed alone.
class PoissonSchedule {
 public:
  PoissonSchedule(uint64_t seed, double arrivals_per_s);
  /// Due time of the next arrival.
  int64_t NextDueNs();

 private:
  Rng rng_;
  double rate_;
  uint64_t second_ = 0;
  /// Due times of the current second, latest first.
  std::vector<int64_t> pending_;
};

/// A percentile with the evidence behind it. `supported` holds when at
/// least ten samples lie beyond the percentile, the rule below which a
/// tail figure is noise.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  bool supported = false;
};

/// Nearest-rank percentile, `q` in (0, 1).
Percentile PercentileOf(std::vector<double> samples, double q);

/// The highest of p50, p90, p99, p99.9 that the sample supports (p50 if
/// none does); `*q_out` receives which one.
Percentile HighestSupported(const std::vector<double>& samples, double* q_out);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Open-loop latency ledger. Batches are stamped with their due time when
/// generated; a completion charges every batch queued up to that moment
/// from its own due time, so a stall is charged to each batch behind it.
class LatencyLedger {
 public:
  /// A batch due at `due_ns` entered the queue.
  void Enqueue(int64_t due_ns, uint64_t records);
  /// Everything queued so far completed at `done_ns`. Returns the records
  /// completed.
  uint64_t CompleteAll(int64_t done_ns);
  /// Batches queued and not yet completed.
  size_t backlog() const { return queue_.size(); }
  /// Per-batch latencies charged so far, in milliseconds.
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  void ClearLatencies() { latencies_ms_.clear(); }

 private:
  struct Queued {
    int64_t due_ns;
    uint64_t records;
  };
  std::vector<Queued> queue_;
  std::vector<double> latencies_ms_;
};

/// Exactly-once audit tally: every checked key compares its observed
/// value with the generator's expectation.
struct Audit {
  uint64_t checked = 0;
  uint64_t lost = 0;        ///< records missing (observed < expected)
  uint64_t duplicated = 0;  ///< records counted twice (observed > expected)

  void Check(uint64_t expected, uint64_t observed);
  void Merge(const Audit& other);
  bool ok() const { return lost == 0 && duplicated == 0; }
  std::string ToString() const;
};

/// Clocks. Steady wall time, process CPU, and calling-thread CPU, all in
/// nanoseconds.
int64_t WallNs();
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();

/// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench
