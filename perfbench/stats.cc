#include "stats.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <sys/resource.h>
#include <functional>
#include <numeric>
#include <sstream>

namespace perfbench {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t n) {
  // Lemire's multiply-shift; the bias is below 2^-32 for the key spaces
  // used here, far under anything the audit could notice.
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

PoissonSchedule::PoissonSchedule(uint64_t seed, double arrivals_per_s)
    : rng_(seed), rate_(arrivals_per_s) {}

int64_t PoissonSchedule::NextDueNs() {
  while (pending_.empty()) {
    const auto count = static_cast<uint64_t>(
        std::floor(static_cast<double>(second_ + 1) * rate_) -
        std::floor(static_cast<double>(second_) * rate_));
    const int64_t base = static_cast<int64_t>(second_) * 1'000'000'000;
    for (uint64_t i = 0; i < count; ++i) {
      pending_.push_back(base +
                         static_cast<int64_t>(rng_.Below(1'000'000'000)));
    }
    std::sort(pending_.begin(), pending_.end(), std::greater<int64_t>());
    ++second_;
  }
  const int64_t due = pending_.back();
  pending_.pop_back();
  return due;
}

Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.supported = samples.size() - rank >= 10;
  return p;
}

Percentile HighestSupported(const std::vector<double>& samples,
                            double* q_out) {
  double best_q = 0.5;
  Percentile best = PercentileOf(samples, 0.5);
  for (double q : {0.9, 0.99, 0.999}) {
    Percentile p = PercentileOf(samples, q);
    if (!p.supported) break;
    best = p;
    best_q = q;
  }
  if (q_out != nullptr) *q_out = best_q;
  return best;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

void LatencyLedger::Enqueue(int64_t due_ns, uint64_t records) {
  queue_.push_back(Queued{due_ns, records});
}

uint64_t LatencyLedger::CompleteAll(int64_t done_ns) {
  uint64_t records = 0;
  for (const Queued& q : queue_) {
    latencies_ms_.push_back(static_cast<double>(done_ns - q.due_ns) / 1e6);
    records += q.records;
  }
  queue_.clear();
  return records;
}

void Audit::Check(uint64_t expected, uint64_t observed) {
  ++checked;
  if (observed < expected) lost += expected - observed;
  if (observed > expected) duplicated += observed - expected;
}

void Audit::Merge(const Audit& other) {
  checked += other.checked;
  lost += other.lost;
  duplicated += other.duplicated;
}

std::string Audit::ToString() const {
  std::ostringstream out;
  out << checked << " keys checked, " << lost << " records lost, "
      << duplicated << " duplicated";
  return out.str();
}

namespace {
int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
