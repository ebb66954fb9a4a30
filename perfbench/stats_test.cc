#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  PoissonSchedule a(42, 200.0);
  PoissonSchedule b(42, 200.0);
  PoissonSchedule c(43, 200.0);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t due = a.NextDueNs();
    EXPECT_EQ(due, b.NextDueNs());
    differs = differs || due != c.NextDueNs();
  }
  EXPECT_TRUE(differs);
}

TEST(PoissonScheduleTest, EverySecondOffersTheSameLoad) {
  PoissonSchedule schedule(7, 10.0);
  std::vector<int> per_second(100, 0);
  int64_t last = 0;
  double gap_sum_s = 0;
  for (int i = 0; i < 1000; ++i) {
    const int64_t due = schedule.NextDueNs();
    ASSERT_GE(due, last);
    gap_sum_s += static_cast<double>(due - last) / 1e9;
    last = due;
    ++per_second[static_cast<size_t>(due / 1'000'000'000)];
  }
  for (int count : per_second) EXPECT_EQ(count, 10);
  // 1000 arrivals over 100 s: the mean gap is 0.1 s up to the last
  // arrival's distance from the end of its second.
  EXPECT_NEAR(gap_sum_s / 1000, 0.1, 0.001);
}

TEST(PoissonScheduleTest, FractionalRatesCarryOver) {
  PoissonSchedule schedule(3, 2.5);
  std::vector<int> per_second(4, 0);
  for (int i = 0; i < 10; ++i) {
    ++per_second[static_cast<size_t>(schedule.NextDueNs() / 1'000'000'000)];
  }
  EXPECT_EQ(per_second, (std::vector<int>{2, 3, 2, 3}));
}

TEST(PoissonScheduleTest, GapsAreExponentialLike) {
  // Within a second the gaps are uniform spacings: their coefficient of
  // variation is close to 1, as for exponential gaps (a fixed-rate
  // schedule would give 0).
  PoissonSchedule schedule(11, 200.0);
  std::vector<double> gaps;
  int64_t last = schedule.NextDueNs();
  for (int i = 0; i < 20'000; ++i) {
    const int64_t due = schedule.NextDueNs();
    gaps.push_back(static_cast<double>(due - last));
    last = due;
  }
  const double mean = Mean(gaps);
  double var = 0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  const double cv = std::sqrt(var / static_cast<double>(gaps.size())) / mean;
  EXPECT_NEAR(mean / 1e6, 5.0, 0.05);
  EXPECT_NEAR(cv, 1.0, 0.05);
}

TEST(RngTest, BelowStaysInRangeAndIsReproducible) {
  Rng a(5);
  Rng b(5);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t v = a.Below(10);
    ASSERT_LT(v, 10u);
    EXPECT_EQ(v, b.Below(10));
    ++seen[v];
  }
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(PercentileTest, NearestRankWithCount) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Percentile p50 = PercentileOf(v, 0.5);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_TRUE(p50.supported);
  Percentile p90 = PercentileOf(v, 0.9);
  EXPECT_EQ(p90.value, 90);
  EXPECT_TRUE(p90.supported);  // exactly ten samples beyond
  Percentile p99 = PercentileOf(v, 0.99);
  EXPECT_EQ(p99.value, 99);
  EXPECT_FALSE(p99.supported);  // one sample beyond
}

TEST(PercentileTest, HighestSupportedNeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 0; i < 999; ++i) v.push_back(i);
  double q = 0;
  Percentile p = HighestSupported(v, &q);
  EXPECT_EQ(q, 0.9);  // p99 has only 9 samples beyond it
  EXPECT_EQ(p.samples, 999u);
  v.push_back(999);
  p = HighestSupported(v, &q);
  EXPECT_EQ(q, 0.99);  // 1000 samples: 10 beyond p99
  EXPECT_EQ(p.value, 989);

  double q_small = 0;
  Percentile small = HighestSupported({1, 2, 3}, &q_small);
  EXPECT_EQ(q_small, 0.5);
  EXPECT_FALSE(small.supported);
  EXPECT_EQ(small.samples, 3u);
}

TEST(PercentileTest, EmptySample) {
  Percentile p = PercentileOf({}, 0.5);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_FALSE(p.supported);
  EXPECT_EQ(Median({}), 0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Mean({1, 2, 3, 6}), 3);
}

TEST(LatencyLedgerTest, StallIsChargedToEveryQueuedBatch) {
  LatencyLedger ledger;
  // Three batches due 1 ms apart queue up behind a stall; one completion
  // at t = 10 ms charges each from its own due time.
  ledger.Enqueue(1'000'000, 250);
  ledger.Enqueue(2'000'000, 250);
  ledger.Enqueue(3'000'000, 100);
  EXPECT_EQ(ledger.backlog(), 3u);
  EXPECT_EQ(ledger.CompleteAll(10'000'000), 600u);
  EXPECT_EQ(ledger.backlog(), 0u);
  ASSERT_EQ(ledger.latencies_ms().size(), 3u);
  EXPECT_DOUBLE_EQ(ledger.latencies_ms()[0], 9.0);
  EXPECT_DOUBLE_EQ(ledger.latencies_ms()[1], 8.0);
  EXPECT_DOUBLE_EQ(ledger.latencies_ms()[2], 7.0);

  // Nothing queued: a completion charges nothing.
  EXPECT_EQ(ledger.CompleteAll(11'000'000), 0u);
  EXPECT_EQ(ledger.latencies_ms().size(), 3u);
  ledger.ClearLatencies();
  EXPECT_TRUE(ledger.latencies_ms().empty());
}

TEST(AuditTest, CountsLostAndDuplicatedRecords) {
  Audit audit;
  audit.Check(5, 5);
  EXPECT_TRUE(audit.ok());
  audit.Check(5, 3);  // two lost
  audit.Check(2, 4);  // two duplicated
  audit.Check(0, 1);  // one duplicated
  EXPECT_EQ(audit.checked, 4u);
  EXPECT_EQ(audit.lost, 2u);
  EXPECT_EQ(audit.duplicated, 3u);
  EXPECT_FALSE(audit.ok());

  Audit other;
  other.Check(1, 1);
  EXPECT_TRUE(other.ok());
  other.Merge(audit);
  EXPECT_EQ(other.checked, 5u);
  EXPECT_EQ(other.lost, 2u);
  EXPECT_EQ(other.duplicated, 3u);
  EXPECT_FALSE(other.ok());
}

TEST(ClockTest, ClocksAdvance) {
  const int64_t wall = WallNs();
  const int64_t cpu = ThreadCpuNs();
  volatile double sink = 0;
  for (int i = 0; i < 1'000'000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GT(WallNs(), wall);
  EXPECT_GT(ThreadCpuNs(), cpu);
  EXPECT_GE(ProcessCpuNs(), ThreadCpuNs() - cpu);
  EXPECT_GT(PeakRssMb(), 0);
}

}  // namespace
}  // namespace perfbench
