#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/observability.h"
#include "sim/retry.h"

/// The simulator's retry ladder: attempt budget, jittered doubling backoff
/// under a cap, deadline, re-arming, and where the attempts are counted.

namespace rhino::sim {
namespace {

constexpr SimTime kBase = 1000;
constexpr SimTime kCap = 10000;

/// Unbounded attempts, no deadline: 1 ms doubling up to 10 ms.
RetryOptions Ladder() {
  RetryOptions o;
  o.initial_backoff_us = kBase;
  o.max_backoff_us = kCap;
  o.max_attempts = 0;
  o.deadline_us = 0;
  return o;
}

uint64_t Attempts(obs::Observability* obs, const std::string& what) {
  return obs->metrics()
      .GetCounter("rhino_retry_attempts_total", {{"what", what}})
      ->value();
}

TEST(RetrierTest, MaxAttemptsBoundsTheRetries) {
  obs::Observability obs;
  RetryOptions options = Ladder();
  options.max_attempts = 4;
  Retrier retrier(0, options, 1, "test", &obs);
  SimTime delay = 0;
  int granted = 0;
  while (retrier.NextBackoff(0, &delay)) ++granted;
  EXPECT_EQ(granted, 3) << "four tries are the first and three retries";
  EXPECT_EQ(retrier.retries(), 3);
  EXPECT_FALSE(retrier.NextBackoff(0, &delay)) << "stays exhausted";
}

TEST(RetrierTest, DelaysDoubleWithinJitterAndStopGrowingAtTheCap) {
  obs::Observability obs;
  Retrier retrier(0, Ladder(), 7, "test", &obs);
  Retrier same_seed(0, Ladder(), 7, "test", &obs);
  std::vector<SimTime> nominal = {kBase,     2 * kBase, 4 * kBase, 8 * kBase,
                                  kCap,      kCap,      kCap};
  for (SimTime expected : nominal) {
    SimTime delay = 0;
    ASSERT_TRUE(retrier.NextBackoff(0, &delay));
    // +-20% of the nominal step, which never exceeds the cap.
    EXPECT_GE(delay, expected * 8 / 10) << "nominal " << expected;
    EXPECT_LE(delay, expected * 12 / 10) << "nominal " << expected;
    SimTime twin = 0;
    ASSERT_TRUE(same_seed.NextBackoff(0, &twin));
    EXPECT_EQ(delay, twin) << "equal seeds draw equal delays";
  }
}

TEST(RetrierTest, ExhaustedIsTimedOutPastTheDeadlineElseKeepsTheLastCode) {
  obs::Observability obs;
  RetryOptions options = Ladder();
  options.deadline_us = 5000;
  const SimTime start = 100;
  Retrier retrier(start, options, 1, "test", &obs);
  SimTime delay = 0;
  EXPECT_TRUE(retrier.NextBackoff(start + 4999, &delay));
  EXPECT_FALSE(retrier.NextBackoff(start + 5000, &delay))
      << "no retry once the deadline has passed";

  Status io = Status::IOError("disk");
  Status before = retrier.Exhausted(start + 4999, io);
  EXPECT_EQ(before.code(), StatusCode::kIOError) << before.ToString();
  EXPECT_NE(before.ToString().find("test gave up after 2 attempts"),
            std::string::npos)
      << before.ToString();
  EXPECT_EQ(retrier.Exhausted(start + 5000, io).code(), StatusCode::kTimedOut);
  EXPECT_EQ(retrier.Exhausted(start, Status::OK()).code(),
            StatusCode::kTimedOut)
      << "no last error reads as a timeout";

  Retrier no_deadline(0, Ladder(), 1, "test", &obs);
  EXPECT_EQ(no_deadline.Exhausted(1'000'000'000, io).code(),
            StatusCode::kIOError);
}

TEST(RetrierTest, ArmResetsTheLadder) {
  obs::Observability obs;
  RetryOptions options = Ladder();
  options.max_attempts = 3;
  options.deadline_us = 5000;
  Retrier retrier(0, options, 3, "test", &obs);
  SimTime delay = 0;
  ASSERT_TRUE(retrier.NextBackoff(0, &delay));
  ASSERT_TRUE(retrier.NextBackoff(0, &delay));
  EXPECT_GE(delay, 2 * kBase * 8 / 10);
  EXPECT_FALSE(retrier.NextBackoff(0, &delay));

  retrier.Arm(10000);  // past the first deadline
  EXPECT_EQ(retrier.retries(), 0);
  ASSERT_TRUE(retrier.NextBackoff(10000, &delay)) << "budget restored";
  EXPECT_GE(delay, kBase * 8 / 10) << "back to the first step";
  EXPECT_LE(delay, kBase * 12 / 10) << "back to the first step";
  EXPECT_FALSE(retrier.NextBackoff(15000, &delay))
      << "the deadline runs from the re-arm";
}

TEST(RetrierTest, AttemptsAreCountedInThePassedRegistry) {
  obs::Observability obs;
  obs::Observability* process_wide = obs::Observability::Default();
  const std::string what = "retrier_test_registry";
  uint64_t process_wide_before = Attempts(process_wide, what);
  Retrier retrier(0, Ladder(), 1, what, &obs);
  SimTime delay = 0;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(retrier.NextBackoff(0, &delay));
  EXPECT_EQ(Attempts(&obs, what), 3u);
  EXPECT_EQ(Attempts(process_wide, what), process_wide_before);
}

}  // namespace
}  // namespace rhino::sim
