#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/executor.h"
#include "runtime/sim_executor.h"

/// Conformance suite for the Executor contract (executor.h), run against
/// each backend; `SimExecutor` is the only one. Everything asserted here is
/// backend-independent: FIFO within one queue at equal deadlines,
/// past-deadline clamping, re-entrant scheduling, and Drain covering
/// future timers and nested work. Ordering ACROSS queues at equal
/// deadlines is the sim backend's own refinement, tested apart.

namespace rhino::runtime {
namespace {

enum class Backend { kSim };

std::string BackendName(const ::testing::TestParamInfo<Backend>&) {
  return "Sim";
}

class ExecutorConformanceTest : public ::testing::TestWithParam<Backend> {
 protected:
  ExecutorConformanceTest() : executor_(std::make_unique<SimExecutor>()) {}

  Executor& exec() { return *executor_; }

  std::unique_ptr<Executor> executor_;
};

TEST_P(ExecutorConformanceTest, NowStartsAtZeroAndIsMonotonic) {
  SimTime first = exec().Now();
  EXPECT_GE(first, 0);
  exec().Schedule(1000, [] {});
  exec().Drain();
  EXPECT_GE(exec().Now(), first);
}

TEST_P(ExecutorConformanceTest, SameDeadlineTasksOnOneQueueRunFifo) {
  TaskQueue* q = exec().CreateQueue("strand");
  std::vector<int> order;
  SimTime when = exec().Now() + 2000;
  for (int i = 1; i <= 5; ++i) {
    q->PostAt(when, [&order, i] { order.push_back(i); });
  }
  exec().Drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_P(ExecutorConformanceTest, DefaultQueueSerializesSchedules) {
  // Schedule/ScheduleAt target one serial queue, so equal delays keep
  // submission order.
  std::vector<int> order;
  for (int i = 1; i <= 5; ++i) {
    exec().Schedule(1000, [&order, i] { order.push_back(i); });
  }
  exec().Drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_P(ExecutorConformanceTest, EarlierDeadlineRunsFirstOnOneQueue) {
  TaskQueue* q = exec().CreateQueue("strand");
  std::vector<int> order;
  SimTime base = exec().Now();
  q->PostAt(base + 20000, [&order] { order.push_back(2); });
  q->PostAt(base + 10000, [&order] { order.push_back(1); });
  exec().Drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_P(ExecutorConformanceTest, PastDeadlineClampsToNowAndCounts) {
  // Advance the clock off zero first so a "past" deadline exists.
  exec().Schedule(2000, [] {});
  exec().Drain();
  EXPECT_EQ(exec().clamped_schedules(), 0u);

  bool ran = false;
  exec().ScheduleAt(exec().Now() - 1000, [&ran] { ran = true; });
  exec().Drain();
  EXPECT_TRUE(ran) << "clamped tasks still run";
  EXPECT_GE(exec().clamped_schedules(), 1u);
}

TEST_P(ExecutorConformanceTest, CallbacksMayReenterSchedule) {
  int fired = 0;
  Executor* e = &exec();
  TaskQueue* q = e->CreateQueue("strand");
  e->Schedule(0, [&fired, e, q] {
    ++fired;
    e->Schedule(0, [&fired] { ++fired; });  // own queue, re-entrant
    q->Post([&fired] { ++fired; });         // another queue
  });
  exec().Drain();
  EXPECT_EQ(fired, 3);
}

TEST_P(ExecutorConformanceTest, DrainWaitsForFutureTimers) {
  bool ran = false;
  exec().Schedule(20000, [&ran] { ran = true; });  // 20 ms out
  exec().Drain();
  EXPECT_TRUE(ran) << "Drain must include timers scheduled in the future";
}

TEST_P(ExecutorConformanceTest, DrainWaitsForNestedChains) {
  // A chain of tasks, each scheduling the next: Drain must follow the
  // whole chain, not just the tasks queued when it was called.
  int depth = 0;
  Executor* e = &exec();
  std::function<void()> step = [&depth, e, &step] {
    if (++depth < 10) e->Schedule(100, step);
  };
  e->Schedule(0, step);
  exec().Drain();
  EXPECT_EQ(depth, 10);
}

TEST_P(ExecutorConformanceTest, QueuesDoNotStarveEachOther) {
  TaskQueue* a = exec().CreateQueue("a");
  TaskQueue* b = exec().CreateQueue("b");
  int ran = 0;
  for (int i = 0; i < 100; ++i) {
    a->Post([&ran] { ++ran; });
    b->Post([&ran] { ++ran; });
  }
  exec().Drain();
  EXPECT_EQ(ran, 200);
}

TEST_P(ExecutorConformanceTest, RunUntilAdvancesTheClock) {
  bool ran = false;
  exec().Schedule(1000, [&ran] { ran = true; });
  exec().RunUntil(exec().Now() + 5000);
  exec().Drain();
  EXPECT_TRUE(ran);
  EXPECT_GE(exec().Now(), 5000);
}

INSTANTIATE_TEST_SUITE_P(Backends, ExecutorConformanceTest,
                         ::testing::Values(Backend::kSim), BackendName);

// ---- Backend-specific guarantees -----------------------------------------

TEST(SimExecutorTest, CrossQueueOrderIsGlobalSubmissionOrder) {
  // The sim backend refines the contract: equal-deadline tasks interleave
  // in exact submission order even across queues (one kernel, one
  // sequence counter) — this is what keeps ported experiments bit-exact.
  SimExecutor exec;
  TaskQueue* a = exec.CreateQueue("a");
  TaskQueue* b = exec.CreateQueue("b");
  std::vector<int> order;
  a->PostAt(10, [&order] { order.push_back(1); });
  b->PostAt(10, [&order] { order.push_back(2); });
  a->PostAt(10, [&order] { order.push_back(3); });
  exec.Drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace rhino::runtime
