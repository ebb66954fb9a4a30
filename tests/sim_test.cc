#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/cluster.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace rhino::sim {
namespace {

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulationTest, TiesBreakInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(5, [&] { order.push_back(1); });
  sim.Schedule(5, [&] { order.push_back(2); });
  sim.Schedule(5, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.Schedule(1, [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 2);

  // Run() follows a whole chain of events, each scheduling the next, not
  // only the events queued when it was called.
  int depth = 0;
  std::function<void()> step = [&] {
    if (++depth < 10) sim.Schedule(100, step);
  };
  sim.Schedule(0, step);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 2 + 9 * 100);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulationTest, PastDeadlinesClampToNow) {
  Simulation sim;
  sim.Schedule(10, [] {});
  sim.Run();
  EXPECT_EQ(sim.clamped_schedules(), 0u);
  int fired = 0;
  sim.ScheduleAt(5, [&] { ++fired; });  // in the past
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 10);
  EXPECT_EQ(sim.clamped_schedules(), 1u) << "every clamp is counted";
}

// ---- Scheduling contract --------------------------------------------------

/// The scheduling contract simulator code relies on when it calls the
/// kernel: FIFO at equal deadlines, past-deadline clamping, re-entrant
/// scheduling, and Run() covering future timers and nested work. The suite
/// keeps the parameterised `Backends/.../Sim` names it had when the
/// contract sat behind a backend interface; the kernel is its only
/// instantiation.
enum class Backend { kSim };

std::string BackendName(const ::testing::TestParamInfo<Backend>&) {
  return "Sim";
}

class ExecutorConformanceTest : public ::testing::TestWithParam<Backend> {
 protected:
  Simulation sim_;
};

TEST_P(ExecutorConformanceTest, NowStartsAtZeroAndIsMonotonic) {
  SimTime first = sim_.Now();
  EXPECT_EQ(first, 0);
  sim_.Schedule(1000, [] {});
  sim_.Run();
  EXPECT_GE(sim_.Now(), first);
  EXPECT_EQ(sim_.Now(), 1000);
}

TEST_P(ExecutorConformanceTest, SameDeadlineTasksOnOneQueueRunFifo) {
  std::vector<int> order;
  SimTime when = sim_.Now() + 2000;
  for (int i = 1; i <= 5; ++i) {
    sim_.ScheduleAt(when, [&order, i] { order.push_back(i); });
  }
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_P(ExecutorConformanceTest, DefaultQueueSerializesSchedules) {
  // Schedule and ScheduleAt feed one event queue, so equal delays keep
  // submission order.
  std::vector<int> order;
  for (int i = 1; i <= 5; ++i) {
    sim_.Schedule(1000, [&order, i] { order.push_back(i); });
  }
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST_P(ExecutorConformanceTest, EarlierDeadlineRunsFirstOnOneQueue) {
  std::vector<int> order;
  SimTime base = sim_.Now();
  sim_.ScheduleAt(base + 20000, [&order] { order.push_back(2); });
  sim_.ScheduleAt(base + 10000, [&order] { order.push_back(1); });
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_P(ExecutorConformanceTest, PastDeadlineClampsToNowAndCounts) {
  // Advance the clock off zero first so a "past" deadline exists.
  sim_.Schedule(2000, [] {});
  sim_.Run();
  EXPECT_EQ(sim_.clamped_schedules(), 0u);

  bool ran = false;
  sim_.ScheduleAt(sim_.Now() - 1000, [&ran] { ran = true; });
  sim_.Run();
  EXPECT_TRUE(ran) << "clamped tasks still run";
  EXPECT_EQ(sim_.Now(), 2000);
  EXPECT_EQ(sim_.clamped_schedules(), 1u);
}

TEST_P(ExecutorConformanceTest, CallbacksMayReenterSchedule) {
  int fired = 0;
  Simulation* s = &sim_;
  s->Schedule(0, [&fired, s] {
    ++fired;
    s->Schedule(0, [&fired] { ++fired; });
    s->ScheduleAt(s->Now(), [&fired] { ++fired; });
  });
  sim_.Run();
  EXPECT_EQ(fired, 3);
}

TEST_P(ExecutorConformanceTest, DrainWaitsForFutureTimers) {
  bool ran = false;
  sim_.Schedule(20000, [&ran] { ran = true; });  // 20 ms out
  sim_.Run();
  EXPECT_TRUE(ran) << "Run must include timers scheduled in the future";
}

TEST_P(ExecutorConformanceTest, DrainWaitsForNestedChains) {
  // A chain of tasks, each scheduling the next: Run must follow the whole
  // chain, not just the tasks queued when it was called.
  int depth = 0;
  Simulation* s = &sim_;
  std::function<void()> step = [&depth, s, &step] {
    if (++depth < 10) s->Schedule(100, step);
  };
  s->Schedule(0, step);
  sim_.Run();
  EXPECT_EQ(depth, 10);
}

TEST_P(ExecutorConformanceTest, RunUntilAdvancesTheClock) {
  bool ran = false;
  sim_.Schedule(1000, [&ran] { ran = true; });
  sim_.RunUntil(sim_.Now() + 5000);
  sim_.Run();
  EXPECT_TRUE(ran);
  EXPECT_GE(sim_.Now(), 5000);
}

INSTANTIATE_TEST_SUITE_P(Backends, ExecutorConformanceTest,
                         ::testing::Values(Backend::kSim), BackendName);

TEST(QueueResourceTest, SerializesRequests) {
  Simulation sim;
  QueueResource q(&sim, "disk", 1e6);  // 1 MB/s
  SimTime end1 = q.Submit(500000);     // 0.5 s
  SimTime end2 = q.Submit(500000);     // queued behind the first
  EXPECT_EQ(end1, kSecond / 2);
  EXPECT_EQ(end2, kSecond);
  EXPECT_EQ(q.busy_us(), kSecond);
  EXPECT_EQ(q.bytes_served(), 1000000u);
}

TEST(QueueResourceTest, CallbackFiresAtCompletion) {
  Simulation sim;
  QueueResource q(&sim, "disk", 1e6);
  SimTime completed = -1;
  q.Submit(1000000, [&] { completed = sim.Now(); });
  sim.Run();
  EXPECT_EQ(completed, kSecond);
}

TEST(QueueResourceTest, IdleGapsDoNotAccumulateBusyTime) {
  Simulation sim;
  QueueResource q(&sim, "disk", 1e6);
  q.Submit(100000);  // 0.1 s busy
  sim.Schedule(kSecond, [] {});
  sim.Run();  // 0.9 s idle
  q.Submit(100000);
  EXPECT_EQ(q.busy_us(), 200 * kMillisecond);
}

TEST(NetworkTransferTest, OccupiesBothEndpoints) {
  Simulation sim;
  QueueResource tx(&sim, "tx", 1e9);
  QueueResource rx(&sim, "rx", 1e9);
  SimTime done = -1;
  NetworkTransfer(&tx, &rx, 1000000000ull, /*latency=*/100,
                  [&] { done = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done, kSecond + 100);
  EXPECT_EQ(tx.busy_us(), kSecond);
  EXPECT_EQ(rx.busy_us(), kSecond);
}

TEST(NetworkTransferTest, BottleneckIsSlowerSide) {
  Simulation sim;
  QueueResource tx(&sim, "tx", 2e9);
  QueueResource rx(&sim, "rx", 1e9);  // slower receiver
  SimTime end = NetworkTransfer(&tx, &rx, 1000000000ull, 0);
  EXPECT_EQ(end, kSecond);
}

TEST(NetworkTransferTest, ConcurrentTransfersToDistinctReceiversQueueOnTx) {
  Simulation sim;
  QueueResource tx(&sim, "tx", 1e9);
  QueueResource rx1(&sim, "rx1", 1e9);
  QueueResource rx2(&sim, "rx2", 1e9);
  SimTime end1 = NetworkTransfer(&tx, &rx1, 500000000ull, 0);
  SimTime end2 = NetworkTransfer(&tx, &rx2, 500000000ull, 0);
  EXPECT_EQ(end1, kSecond / 2);
  EXPECT_EQ(end2, kSecond);  // serialized on the sender NIC
}

TEST(ClusterTest, NodesHaveSpecResources) {
  Simulation sim;
  NodeSpec spec;
  spec.num_disks = 2;
  Cluster cluster(&sim, 4, spec);
  EXPECT_EQ(cluster.num_nodes(), 4);
  EXPECT_EQ(cluster.node(0).num_disks(), 2);
  EXPECT_TRUE(cluster.node(3).alive());
}

TEST(ClusterTest, LocalTransferIsFree) {
  Simulation sim;
  Cluster cluster(&sim, 2);
  SimTime end = cluster.Transfer(0, 0, kGiB);
  EXPECT_EQ(end, 0);
  EXPECT_EQ(cluster.node(0).tx().busy_us(), 0);
}

TEST(ClusterTest, RemoteTransferUsesNics) {
  Simulation sim;
  NodeSpec spec;
  spec.net_bytes_per_sec = 1e9;
  spec.net_latency = 0;
  Cluster cluster(&sim, 2, spec);
  SimTime end = cluster.Transfer(0, 1, 1000000000ull);
  EXPECT_EQ(end, kSecond);
  EXPECT_GT(cluster.node(0).tx().busy_us(), 0);
  EXPECT_GT(cluster.node(1).rx().busy_us(), 0);
}

TEST(ClusterTest, FailNodeFlipsLiveness) {
  Simulation sim;
  Cluster cluster(&sim, 3);
  cluster.FailNode(1);
  EXPECT_FALSE(cluster.node(1).alive());
  EXPECT_TRUE(cluster.node(0).alive());
}

TEST(ClusterTest, MemoryAccountingEnforcesBudget) {
  Simulation sim;
  NodeSpec spec;
  spec.memory_bytes = 1000;
  Cluster cluster(&sim, 1, spec);
  Node& n = cluster.node(0);
  EXPECT_TRUE(n.AllocateMemory(600));
  EXPECT_FALSE(n.AllocateMemory(600));  // would exceed the 1000-byte budget
  n.FreeMemory(600);
  EXPECT_TRUE(n.AllocateMemory(600));
}

TEST(ClusterTest, DiskReadWriteHaveIndependentQueues) {
  Simulation sim;
  NodeSpec spec;
  spec.disk_read_bytes_per_sec = 2e9;
  spec.disk_write_bytes_per_sec = 1e9;
  Cluster cluster(&sim, 1, spec);
  Disk& d = cluster.node(0).disk(0);
  SimTime r = d.Read(2000000000ull);
  SimTime w = d.Write(1000000000ull);
  EXPECT_EQ(r, kSecond);
  EXPECT_EQ(w, kSecond);  // not queued behind the read
}

}  // namespace
}  // namespace rhino::sim
