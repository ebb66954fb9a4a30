#include <gtest/gtest.h>

#include "metrics/resource_monitor.h"
#include "metrics/timeline.h"
#include "sim/cluster.h"
#include "sim/simulation.h"

namespace rhino::metrics {
namespace {

TEST(TimeSeriesTest, BucketsAggregate) {
  TimeSeries series(kSecond);
  series.Add(100, 10);
  series.Add(200, 20);
  series.Add(kSecond + 1, 100);
  auto buckets = series.Buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].count, 2u);
  EXPECT_DOUBLE_EQ(buckets[0].Mean(), 15.0);
  EXPECT_DOUBLE_EQ(buckets[0].min, 10.0);
  EXPECT_DOUBLE_EQ(buckets[0].max, 20.0);
  EXPECT_DOUBLE_EQ(buckets[1].Mean(), 100.0);
}

TEST(TimeSeriesTest, PeakMeanRespectsWindow) {
  TimeSeries series(kSecond);
  series.Add(0, 10);
  series.Add(5 * kSecond, 1000);
  series.Add(10 * kSecond, 50);
  EXPECT_DOUBLE_EQ(series.PeakMean(), 1000.0);
  EXPECT_DOUBLE_EQ(series.PeakMean(6 * kSecond), 50.0);
  EXPECT_DOUBLE_EQ(series.PeakMean(0, 2 * kSecond), 10.0);
}

TEST(ResourceMonitorTest, SamplesUtilizationDeltas) {
  sim::Simulation sim;
  sim::NodeSpec spec;
  spec.cores = 2;
  spec.net_bytes_per_sec = 1e9;
  spec.net_latency = 0;
  sim::Cluster cluster(&sim, 2, spec);
  ResourceMonitor monitor(&cluster, {0, 1}, kSecond);
  monitor.Start();

  // Busy the network for ~0.5 s out of the first second.
  cluster.Transfer(0, 1, 500000000ull);
  // And some CPU on node 0.
  cluster.node(0).AddCpuBusy(kSecond);

  sim.RunUntil(3 * kSecond);
  monitor.Stop();
  sim.Run();

  ASSERT_GE(monitor.samples().size(), 2u);
  const ResourceSample& first = monitor.samples()[0];
  // 0.5 s tx + 0.5 s rx over 2 nodes * 2 directions * 1 s = 25%.
  EXPECT_NEAR(first.net_util, 0.25, 0.02);
  // 1 s busy over 2 nodes * 2 cores = 25%.
  EXPECT_NEAR(first.cpu_util, 0.25, 0.02);
  EXPECT_EQ(first.net_bytes, 1000000000u);  // tx + rx
  // Second interval: idle again.
  EXPECT_NEAR(monitor.samples()[1].net_util, 0.0, 0.01);
}

TEST(ResourceMonitorTest, MemoryProbeIsIncluded) {
  sim::Simulation sim;
  sim::Cluster cluster(&sim, 1);
  ResourceMonitor monitor(&cluster, {0}, kSecond);
  monitor.SetMemoryProbe([] { return uint64_t{12345}; });
  monitor.Start();
  sim.RunUntil(kSecond);
  monitor.Stop();
  sim.Run();
  ASSERT_FALSE(monitor.samples().empty());
  EXPECT_EQ(monitor.samples()[0].memory_bytes, 12345u);
}

}  // namespace
}  // namespace rhino::metrics
