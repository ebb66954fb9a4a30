#include <gtest/gtest.h>

#include "broker/broker.h"
#include "nexmark/nexmark.h"
#include "sim/simulation.h"

namespace rhino::nexmark {
namespace {

TEST(GeneratorTest, ProducesAtConfiguredRate) {
  sim::Simulation sim;
  broker::Broker broker({0});
  broker::Topic& topic = broker.CreateTopic("bids", 4);
  GeneratorOptions options;
  options.tick = kSecond;
  options.bytes_per_sec = 1e6;
  options.record_bytes = kBidBytes;
  NexmarkGenerator gen(&sim, &topic, options);
  gen.Start();
  sim.RunUntil(10 * kSecond);
  gen.Stop();
  sim.Run();

  // 10 ticks x 4 partitions x 1 MB.
  EXPECT_EQ(gen.bytes_generated(), 40u * 1000000u);
  EXPECT_EQ(topic.partition(0).end_offset(), 10u);
  const broker::LogEntry* entry = topic.partition(0).Fetch(0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->batch.bytes, 1000000u);
  EXPECT_EQ(entry->batch.count, 1000000u / kBidBytes);
}

TEST(GeneratorTest, RateFactorModulatesOutput) {
  sim::Simulation sim;
  broker::Broker broker({0});
  broker::Topic& topic = broker.CreateTopic("bids", 1);
  GeneratorOptions options;
  options.tick = kSecond;
  options.bytes_per_sec = 1e6;
  options.rate_factor = [](SimTime t) { return t <= 5 * kSecond ? 1.0 : 0.5; };
  NexmarkGenerator gen(&sim, &topic, options);
  gen.Start();
  sim.RunUntil(10 * kSecond);
  gen.Stop();
  sim.Run();
  // 5 full-rate ticks + 5 half-rate ticks.
  EXPECT_EQ(gen.bytes_generated(), 5u * 1000000u + 5u * 500000u);
}

TEST(GeneratorTest, RealRecordsCarryKeysAndSizes) {
  sim::Simulation sim;
  broker::Broker broker({0});
  broker::Topic& topic = broker.CreateTopic("bids", 1);
  GeneratorOptions options;
  options.tick = kSecond;
  options.bytes_per_sec = 3200;  // 100 records/tick
  options.record_bytes = kBidBytes;
  options.real_records = true;
  options.key_space = 50;
  NexmarkGenerator gen(&sim, &topic, options);
  gen.Start();
  sim.RunUntil(kSecond);
  gen.Stop();
  sim.Run();
  const broker::LogEntry* entry = topic.partition(0).Fetch(0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->batch.records.size(), entry->batch.count);
  for (const auto& r : entry->batch.records) {
    EXPECT_LT(r.key, 50u);
    EXPECT_EQ(r.size, kBidBytes);
  }
}

TEST(QueryBuilderTest, NBQ5Shape) {
  QueryConfig config;
  auto def = BuildNBQ5(config);
  EXPECT_EQ(def.name, "NBQ5");
  ASSERT_EQ(def.ops.size(), 3u);
  EXPECT_EQ(def.ops[0].topic, "bids");
  EXPECT_EQ(def.ops[1].name, "nbq5-agg");
  EXPECT_EQ(def.ops[1].parallelism, config.stateful_parallelism);
  EXPECT_EQ(def.ops[1].inputs, std::vector<std::string>{"bids-src"});
}

TEST(QueryBuilderTest, NBQ8JoinsTwoStreams) {
  QueryConfig config;
  auto def = BuildNBQ8(config);
  ASSERT_EQ(def.ops.size(), 4u);
  EXPECT_EQ(def.ops[2].name, "nbq8-join");
  EXPECT_EQ(def.ops[2].inputs,
            (std::vector<std::string>{"auctions-src", "persons-src"}));
}

TEST(QueryBuilderTest, NBQXHasFiveStatefulSubQueries) {
  QueryConfig config;
  auto def = BuildNBQX(config);
  int stateful = 0;
  for (const auto& op : def.ops) {
    if (op.kind == dataflow::OpDef::Kind::kStateful) ++stateful;
  }
  EXPECT_EQ(stateful, 5);
  EXPECT_EQ(StatefulOpsOf("NBQX").size(), 5u);
}

TEST(QueryBuilderTest, StatefulOpsAreConsistentWithBuilders) {
  EXPECT_EQ(StatefulOpsOf("NBQ5"), std::vector<std::string>{"nbq5-agg"});
  EXPECT_EQ(StatefulOpsOf("NBQ8"), std::vector<std::string>{"nbq8-join"});
}

TEST(RecordSizesTest, MatchPaper) {
  EXPECT_EQ(kPersonBytes, 206u);
  EXPECT_EQ(kAuctionBytes, 269u);
  EXPECT_EQ(kBidBytes, 32u);
}

}  // namespace
}  // namespace rhino::nexmark
