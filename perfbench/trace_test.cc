#include "trace.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

using rhino::net::MessageType;

TEST(WireCounterTest, CountsBytesPerVerb) {
  WireCounter counter;
  counter.Add(MessageType::kProcessBatch, 100);
  counter.Add(MessageType::kProcessBatch, 20);
  counter.Add(MessageType::kReplicateState, 7);
  const WireCounter::Totals totals = counter.Read();
  EXPECT_EQ(totals[static_cast<size_t>(MessageType::kProcessBatch)], 120u);
  EXPECT_EQ(totals[static_cast<size_t>(MessageType::kReplicateState)], 7u);
  EXPECT_EQ(totals[static_cast<size_t>(MessageType::kCheckpoint)], 0u);
}

TEST(WireCounterTest, RuntimeBytesLeaveOutStatsPolls) {
  WireCounter counter;
  counter.Add(MessageType::kProcessBatch, 5);
  const WireCounter::Totals before = counter.Read();
  counter.Add(MessageType::kExtractVnodes, 300);
  counter.Add(MessageType::kIngestVnodes, 40);
  counter.Add(MessageType::kStats, 1000);  // the benchmark's own polls
  EXPECT_EQ(RuntimeBytes(before, counter.Read()), 340u);
  EXPECT_EQ(RuntimeBytes(before, before), 0u);
}

}  // namespace
}  // namespace perfbench
