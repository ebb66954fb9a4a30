#include <gtest/gtest.h>

#include <string>

#include "dfs/dfs.h"
#include "obs/observability.h"
#include "sim/cluster.h"
#include "sim/simulation.h"

namespace rhino::dfs {
namespace {

sim::NodeSpec Spec() {
  sim::NodeSpec spec;
  spec.net_bytes_per_sec = 1e9;
  spec.disk_read_bytes_per_sec = 2e9;
  spec.disk_write_bytes_per_sec = 1e9;
  spec.net_latency = 0;
  return spec;
}

class DfsTest : public ::testing::Test {
 protected:
  DfsTest() : cluster_(&sim_, 4, Spec()), dfs_(&cluster_, {0, 1, 2, 3}) {}
  sim::Simulation sim_;
  sim::Cluster cluster_;
  DistributedFileSystem dfs_;
};

TEST_F(DfsTest, WriteCreatesReplicatedBlocks) {
  bool done = false;
  dfs_.WriteFile("/f", 300 * kMiB, 0, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(dfs_.Exists("/f"));
  EXPECT_EQ(dfs_.FileBytes("/f").value(), 300 * kMiB);
  EXPECT_EQ(dfs_.bytes_written(), 300 * kMiB);
}

TEST_F(DfsTest, LocalReadIsDiskOnly) {
  dfs_.RegisterFile("/f", 256 * kMiB, 1);
  SimTime completed = 0;
  dfs_.ReadFile("/f", 1, [&](Status st) {
    EXPECT_TRUE(st.ok());
    completed = sim_.Now();
  });
  sim_.Run();
  EXPECT_GT(dfs_.local_bytes_read(), 0u);
  EXPECT_EQ(dfs_.remote_bytes_read(), 0u);
  EXPECT_EQ(cluster_.node(1).tx().busy_us(), 0) << "no network for local reads";
}

TEST_F(DfsTest, RemoteReadCrossesNetwork) {
  dfs_.RegisterFile("/f", 256 * kMiB, 1);
  // Node 9 does not exist; read from a node holding no replica: node ids
  // are 0..3; find one without a replica by reading from each and checking
  // the counter. Simplest: register from node 1 with replication 2 -> at
  // most nodes {1, x}; read from a third node.
  int reader = -1;
  for (int candidate = 0; candidate < 4; ++candidate) {
    // A read from the writer is local; pick a candidate and check stats.
    if (candidate == 1) continue;
    reader = candidate;
    break;
  }
  uint64_t before = dfs_.remote_bytes_read();
  bool done = false;
  dfs_.ReadFile("/f", reader, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  sim_.Run();
  EXPECT_TRUE(done);
  // With replication 2 of 4 nodes, a non-writer reader sees at least some
  // remote blocks (possibly all).
  EXPECT_GE(dfs_.remote_bytes_read() + dfs_.local_bytes_read() - before,
            256 * kMiB);
}

TEST_F(DfsTest, ReadScalesWithSize) {
  dfs_.RegisterFile("/small", 128 * kMiB, 0);
  dfs_.RegisterFile("/large", 1024 * kMiB, 0);
  SimTime t_small = 0, t_large = 0;
  dfs_.ReadFile("/small", 2, [&](Status) { t_small = sim_.Now(); });
  sim_.Run();
  SimTime start = sim_.Now();
  dfs_.ReadFile("/large", 2, [&](Status) { t_large = sim_.Now() - start; });
  sim_.Run();
  EXPECT_GT(t_large, 2 * t_small) << "fetch time grows with state size";
}

TEST_F(DfsTest, MissingFileFails) {
  Status result;
  dfs_.ReadFile("/nope", 0, [&](Status st) { result = st; });
  sim_.Run();
  EXPECT_TRUE(result.IsNotFound());
}

TEST_F(DfsTest, ReadSurvivesSingleNodeFailure) {
  dfs_.RegisterFile("/f", 256 * kMiB, 1);
  cluster_.FailNode(1);  // primary replicas gone; secondaries must serve
  Status result = Status::Aborted("pending");
  dfs_.ReadFile("/f", 2, [&](Status st) { result = st; });
  sim_.Run();
  EXPECT_TRUE(result.ok()) << result.ToString();
}

/// Drops the next `drops` state transfers; data transfers pass.
class DropStateTransfers : public sim::FaultPolicy {
 public:
  sim::LinkFault OnTransfer(int, int, uint64_t,
                            sim::TransferKind kind) override {
    sim::LinkFault fault;
    if (kind == sim::TransferKind::kState && drops > 0) {
      --drops;
      fault.drop = true;
    }
    return fault;
  }
  int drops = 0;
};

TEST_F(DfsTest, DroppedBlockShipmentIsRetriedAndCountedInItsRegistry) {
  obs::Observability obs;
  // Datanodes 0 and 1 with replication 2: a write from node 0 ships its
  // block to node 1, and a read from node 2 fetches it from node 0.
  DistributedFileSystem dfs(&cluster_, {0, 1});
  dfs.SetObservability(&obs);
  DropStateTransfers policy;
  cluster_.SetFaultPolicy(&policy);
  auto attempts = [](obs::Observability* o, const std::string& what) {
    return o->metrics()
        .GetCounter("rhino_retry_attempts_total", {{"what", what}})
        ->value();
  };
  obs::Observability* process_wide = obs::Observability::Default();
  uint64_t writes_before = attempts(process_wide, "dfs_block_write");
  uint64_t reads_before = attempts(process_wide, "dfs_block_read");

  policy.drops = 1;
  Status wrote = Status::Aborted("pending");
  dfs.WriteFile("/f", 64 * kMiB, 0, [&](Status st) { wrote = st; });
  sim_.Run();
  EXPECT_TRUE(wrote.ok()) << wrote.ToString();
  EXPECT_EQ(attempts(&obs, "dfs_block_write"), 1u);

  policy.drops = 1;
  Status read = Status::Aborted("pending");
  dfs.ReadFile("/f", 2, [&](Status st) { read = st; });
  sim_.Run();
  EXPECT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(attempts(&obs, "dfs_block_read"), 1u);
  EXPECT_EQ(dfs.remote_bytes_read(), 64 * kMiB);

  EXPECT_EQ(cluster_.dropped_transfers(), 2u);
  EXPECT_EQ(attempts(process_wide, "dfs_block_write"), writes_before);
  EXPECT_EQ(attempts(process_wide, "dfs_block_read"), reads_before);
  cluster_.SetFaultPolicy(nullptr);
}

TEST_F(DfsTest, DeleteRemovesFile) {
  dfs_.RegisterFile("/f", kMiB, 0);
  ASSERT_TRUE(dfs_.DeleteFile("/f").ok());
  EXPECT_FALSE(dfs_.Exists("/f"));
  EXPECT_TRUE(dfs_.DeleteFile("/f").IsNotFound());
}

}  // namespace
}  // namespace rhino::dfs
