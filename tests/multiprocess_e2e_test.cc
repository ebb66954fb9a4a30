#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "common/units.h"
#include "net/driver.h"
#include "net/transport.h"

/// \file multiprocess_e2e_test.cc
/// The distributed end-to-end lane: three real `rhino_node` PROCESSES
/// (forked + exec'd, each with its own LSM directory), coordinated by a
/// `ClusterDriver` over real TCP sockets, hosting a TWO-OPERATOR graph
/// (counter -> rollup through the driver-resident edge log). The run
/// drives a checkpoint, a live handover, a SIGKILL of one node, and
/// recovery — and asserts exactly-once counts at BOTH stages at the end,
/// the acceptance bar of the networked runtime.
///
/// Launch handshake: every node binds port 0 and announces the kernel-
/// assigned port on stdout as `RHINO_NODE_PORT=<port>`; the test parses it
/// from a pipe. Node stderr goes to per-node log files (in
/// `$RHINO_NODE_LOG_DIR` when set — CI uploads that directory as a build
/// artifact on failure, alongside `$RHINO_TRACE_DUMP` traces the nodes
/// write on clean exit).
///
/// `RHINO_NODE_BIN` (compile definition) is the path of the built binary.

namespace rhino::net {
namespace {

constexpr uint32_t kNumVnodes = 16;
constexpr uint64_t kNumKeys = 30;
const char* const kOp = "counter";
/// Downstream stage: fed by `kOp`'s output records through the driver-
/// resident edge log, so the e2e lane covers a multi-operator graph over
/// real TCP — two wire hops per record, per-input replay cursors, and
/// edge replay through recovery.
const char* const kDownstreamOp = "rollup";

struct NodeProc {
  pid_t pid = -1;
  uint16_t port = 0;
};

class MultiProcessClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) /
            ("rhino_e2e_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_ / "ckpt");
    const char* log_env = std::getenv("RHINO_NODE_LOG_DIR");
    log_dir_ = (log_env != nullptr && *log_env != '\0')
                   ? std::filesystem::path(log_env)
                   : root_ / "logs";
    std::filesystem::create_directories(log_dir_);
  }

  void TearDown() override {
    for (auto& node : nodes_) {
      if (node.pid > 0) {
        ::kill(node.pid, SIGKILL);
        ::waitpid(node.pid, nullptr, 0);
      }
    }
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  /// Forks + execs one rhino_node and parses its port announcement.
  void Launch(size_t id) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string data_flag =
        "--data-dir=" + (root_ / ("n" + std::to_string(id))).string();
    std::string ckpt_flag = "--ckpt-dir=" + (root_ / "ckpt").string();
    std::string log_path =
        (log_dir_ / ("rhino_node_" + std::to_string(id) + ".log")).string();
    pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      int logfd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (logfd >= 0) {
        ::dup2(logfd, STDERR_FILENO);
        ::close(logfd);
      }
      ::execl(RHINO_NODE_BIN, "rhino_node", "--port=0", data_flag.c_str(),
              ckpt_flag.c_str(), static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
    ::close(fds[1]);
    FILE* out = ::fdopen(fds[0], "r");
    ASSERT_NE(out, nullptr);
    char line[256];
    unsigned port = 0;
    while (std::fgets(line, sizeof(line), out) != nullptr) {
      if (std::sscanf(line, "RHINO_NODE_PORT=%u", &port) == 1) break;
    }
    std::fclose(out);
    ASSERT_NE(port, 0u) << "node " << id
                        << " never announced a port (see " << log_path << ")";
    nodes_.push_back(NodeProc{pid, static_cast<uint16_t>(port)});
  }

  /// Reaps a node; returns its exit code (or -1 on abnormal termination).
  int WaitExit(size_t id) {
    int status = 0;
    if (::waitpid(nodes_[id].pid, &status, 0) != nodes_[id].pid) return -1;
    nodes_[id].pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  void AppendWave(broker::Partition* partition) {
    dataflow::Batch batch;
    for (uint64_t key = 0; key < kNumKeys; ++key) {
      dataflow::Record rec;
      rec.key = key;
      rec.event_time = 1000;
      rec.size = 32;
      batch.records.push_back(rec);
      batch.count += 1;
      batch.bytes += rec.size;
    }
    partition->Append(std::move(batch));
  }

  /// Exactly-once audit over BOTH stages: the counter applies each wave
  /// once, and because it emits one output record per applied input, the
  /// downstream stage must land on the same per-key count — any loss or
  /// duplication on the operator edge shows up here.
  void ExpectAllCounts(ClusterDriver* driver, uint64_t waves) {
    for (const char* op : {kOp, kDownstreamOp}) {
      for (uint64_t key = 0; key < kNumKeys; ++key) {
        auto count = driver->QueryCount(op, key);
        ASSERT_TRUE(count.ok()) << op << ": " << count.status().ToString();
        EXPECT_EQ(*count, waves) << op << " key " << key;
      }
    }
  }

  std::filesystem::path root_;
  std::filesystem::path log_dir_;
  std::vector<NodeProc> nodes_;
};

TEST_F(MultiProcessClusterTest, CheckpointHandoverSigkillRecoveryExactlyOnce) {
  for (size_t id = 0; id < 3; ++id) {
    Launch(id);
    if (HasFatalFailure()) return;
  }

  std::vector<std::string> endpoints;
  for (const auto& node : nodes_) {
    endpoints.push_back("127.0.0.1:" + std::to_string(node.port));
  }
  PipelinedChannelOptions options;
  options.retry.initial_backoff_us = 2 * kMillisecond;
  options.retry.max_backoff_us = 100 * kMillisecond;
  options.retry.max_attempts = 5;
  TcpTransport transport(options);
  ClusterDriver driver(&transport, endpoints);
  ASSERT_TRUE(driver.ConnectAll().ok());
  ASSERT_TRUE(driver.AddOperator(kOp, kNumVnodes).ok());
  ASSERT_TRUE(driver.AddOperator(kDownstreamOp, kNumVnodes).ok());
  broker::Partition partition(0);
  driver.AddPartition(&partition);
  ASSERT_TRUE(driver.ConnectPartition(kOp, 0).ok());
  ASSERT_TRUE(driver.ConnectOperators(kOp, kDownstreamOp).ok());

  // Waves 1-2, then checkpoint #1: every node persists its image into the
  // shared ckpt dir and drains its replication streams to the holders of
  // its vnodes.
  AppendWave(&partition);
  AppendWave(&partition);
  auto pumped = driver.Pump();
  ASSERT_TRUE(pumped.ok()) << pumped.status().ToString();
  EXPECT_EQ(pumped->applied, 2 * kNumKeys * 2);  // both stages apply each wave
  auto ckpt = driver.Checkpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->nodes, 3u);
  EXPECT_EQ(ckpt->replicated_nodes, 3u);
  ExpectAllCounts(&driver, 2);

  // Live handover: everything node 0 owns migrates to node 1 over RPC —
  // state and replay watermarks — while the cluster keeps counting.
  std::vector<uint32_t> moved = driver.VnodesOwnedBy(kOp, 0);
  ASSERT_FALSE(moved.empty());
  ASSERT_TRUE(driver.TriggerHandover(kOp, 0, 1, moved).ok());
  EXPECT_TRUE(driver.VnodesOwnedBy(kOp, 0).empty());
  AppendWave(&partition);  // wave 3
  ASSERT_TRUE(driver.Pump().ok());
  ExpectAllCounts(&driver, 3);
  // Checkpoint #2 records the post-handover ownership.
  ASSERT_TRUE(driver.Checkpoint().ok());

  // Wave 4 lands after the checkpoint: the doomed node's share lives only
  // in its memory + local disk and must come back via upstream replay.
  AppendWave(&partition);
  ASSERT_TRUE(driver.Pump().ok());
  ExpectAllCounts(&driver, 4);

  // Fail-stop: SIGKILL node 2 (no shutdown handler runs — a real crash).
  ASSERT_EQ(::kill(nodes_[2].pid, SIGKILL), 0);
  ::waitpid(nodes_[2].pid, nullptr, 0);
  nodes_[2].pid = -1;
  EXPECT_EQ(driver.ProbeFailures(), (std::vector<uint32_t>{2}));

  // Recovery: node 0 (node 2's vnodes' holder) promotes its replica of
  // node 2, the driver rewinds the partition cursor to the restored
  // watermarks, and replay re-applies whatever the replica lacks —
  // survivors dedup it. The stream may have made the replica current
  // before the SIGKILL, leaving nothing to rewind; the exact counts below
  // hold either way (dist_cluster_test pins the rewind and the dedup).
  ASSERT_TRUE(driver.RecoverNode(2).ok());
  EXPECT_FALSE(driver.IsAlive(2));
  auto replayed = driver.Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectAllCounts(&driver, 4);

  // Steady state on the survivors, then graceful shutdown.
  AppendWave(&partition);  // wave 5
  ASSERT_TRUE(driver.Pump().ok());
  ExpectAllCounts(&driver, 5);

  driver.Shutdown();
  EXPECT_EQ(WaitExit(0), 0);
  EXPECT_EQ(WaitExit(1), 0);
}

TEST_F(MultiProcessClusterTest, SigkilledHandoverTargetComesBackFromTheOrigin) {
  for (size_t id = 0; id < 3; ++id) {
    Launch(id);
    if (HasFatalFailure()) return;
  }
  std::vector<std::string> endpoints;
  for (const auto& node : nodes_) {
    endpoints.push_back("127.0.0.1:" + std::to_string(node.port));
  }
  PipelinedChannelOptions options;
  options.retry.initial_backoff_us = 2 * kMillisecond;
  options.retry.max_backoff_us = 100 * kMillisecond;
  options.retry.max_attempts = 5;
  TcpTransport transport(options);
  ClusterDriver driver(&transport, endpoints);
  ASSERT_TRUE(driver.ConnectAll().ok());
  ASSERT_TRUE(driver.AddOperator(kOp, kNumVnodes).ok());
  ASSERT_TRUE(driver.AddOperator(kDownstreamOp, kNumVnodes).ok());
  broker::Partition partition(0);
  driver.AddPartition(&partition);
  ASSERT_TRUE(driver.ConnectPartition(kOp, 0).ok());
  ASSERT_TRUE(driver.ConnectOperators(kOp, kDownstreamOp).ok());
  AppendWave(&partition);
  AppendWave(&partition);
  ASSERT_TRUE(driver.Pump().ok());
  ASSERT_TRUE(driver.Checkpoint().ok());

  // Node 1 holds node 0's vnodes: the move takes its copies over, and
  // node 0's process keeps its rows as the copies it now holds for node 1.
  std::vector<uint32_t> moved = driver.VnodesOwnedBy(kOp, 0);
  ASSERT_FALSE(moved.empty());
  ASSERT_TRUE(driver.TriggerHandover(kOp, 0, 1, moved).ok());
  for (uint32_t vnode : moved) {
    auto holder = driver.HolderOf(kOp, vnode);
    ASSERT_TRUE(holder.ok()) << holder.status().ToString();
    EXPECT_EQ(*holder, 0u) << "vnode " << vnode;
  }
  AppendWave(&partition);  // wave 3, streamed from node 1 to node 0
  ASSERT_TRUE(driver.Pump().ok());
  ASSERT_TRUE(driver.Checkpoint().ok());
  AppendWave(&partition);  // wave 4, may die with node 1
  ASSERT_TRUE(driver.Pump().ok());
  ExpectAllCounts(&driver, 4);

  // SIGKILL the target: node 0 promotes the moved vnodes from its demoted
  // copies, node 2 node 1's own; replay restores what the copies lacked.
  ASSERT_EQ(::kill(nodes_[1].pid, SIGKILL), 0);
  ::waitpid(nodes_[1].pid, nullptr, 0);
  nodes_[1].pid = -1;
  EXPECT_EQ(driver.ProbeFailures(), (std::vector<uint32_t>{1}));
  ASSERT_TRUE(driver.RecoverNode(1).ok());
  EXPECT_EQ(driver.VnodesOwnedBy(kOp, 0), moved);
  auto replayed = driver.Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ExpectAllCounts(&driver, 4);

  AppendWave(&partition);  // wave 5 on the survivors
  ASSERT_TRUE(driver.Pump().ok());
  ExpectAllCounts(&driver, 5);

  driver.Shutdown();
  EXPECT_EQ(WaitExit(0), 0);
  EXPECT_EQ(WaitExit(2), 0);
}

TEST_F(MultiProcessClusterTest, CorrelatedSigkillRestoresChainsFromPeers) {
  for (size_t id = 0; id < 3; ++id) {
    Launch(id);
    if (HasFatalFailure()) return;
  }
  std::vector<std::string> endpoints;
  for (const auto& node : nodes_) {
    endpoints.push_back("127.0.0.1:" + std::to_string(node.port));
  }
  PipelinedChannelOptions options;
  options.retry.initial_backoff_us = 2 * kMillisecond;
  options.retry.max_backoff_us = 100 * kMillisecond;
  options.retry.max_attempts = 5;
  TcpTransport transport(options);
  ClusterDriver driver(&transport, endpoints);
  ASSERT_TRUE(driver.ConnectAll().ok());
  ASSERT_TRUE(driver.AddOperator(kOp, kNumVnodes).ok());
  ASSERT_TRUE(driver.AddOperator(kDownstreamOp, kNumVnodes).ok());
  broker::Partition partition(0);
  driver.AddPartition(&partition);
  ASSERT_TRUE(driver.ConnectPartition(kOp, 0).ok());
  ASSERT_TRUE(driver.ConnectOperators(kOp, kDownstreamOp).ok());

  // Checkpoint #1 writes every vnode's chain base into the shared dir.
  AppendWave(&partition);
  AppendWave(&partition);
  ASSERT_TRUE(driver.Pump().ok());
  ASSERT_TRUE(driver.Checkpoint().ok());

  // Node 0 hands its vnodes to node 1 with a wave pending: node 0's
  // process appends the final records, node 1's process extends the same
  // chains at checkpoint #2.
  AppendWave(&partition);  // wave 3
  ASSERT_TRUE(driver.Pump().ok());
  std::vector<uint32_t> moved = driver.VnodesOwnedBy(kOp, 0);
  ASSERT_FALSE(moved.empty());
  ASSERT_TRUE(driver.TriggerHandover(kOp, 0, 1, moved).ok());
  AppendWave(&partition);  // wave 4
  ASSERT_TRUE(driver.Pump().ok());
  ASSERT_TRUE(driver.Checkpoint().ok());
  AppendWave(&partition);  // wave 5, after the checkpoint: must replay
  ASSERT_TRUE(driver.Pump().ok());
  ExpectAllCounts(&driver, 5);

  // Correlated SIGKILL of node 1 and node 2, which held node 1's own
  // vnodes: node 0's process restores those by folding chains other
  // processes wrote, and promotes its copies of node 2's vnodes and of the
  // vnodes it handed to node 1.
  for (size_t id : {1, 2}) {
    ASSERT_EQ(::kill(nodes_[id].pid, SIGKILL), 0);
    ::waitpid(nodes_[id].pid, nullptr, 0);
    nodes_[id].pid = -1;
  }
  EXPECT_EQ(driver.ProbeFailures(), (std::vector<uint32_t>{1, 2}));
  ASSERT_TRUE(driver.RecoverNodes({1, 2}).ok());
  EXPECT_EQ(driver.VnodesOwnedBy(kOp, 0).size(), kNumVnodes);
  auto replayed = driver.Pump();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  // Both stages replay at most wave 5 and what node 2's replica lacked;
  // node 1's vnodes restored empty would replay all five waves.
  EXPECT_LE(replayed->applied, 2 * 2 * kNumKeys);
  ExpectAllCounts(&driver, 5);

  AppendWave(&partition);  // wave 6 on the survivor
  ASSERT_TRUE(driver.Pump().ok());
  ExpectAllCounts(&driver, 6);
  ASSERT_TRUE(driver.Checkpoint().ok());

  driver.Shutdown();
  EXPECT_EQ(WaitExit(0), 0);
}

}  // namespace
}  // namespace rhino::net
