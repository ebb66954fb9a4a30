// Chaos on the networked runtime: seeded rounds of waves, pumps,
// checkpoints, replica-local and cold handovers and kills on a four-node
// loopback cluster, whose messages and disks misbehave meanwhile:
//
//  * `kProcessBatch` and `kReplicateState` requests and replies are lost
//    or delayed (`FaultTransport`, which wraps the driver's transport and
//    each node's);
//  * a node's disk is slow for a round (`lsm::FaultEnv` latency);
//  * a node fail-stops just before or just after a driver verb reaches
//    it, after a `kProcessBatch` once the batch applied and the node's
//    streams drained (its holders have the batch, the driver has no
//    reply).
//
// The pipeline is a keyed counter whose outputs feed a second keyed
// counter through the driver's edge log. Every pump is retried, after
// declaring dead nodes failed and recovering them, until it succeeds.
// Afterwards both counters count every key exactly once per wave, every
// vnode's owner and holder are live, and a checkpoint succeeds.
//
// Lost control-verb messages are outside the fault model: the control
// steps are not idempotent yet (a lost `kIngestVnodes` or `kDropVnodes`
// reply leaves routing and ownership apart). A failing run names its seed
// and the schedule as it ran; `RHINO_CHAOS_SEED=<n>` replays one seed
// through `DistChaosNightly.EnvSeedSweep`.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "common/random.h"
#include "fault_transport.h"
#include "lsm/env.h"
#include "lsm/fault_env.h"
#include "net/driver.h"
#include "net/node_server.h"
#include "net/transport.h"
#include "net/wire.h"

namespace rhino::net {
namespace {

constexpr uint32_t kNodes = 4;
constexpr uint32_t kNumVnodes = 16;
constexpr uint64_t kKeys = 24;
constexpr int kRounds = 40;
/// Crashes and kills per run: two of the four nodes survive.
constexpr int kMaxDown = 2;
const char* const kOps[] = {"stage1", "stage2"};

/// Driver verbs a crash may be armed on.
constexpr MessageType kCrashVerbs[] = {
    MessageType::kProcessBatch,  MessageType::kCheckpoint,
    MessageType::kExtractVnodes, MessageType::kIngestVnodes,
    MessageType::kDropVnodes,    MessageType::kPromoteReplica,
    MessageType::kRelabelVnodes};

/// A fail-stop crash of `node` on the next `type` request it serves.
struct CrashPoint {
  uint32_t node = 0;
  MessageType type = MessageType::kProcessBatch;
  bool after = false;
};

class ChaosCluster {
 public:
  explicit ChaosCluster(uint64_t seed) : seed_(seed), rng_(seed) {
    std::vector<std::string> endpoints;
    for (uint32_t i = 0; i < kNodes; ++i) {
      disks_.push_back(std::make_unique<lsm::FaultEnv>(&mem_, seed + i));
      links_.push_back(
          std::make_unique<FaultTransport>(&loopback_, seed * 31 + i));
      nodes_.push_back(std::make_unique<NodeServer>(
          disks_.back().get(), links_.back().get(),
          NodeServerOptions{"/data/n" + std::to_string(i), "/ckpt"}));
      loopback_.Register(Endpoint(i),
                         [this, i](MessageType type, std::string_view body) {
                           return Serve(i, type, body);
                         });
      endpoints.push_back(Endpoint(i));
    }
    driver_link_ = std::make_unique<FaultTransport>(&loopback_, seed * 31 + 99);
    driver_ = std::make_unique<ClusterDriver>(driver_link_.get(), endpoints);
  }

  ~ChaosCluster() {
    // Over loopback a replicator calls straight into its holders, so every
    // stream stops before any node is destroyed.
    for (auto& node : nodes_) node->StopReplication();
  }

  /// The seed and the schedule as it ran, on one line.
  std::string Recipe() const {
    return "dist chaos repro: RHINO_CHAOS_SEED=" + std::to_string(seed_) +
           " schedule=[" + schedule_ + "]";
  }

  bool Setup() {
    if (!driver_->ConnectAll().ok()) return false;
    for (const char* op : kOps) {
      if (!driver_->AddOperator(op, kNumVnodes).ok()) return false;
    }
    driver_->AddPartition(&partition_);
    return driver_->ConnectPartition(kOps[0], 0).ok() &&
           driver_->ConnectOperators(kOps[0], kOps[1]).ok();
  }

  void InjectMessageFaults() {
    MessageFaults batch;
    batch.lose_request = 0.04;
    batch.lose_reply = 0.08;
    batch.delay = 0.1;
    batch.max_delay_us = 300;
    driver_link_->SetFaults(MessageType::kProcessBatch, batch);
    MessageFaults delta;
    delta.lose_request = 0.04;
    delta.lose_reply = 0.04;
    delta.delay = 0.1;
    delta.max_delay_us = 300;
    for (auto& link : links_) {
      link->SetFaults(MessageType::kReplicateState, delta);
    }
  }

  /// One seeded round: maybe a wave, maybe a fault armed, one operation.
  bool Round(int round) {
    Note("r" + std::to_string(round));
    // A slow disk lasts one round.
    for (auto& disk : disks_) disk->SetLatencyUs(0);
    if (rng_.OneIn(6)) {
      const uint32_t node = static_cast<uint32_t>(rng_.Uniform(kNodes));
      const int64_t us = rng_.UniformRange(100, 600);
      disks_[node]->SetLatencyUs(us);
      Note("slowdisk(n" + std::to_string(node) + "," + std::to_string(us) +
           "us)");
    }
    if (rng_.Uniform(10) < 7) AppendWave();
    if (down_ < kMaxDown && !Armed() && rng_.OneIn(6)) ArmCrash();
    const uint64_t action = rng_.Uniform(20);
    if (action < 8) return PumpUntilDone();
    if (action < 11) return Checkpoint();
    if (action < 14) return Handover(/*replica_local=*/true);
    if (action < 17) return Handover(/*replica_local=*/false);
    if (action < 18 && down_ < kMaxDown && !Armed()) {
      const uint32_t node = RandomLive();
      Note("kill(n" + std::to_string(node) + ")");
      Crash(node);
      return Heal();
    }
    return PumpUntilDone();
  }

  /// Stops every fault, brings the cluster to rest and checkpoints it.
  bool Settle() {
    {
      std::lock_guard<std::mutex> lock(crash_mu_);
      armed_.reset();
    }
    driver_link_->Heal();
    for (auto& link : links_) link->Heal();
    for (auto& disk : disks_) disk->SetLatencyUs(0);
    Note("settle");
    if (!Heal() || !PumpUntilDone()) return false;
    // A stream's failure is sticky until its next delta succeeds, and a
    // checkpoint's barrier fails fast on it: retry while it clears (up to
    // 5 s, for slow sanitizer builds).
    for (int attempt = 0; attempt < 250; ++attempt) {
      auto ckpt = driver_->Checkpoint();
      if (ckpt.ok()) return true;
      last_error_ = ckpt.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// Both counters count every key exactly once per wave.
  void ExpectExactlyOnce() {
    for (const char* op : kOps) {
      for (uint64_t key = 0; key < kKeys; ++key) {
        auto count = driver_->QueryCount(op, key);
        ASSERT_TRUE(count.ok()) << op << " key " << key << ": "
                                << count.status().ToString();
        EXPECT_EQ(*count, waves_) << op << " key " << key;
      }
    }
  }

  /// Every vnode's owner is live, and so is its holder, another node.
  void ExpectLiveRouting() {
    for (const char* op : kOps) {
      std::vector<int> owners(kNumVnodes, 0);
      for (uint32_t node = 0; node < kNodes; ++node) {
        for (uint32_t vnode : driver_->VnodesOwnedBy(op, node)) {
          EXPECT_TRUE(driver_->IsAlive(node))
              << op << " vnode " << vnode << " owned by dead node " << node;
          owners[vnode] += 1;
          auto holder = driver_->HolderOf(op, vnode);
          ASSERT_TRUE(holder.ok()) << holder.status().ToString();
          EXPECT_TRUE(driver_->IsAlive(*holder))
              << op << " vnode " << vnode << " held by dead node " << *holder;
          EXPECT_NE(*holder, node) << op << " vnode " << vnode;
        }
      }
      for (uint32_t vnode = 0; vnode < kNumVnodes; ++vnode) {
        EXPECT_EQ(owners[vnode], 1) << op << " vnode " << vnode;
      }
    }
  }

  const Status& last_error() const { return last_error_; }
  int down() const { return down_; }
  uint64_t lost_replies() const { return driver_link_->lost_replies(); }

 private:
  static std::string Endpoint(uint32_t node) {
    return "node" + std::to_string(node);
  }

  void Note(const std::string& step) {
    if (!schedule_.empty()) schedule_ += ' ';
    schedule_ += step;
  }

  bool Armed() {
    std::lock_guard<std::mutex> lock(crash_mu_);
    return armed_.has_value();
  }

  /// Node `node` serves one request, unless an armed crash stops it.
  Result<std::string> Serve(uint32_t node, MessageType type,
                            std::string_view body) {
    std::optional<CrashPoint> crash;
    {
      std::lock_guard<std::mutex> lock(crash_mu_);
      if (armed_ && armed_->node == node && armed_->type == type) {
        crash = armed_;
        armed_.reset();
      }
    }
    if (crash && !crash->after) {
      Crash(node);
      return Status::IOError("node" + std::to_string(node) + " died");
    }
    auto reply = nodes_[node]->Handle(type, body);
    if (crash) {
      if (type == MessageType::kProcessBatch) WaitStreamsDrained(node);
      Crash(node);
      return Status::IOError("node" + std::to_string(node) +
                             " died before replying");
    }
    return reply;
  }

  /// Fail-stop: the node serves nothing more and ships nothing more.
  /// Runs on the driver's thread: crashes are armed on driver verbs only.
  void Crash(uint32_t node) {
    loopback_.Kill(Endpoint(node));
    nodes_[node]->StopReplication();
    ++down_;
  }

  void WaitStreamsDrained(uint32_t node) {
    for (int waited = 0; waited < 2000; waited += 2) {
      auto body = nodes_[node]->Handle(MessageType::kStats, {});
      if (body.ok()) {
        auto stats = StatsReply::Decode(*body);
        if (stats.ok() && stats->repl_dirty == 0 &&
            stats->repl_inflight == 0) {
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  void ArmCrash() {
    CrashPoint crash;
    crash.node = RandomLive();
    crash.type = kCrashVerbs[rng_.Uniform(std::size(kCrashVerbs))];
    crash.after = rng_.OneIn(2);
    Note(std::string("crash(n") + std::to_string(crash.node) +
         (crash.after ? " after " : " before ") + MessageTypeName(crash.type) +
         ")");
    std::lock_guard<std::mutex> lock(crash_mu_);
    armed_ = crash;
  }

  uint32_t RandomLive() {
    std::vector<uint32_t> live;
    for (uint32_t node = 0; node < kNodes; ++node) {
      if (driver_->IsAlive(node)) live.push_back(node);
    }
    return live[rng_.Uniform(live.size())];
  }

  void AppendWave() {
    dataflow::Batch batch;
    for (uint64_t key = 0; key < kKeys; ++key) {
      dataflow::Record rec;
      rec.key = key;
      rec.event_time = 1000;
      rec.size = 16;
      batch.records.push_back(rec);
      batch.count += 1;
      batch.bytes += rec.size;
    }
    partition_.Append(std::move(batch));
    ++waves_;
    Note("wave");
  }

  /// Declares the nodes that stopped answering dead and re-homes every
  /// vnode a dead node owns, until a recovery completes.
  bool Heal() {
    for (int attempt = 0; attempt < 20; ++attempt) {
      Status st = driver_->RecoverNodes(driver_->ProbeFailures());
      if (st.ok()) return true;
      last_error_ = st;
    }
    return false;
  }

  bool PumpUntilDone() {
    Note("pump");
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto pumped = driver_->Pump();
      if (pumped.ok()) return true;
      last_error_ = pumped.status();
      if (!Heal()) return false;
    }
    return false;
  }

  /// A failed checkpoint is retried by a later round.
  bool Checkpoint() {
    Note("ckpt");
    auto ckpt = driver_->Checkpoint();
    return ckpt.ok() || Heal();
  }

  /// Moves up to three vnodes of one operator off a random live node: to
  /// the node that holds them, or to one that holds none of them.
  bool Handover(bool replica_local) {
    const char* op = kOps[rng_.Uniform(2)];
    const uint32_t origin = RandomLive();
    std::vector<uint32_t> owned = driver_->VnodesOwnedBy(op, origin);
    if (owned.empty()) return true;
    const uint32_t first = owned[rng_.Uniform(owned.size())];
    auto holder = driver_->HolderOf(op, first);
    if (!holder.ok()) return true;  // a single live node
    uint32_t target = *holder;
    if (!replica_local) {
      std::vector<uint32_t> others;
      for (uint32_t node = 0; node < kNodes; ++node) {
        if (driver_->IsAlive(node) && node != origin && node != *holder) {
          others.push_back(node);
        }
      }
      if (others.empty()) return true;
      target = others[rng_.Uniform(others.size())];
    }
    std::vector<uint32_t> moved;
    for (uint32_t vnode : owned) {
      auto h = driver_->HolderOf(op, vnode);
      const bool local = h.ok() && *h == target;
      if (local == replica_local && moved.size() < 3) moved.push_back(vnode);
    }
    std::string vnodes;
    for (uint32_t vnode : moved) {
      if (!vnodes.empty()) vnodes += ',';
      vnodes += std::to_string(vnode);
    }
    Note(std::string(replica_local ? "handover.local(" : "handover.cold(") +
         op + " " + std::to_string(origin) + "->" + std::to_string(target) +
         " v=" + vnodes + ")");
    Status st = driver_->TriggerHandover(op, origin, target, moved);
    if (!st.ok()) last_error_ = st;
    return st.ok() || Heal();
  }

  const uint64_t seed_;
  Random rng_;
  lsm::MemEnv mem_;  // shared: node dirs are disjoint, the ckpt dir common
  std::vector<std::unique_ptr<lsm::FaultEnv>> disks_;
  LoopbackTransport loopback_;
  std::vector<std::unique_ptr<FaultTransport>> links_;
  std::unique_ptr<FaultTransport> driver_link_;
  std::vector<std::unique_ptr<NodeServer>> nodes_;
  std::unique_ptr<ClusterDriver> driver_;
  broker::Partition partition_{0};
  uint64_t waves_ = 0;
  int down_ = 0;
  std::mutex crash_mu_;
  std::optional<CrashPoint> armed_;
  std::string schedule_;
  Status last_error_;
};

void RunSeed(uint64_t seed) {
  ChaosCluster cluster(seed);
  ASSERT_TRUE(cluster.Setup());
  cluster.InjectMessageFaults();
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(cluster.Round(round))
        << cluster.last_error().ToString() << "\n"
        << cluster.Recipe();
  }
  ASSERT_TRUE(cluster.Settle()) << cluster.last_error().ToString() << "\n"
                                << cluster.Recipe();
  SCOPED_TRACE(cluster.Recipe());
  cluster.ExpectExactlyOnce();
  cluster.ExpectLiveRouting();
}

class DistChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistChaosTest, SeededFaultScheduleIsExactlyOnce) { RunSeed(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, DistChaosTest,
                         ::testing::Range<uint64_t>(1, 9));

/// Seed sweep hook: the nightly chaos lane runs this binary with
/// RHINO_CHAOS_SEED=<n> over seeds far beyond the per-commit set. Skipped
/// when the variable is unset.
TEST(DistChaosNightly, EnvSeedSweep) {
  const char* env_seed = std::getenv("RHINO_CHAOS_SEED");
  if (env_seed == nullptr) {
    GTEST_SKIP() << "RHINO_CHAOS_SEED not set (nightly-only sweep)";
  }
  RunSeed(std::strtoull(env_seed, nullptr, 10));
}

}  // namespace
}  // namespace rhino::net
