// Distributed-runtime artifact over real sockets: three `NodeServer`s,
// each behind its own `RpcServer` on a kernel-assigned loopback port, a
// `TcpTransport` driver, and state on a real filesystem (`PosixEnv` under
// a mkdtemp root). Same protocol the multi-process e2e test exercises,
// but single-process so the bench can wall-clock the phases directly:
//
//   ingest     — waves routed per-vnode over RPC into the LSM shards;
//   checkpoint — barrier broadcast, per-node durable image, and a wait
//                for each node's replication streams to drain;
//   handover   — live migration of every vnode node 0 owns to node 1,
//                their holder (its ring successor), which takes over the
//                replica it already holds while node 0 demotes its rows
//                to the copy it now holds (replica-local: only sizes,
//                watermarks and stream seqs cross the wire); the same
//                vnodes back to node 0, replica-local too; then on to
//                node 2, a cold target that holds none of them and gets
//                the full image (extract -> ingest -> drop -> relabel,
//                watermarks included), while node 1 keeps its copy;
//   recovery   — fail-stop of node 2 (its RPC server stops answering),
//                failure probe, replica promotion on the vnodes' holders,
//                cursor rewind, and the replay pump.
//
// The run must lose nothing: after recovery a final wave flows through
// the re-routed cluster and every key's count is audited exactly-once —
// `records.lost` and `records.duplicated` are required to be 0.
//
// A second part measures reconfiguration against state size (the paper's
// Figure 1 claim, on real processes): a fresh cluster at each of three
// sizes (4k, 16k and 64k keys at smoke scale, up to 1M at full scale)
// loads its keys, checkpoints, and then times a replica-local handover,
// the move back (replica-local too), a cold-target handover and a
// promotion (`wall_s.<op>.<keys>`), and counts each call's driver wire
// bytes (`bytes.<op>.<keys>`). Those bytes leave the re-protection
// streams out: they are what the operation itself moves. Each
// operation's LSM write bytes, all nodes' user bytes until the streams
// are idle again (`lsm_bytes.<op>.<keys>`), count the load it puts on the
// stores, re-protection included. A second fresh cluster at each size
// times a chain restore: a node and the holder of its vnodes die
// together, and a survivor restores them from their checkpoint chains.
//
// Bytes come from the nodes' stream counters (`rhino_repl_*`) and a
// byte-counting decorator on the driver's transport: replication bytes
// per user byte over the ingest, and each handover's bytes until the
// streams re-protected the moved vnodes.
//
// Wall seconds and bytes are report-only in check_regression.py; what CI
// checks is that the distributed story converges over real sockets with
// zero loss, that `handover_replica_local_ok` holds — the move to the
// replica holder took the replica path with no state entries on the wire,
// and the move to the cold target took the full path — and the size
// curve's shape: `reconfig_bytes_flat_ok` (the replica-local handover's
// and the promotion's bytes at the largest size are at most 1.5x those at
// the smallest), `cold_bytes_grow_ok` (the cold-target handover's are
// at least 4x) and `reconfig_load_flat_ok` (the replica-local handover's
// LSM bytes at the largest size are at most 1.5x those at the smallest,
// with a 1-byte floor: a demote writes nothing). The promotion's and the
// restore's LSM bytes are report-only: re-protection rebuilds the lost
// replicas, which grows with the state by design.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "artifact.h"
#include "broker/broker.h"
#include "common/logging.h"
#include "common/units.h"
#include "counting_transport.h"
#include "lsm/env.h"
#include "metrics/table.h"
#include "net/driver.h"
#include "net/node_server.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "net/transport.h"
#include "obs/observability.h"

namespace rhino::net {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

uint64_t NodeCounter(const std::string& name, uint32_t node,
                     const std::string& key = "",
                     const std::string& value = "") {
  obs::Labels labels = {{"node", std::to_string(node)}};
  if (!key.empty()) labels[key] = value;
  return obs::Observability::Default()
      ->metrics()
      .GetCounter(name, labels)
      ->value();
}

/// LSM user bytes (keys and values of committed writes) of every store in
/// the process: all nodes'.
uint64_t LsmUserWriteBytes() {
  return obs::Observability::Default()
      ->metrics()
      .GetCounter("rhino_lsm_user_write_bytes_total")
      ->value();
}

/// Stream bytes every node of `nodes` shipped so far.
uint64_t ShippedBytes(uint32_t nodes) {
  uint64_t total = 0;
  for (uint32_t node = 0; node < nodes; ++node) {
    total += NodeCounter("rhino_repl_shipped_bytes_total", node);
  }
  return total;
}

/// Polls every live node until its replication stream is idle.
void WaitReplicationIdle(ClusterDriver* driver) {
  for (uint32_t node = 0; node < driver->num_nodes(); ++node) {
    if (!driver->IsAlive(node)) continue;
    while (true) {
      auto stats = driver->NodeStats(node);
      RHINO_CHECK_OK(stats.status());
      if (stats->repl_dirty == 0 && stats->repl_inflight == 0) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

constexpr uint32_t kNumNodes = 3;
constexpr uint32_t kNumVnodes = 16;
constexpr uint32_t kFailedNode = 2;
const char* const kOp = "counter";

/// Three `NodeServer`s, each behind its own `RpcServer` on a
/// kernel-assigned loopback port, state under a mkdtemp root on a real
/// filesystem, and a driver whose calls a `CountingTransport` counts; one
/// counter operator fed by `partition`.
struct TcpCluster {
  std::string root;
  lsm::PosixEnv env;
  TcpTransport transport;
  std::vector<std::unique_ptr<TcpTransport>> node_transports;
  std::vector<std::unique_ptr<NodeServer>> nodes;
  std::vector<std::unique_ptr<RpcServer>> servers;
  std::unique_ptr<bench::CountingTransport> counted;
  std::unique_ptr<ClusterDriver> driver;
  broker::Partition partition{0};

  static PipelinedChannelOptions ChannelOptions() {
    PipelinedChannelOptions options;
    options.retry.initial_backoff_us = 2 * kMillisecond;
    options.retry.max_backoff_us = 100 * kMillisecond;
    options.retry.max_attempts = 5;
    return options;
  }

  TcpCluster() : transport(ChannelOptions()) {
    char root_template[] = "/tmp/rhino_dist_handover_XXXXXX";
    RHINO_CHECK(mkdtemp(root_template) != nullptr);
    root = root_template;
    // Nodes first, each with a transport of its own for its replication
    // stream (a stream must not share a serially-served connection with
    // the driver's checkpoint barrier), then their RPC servers on port 0
    // — endpoints are known only after bind, which is why the driver
    // comes last.
    std::vector<std::string> endpoints;
    for (uint32_t i = 0; i < kNumNodes; ++i) {
      std::string data_dir = root + "/n" + std::to_string(i);
      RHINO_CHECK_OK(env.CreateDir(data_dir));
      node_transports.push_back(
          std::make_unique<TcpTransport>(ChannelOptions()));
      nodes.push_back(std::make_unique<NodeServer>(
          &env, node_transports.back().get(),
          NodeServerOptions{data_dir, root + "/ckpt"}));
      servers.push_back(std::make_unique<RpcServer>(nodes.back()->AsHandler()));
      RHINO_CHECK_OK(servers.back()->Start("127.0.0.1", 0));
      endpoints.push_back(FormatEndpoint("127.0.0.1", servers.back()->port()));
    }
    RHINO_CHECK_OK(env.CreateDir(root + "/ckpt"));
    counted = std::make_unique<bench::CountingTransport>(&transport);
    driver = std::make_unique<ClusterDriver>(counted.get(), endpoints);
    RHINO_CHECK_OK(driver->ConnectAll());
    RHINO_CHECK_OK(driver->AddOperator(kOp, kNumVnodes));
    driver->AddPartition(&partition);
    RHINO_CHECK_OK(driver->ConnectPartition(kOp, 0));
    WaitReplicationIdle(driver.get());
  }

  ~TcpCluster() {
    driver->Shutdown();
    for (auto& server : servers) server->Stop();
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  }

  /// Appends one record to each key in [0, keys), in batches of at most
  /// 65536 records.
  void AppendKeys(uint64_t keys) {
    for (uint64_t first = 0; first < keys; first += 65536) {
      dataflow::Batch batch;
      for (uint64_t key = first; key < std::min(keys, first + 65536); ++key) {
        dataflow::Record rec;
        rec.key = key;
        rec.event_time = 1000;
        rec.size = 32;
        batch.records.push_back(rec);
        batch.count += 1;
        batch.bytes += rec.size;
      }
      partition.Append(std::move(batch));
    }
  }
};

/// Wall seconds, driver wire bytes and LSM write bytes of one
/// reconfiguration call.
struct Reconfig {
  double wall_s = 0;
  uint64_t bytes = 0;
  uint64_t lsm_bytes = 0;
};

/// Runs `op` and measures it: its wall time, the bytes the driver's calls
/// put on the wire (the nodes' streams are not counted), and the LSM
/// bytes every node writes until the streams are idle again.
template <typename Op>
Reconfig Measure(TcpCluster* cluster, Op op) {
  const uint64_t wire0 = cluster->counted->bytes();
  const uint64_t lsm0 = LsmUserWriteBytes();
  auto start = Clock::now();
  op();
  Reconfig r;
  r.wall_s = Seconds(start, Clock::now());
  r.bytes = cluster->counted->bytes() - wire0;
  WaitReplicationIdle(cluster->driver.get());
  r.lsm_bytes = LsmUserWriteBytes() - lsm0;
  return r;
}

/// A fresh cluster loaded with `keys` keys and checkpointed, its streams
/// idle.
std::unique_ptr<TcpCluster> LoadedCluster(uint64_t keys) {
  auto cluster = std::make_unique<TcpCluster>();
  cluster->AppendKeys(keys);
  RHINO_CHECK_OK(cluster->driver->Pump().status());
  RHINO_CHECK_OK(cluster->driver->Checkpoint().status());
  WaitReplicationIdle(cluster->driver.get());
  return cluster;
}

/// Reconfiguration against state size: at each size a fresh cluster loads
/// that many keys and checkpoints, then node 0's vnodes move to node 1
/// (their holder: replica-local), back to node 0 (their holder now:
/// replica-local again) and on to node 2 (a cold target: the full image),
/// and node 2 fails and the vnodes' holders promote their replicas. A
/// second fresh cluster loses node 1 and node 2, the holder of node 1's
/// vnodes, together: node 0 restores node 1's vnodes from their chains.
void RunStateSizes(bench::BenchArtifact* artifact,
                   metrics::TablePrinter* table) {
  const std::vector<uint64_t> sizes = bench::SmokeMode()
                                          ? std::vector<uint64_t>{4096, 16384, 65536}
                                          : std::vector<uint64_t>{65536, 262144, 1048576};
  std::map<uint64_t, std::map<std::string, Reconfig>> results;
  for (uint64_t keys : sizes) {
    std::map<std::string, Reconfig>& at = results[keys];
    {
      std::unique_ptr<TcpCluster> cluster = LoadedCluster(keys);
      ClusterDriver* driver = cluster->driver.get();
      std::vector<uint32_t> moved = driver->VnodesOwnedBy(kOp, 0);
      at["handover.replica"] = Measure(cluster.get(), [&] {
        RHINO_CHECK_OK(driver->TriggerHandover(kOp, 0, 1, moved));
      });
      at["handover.back"] = Measure(cluster.get(), [&] {
        RHINO_CHECK_OK(driver->TriggerHandover(kOp, 1, 0, moved));
      });
      at["handover.cold"] = Measure(cluster.get(), [&] {
        RHINO_CHECK_OK(driver->TriggerHandover(kOp, 0, 2, moved));
      });
      cluster->servers[kFailedNode]->Stop();
      at["promote"] = Measure(cluster.get(), [&] {
        RHINO_CHECK_OK(driver->RecoverNode(kFailedNode));
      });
    }
    {
      std::unique_ptr<TcpCluster> cluster = LoadedCluster(keys);
      cluster->servers[1]->Stop();
      cluster->servers[2]->Stop();
      at["restore"] = Measure(cluster.get(), [&] {
        RHINO_CHECK_OK(cluster->driver->RecoverNodes({1, 2}));
      });
    }
    for (const auto& [op, r] : at) {
      const std::string suffix = op + "." + std::to_string(keys);
      artifact->Set("wall_s." + suffix, r.wall_s);
      artifact->Set("bytes." + suffix, static_cast<double>(r.bytes));
      artifact->Set("lsm_bytes." + suffix, static_cast<double>(r.lsm_bytes));
      table->AddRow({op + " @" + std::to_string(keys) + " keys",
                     std::to_string(r.wall_s) + " s",
                     std::to_string(r.bytes) + " driver bytes, " +
                         std::to_string(r.lsm_bytes) + " LSM bytes"});
    }
  }
  const auto& small = results[sizes.front()];
  const auto& large = results[sizes.back()];
  auto growth = [&](const std::string& op) {
    return static_cast<double>(large.at(op).bytes) /
           static_cast<double>(std::max<uint64_t>(1, small.at(op).bytes));
  };
  const bool flat =
      growth("handover.replica") <= 1.5 && growth("promote") <= 1.5;
  artifact->Set("reconfig_bytes_flat_ok", flat ? 1 : 0);
  artifact->Set("cold_bytes_grow_ok", growth("handover.cold") >= 4 ? 1 : 0);
  // The replica-local handover's load on the stores, with a 1-byte floor
  // on both sides: a demote writes nothing at any size.
  const double load_growth =
      static_cast<double>(
          std::max<uint64_t>(1, large.at("handover.replica").lsm_bytes)) /
      static_cast<double>(
          std::max<uint64_t>(1, small.at("handover.replica").lsm_bytes));
  artifact->Set("reconfig_load_flat_ok", load_growth <= 1.5 ? 1 : 0);
}

void Run(bench::BenchArtifact* artifact) {
  const uint64_t keys = bench::SmokeScaled<uint64_t>(256, 48);
  const int waves_before_ckpt = bench::SmokeScaled(8, 2);
  const int waves_after_ckpt = bench::SmokeScaled(4, 2);

  TcpCluster cluster;
  ClusterDriver& driver = *cluster.driver;
  bench::CountingTransport& counted = *cluster.counted;
  broker::Partition& partition = cluster.partition;

  auto produce_wave = [&] {
    dataflow::Batch batch;
    for (uint64_t key = 0; key < keys; ++key) {
      dataflow::Record rec;
      rec.key = key;
      rec.event_time = 1000;
      rec.size = 32;
      batch.records.push_back(rec);
      batch.count += 1;
      batch.bytes += rec.size;
    }
    partition.Append(std::move(batch));
  };

  metrics::TablePrinter table({"phase", "wall time", "detail"});

  // Phase 1: ingest — every wave crosses a real socket per owning node.
  for (int w = 0; w < waves_before_ckpt; ++w) produce_wave();
  const uint64_t shipped_before_ingest = ShippedBytes(kNumNodes);
  auto t0 = Clock::now();
  auto pumped = driver.Pump();
  RHINO_CHECK_OK(pumped.status());
  double ingest_s = Seconds(t0, Clock::now());
  uint64_t ingested = pumped->applied;
  RHINO_CHECK(ingested == keys * static_cast<uint64_t>(waves_before_ckpt));
  table.AddRow({"ingest", std::to_string(ingest_s) + " s",
                std::to_string(ingested) + " records, " +
                    std::to_string(pumped->batches_sent) + " RPC batches"});
  artifact->Set("wall_s.ingest", ingest_s);
  artifact->Set("records_per_s.ingest",
                static_cast<double>(ingested) / ingest_s);
  artifact->Set("records.ingested", static_cast<double>(ingested));

  // Phase 2: checkpoint — durable image per node + replication drain.
  t0 = Clock::now();
  auto ckpt = driver.Checkpoint();
  RHINO_CHECK_OK(ckpt.status());
  double ckpt_s = Seconds(t0, Clock::now());
  RHINO_CHECK(ckpt->nodes == kNumNodes);
  RHINO_CHECK(ckpt->replicated_nodes == kNumNodes);
  table.AddRow({"checkpoint", std::to_string(ckpt_s) + " s",
                std::to_string(ckpt->bytes) + " bytes, " +
                    std::to_string(ckpt->replicated_nodes) +
                    " drained streams"});
  artifact->Set("wall_s.checkpoint", ckpt_s);
  // The checkpoint drained every stream: the ingest's replication is done.
  const double user_bytes = static_cast<double>(ingested) * 32;
  artifact->Set("bytes.repl_per_user_byte",
                static_cast<double>(ShippedBytes(kNumNodes) -
                                    shipped_before_ingest) /
                    user_bytes);

  // Phase 3: live handovers of everything node 0 owns, to node 1 (their
  // holder), back to node 0 (their holder after the demote) and on to
  // node 2 (a cold target). Each is measured until the streams
  // re-protected the moved vnodes: the bytes are the driver's calls plus
  // the stream deltas.
  std::vector<uint32_t> moved = driver.VnodesOwnedBy(kOp, 0);
  RHINO_CHECK(!moved.empty());
  struct Move {
    double wall_s = 0;
    uint64_t bytes = 0;
    uint64_t replica_path = 0;  // target's handovers by path, this move
    uint64_t full_path = 0;
  };
  auto handover = [&](uint32_t origin, uint32_t target) {
    WaitReplicationIdle(&driver);
    const uint64_t wire0 = counted.bytes();
    const uint64_t stream0 = ShippedBytes(kNumNodes);
    const uint64_t replica0 =
        NodeCounter("rhino_handover_total", target, "path", "replica");
    const uint64_t full0 =
        NodeCounter("rhino_handover_total", target, "path", "full");
    auto start = Clock::now();
    RHINO_CHECK_OK(driver.TriggerHandover(kOp, origin, target, moved));
    Move m;
    m.wall_s = Seconds(start, Clock::now());
    WaitReplicationIdle(&driver);
    m.bytes = counted.bytes() - wire0 + ShippedBytes(kNumNodes) - stream0;
    m.replica_path =
        NodeCounter("rhino_handover_total", target, "path", "replica") -
        replica0;
    m.full_path =
        NodeCounter("rhino_handover_total", target, "path", "full") - full0;
    return m;
  };
  Move to_replica = handover(/*origin=*/0, /*target=*/1);
  // Replica-local: each moved vnode's image is an empty run on top of the
  // copy the target holds.
  auto extracted = DecodeVnodeImages(counted.last_extract_reply);
  RHINO_CHECK_OK(extracted.status());
  const bool no_entries =
      !extracted->empty() &&
      std::all_of(extracted->begin(), extracted->end(),
                  [](const VnodeImage& image) {
                    return image.base_seq != 0 && image.entries.empty();
                  });
  Move back = handover(/*origin=*/1, /*target=*/0);
  Move to_cold = handover(/*origin=*/0, /*target=*/2);
  const bool replica_local_ok = to_replica.replica_path == 1 &&
                                to_replica.full_path == 0 && no_entries &&
                                to_cold.full_path == 1 &&
                                to_cold.replica_path == 0;
  table.AddRow({"handover", std::to_string(to_replica.wall_s) + " s",
                std::to_string(moved.size()) + " vnodes node0 -> node1 "
                "(replica target), " + std::to_string(to_replica.bytes) +
                    " bytes"});
  table.AddRow({"handover", std::to_string(back.wall_s) + " s",
                std::to_string(moved.size()) + " vnodes node1 -> node0 "
                "(replica target again), " + std::to_string(back.bytes) +
                    " bytes"});
  table.AddRow({"handover", std::to_string(to_cold.wall_s) + " s",
                std::to_string(moved.size()) + " vnodes node0 -> node2 "
                "(cold target), " + std::to_string(to_cold.bytes) +
                    " bytes"});
  artifact->Set("wall_s.handover", to_replica.wall_s);
  artifact->Set("wall_s.handover.back_to_origin", back.wall_s);
  artifact->Set("wall_s.handover.cold_target", to_cold.wall_s);
  artifact->Set("bytes.handover.replica_target",
                static_cast<double>(to_replica.bytes));
  artifact->Set("bytes.handover.back_to_origin",
                static_cast<double>(back.bytes));
  artifact->Set("handover_back_replica_local",
                back.replica_path == 1 && back.full_path == 0 ? 1 : 0);
  artifact->Set("bytes.handover.cold_target",
                static_cast<double>(to_cold.bytes));
  artifact->Set("handover_replica_local_ok", replica_local_ok ? 1 : 0);
  artifact->Set("vnodes.moved", static_cast<double>(moved.size()));

  // More waves past the checkpoint: this is the window recovery replays.
  for (int w = 0; w < waves_after_ckpt; ++w) produce_wave();
  RHINO_CHECK_OK(driver.Pump().status());

  // Phase 4: fail-stop node 2 and recover. Stopping its RPC server models
  // the crash (connections refused); the holders of its vnodes promote
  // their replicas (node 1 the moved vnodes, node 0 node 2's own), cursors
  // rewind, and the replay pump re-delivers the post-checkpoint window
  // (survivors dedup it).
  cluster.servers[kFailedNode]->Stop();
  t0 = Clock::now();
  std::vector<uint32_t> dead = driver.ProbeFailures();
  RHINO_CHECK(dead == std::vector<uint32_t>{kFailedNode});
  RHINO_CHECK_OK(driver.RecoverNode(kFailedNode));
  auto replay = driver.Pump();
  RHINO_CHECK_OK(replay.status());
  double recovery_s = Seconds(t0, Clock::now());
  table.AddRow({"recovery", std::to_string(recovery_s) + " s",
                "replayed " + std::to_string(replay->records_sent) +
                    " records (" + std::to_string(replay->deduped) +
                    " deduped)"});
  artifact->Set("wall_s.recovery", recovery_s);
  artifact->Set("records.replayed", static_cast<double>(replay->records_sent));

  // Phase 5: one wave through the re-routed cluster, then the audit.
  produce_wave();
  RHINO_CHECK_OK(driver.Pump().status());
  const uint64_t expected =
      static_cast<uint64_t>(waves_before_ckpt + waves_after_ckpt) + 1;
  uint64_t lost = 0, duplicated = 0;
  for (uint64_t key = 0; key < keys; ++key) {
    auto count = driver.QueryCount(kOp, key);
    RHINO_CHECK_OK(count.status());
    if (*count < expected) lost += expected - *count;
    if (*count > expected) duplicated += *count - expected;
  }
  artifact->Set("records.lost", static_cast<double>(lost));
  artifact->Set("records.duplicated", static_cast<double>(duplicated));
  artifact->Set("records.expected_per_key", static_cast<double>(expected));
  RHINO_CHECK(lost == 0) << lost << " records lost";
  RHINO_CHECK(duplicated == 0) << duplicated << " records duplicated";

  table.Print();
  std::printf("\nexactly-once verified: every key counted %llu times over "
              "real sockets, 0 records lost\n",
              static_cast<unsigned long long>(expected));

  artifact->Set("nodes", kNumNodes);
  artifact->SetInfo("transport", "tcp (loopback)");
  artifact->SetInfo("failed_node", std::to_string(kFailedNode));
  artifact->SetInfo("regression_gate",
                    "handover_replica_local_ok, reconfig_bytes_flat_ok, "
                    "cold_bytes_grow_ok, reconfig_load_flat_ok, "
                    "bytes.handover.cold.* (walls and other bytes "
                    "report-only)");
}

}  // namespace
}  // namespace rhino::net

int main() {
  std::printf("=== Networked runtime: checkpoint, handover, recovery ===\n\n");
  rhino::bench::BenchArtifact artifact("dist_handover");
  rhino::net::Run(&artifact);
  std::printf("\n=== Reconfiguration against state size ===\n\n");
  rhino::metrics::TablePrinter table({"operation", "wall time", "detail"});
  rhino::net::RunStateSizes(&artifact, &table);
  table.Print();
  RHINO_CHECK_OK(artifact.Write());
  return 0;
}
