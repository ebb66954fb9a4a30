// The pipelined data plane over real sockets: three `NodeServer`s behind
// `RpcServer`s on kernel-assigned loopback ports, a `TcpTransport`
// driver, and state on a real filesystem under a mkdtemp root. Every
// phase builds a FRESH cluster so phases never share warmed caches or LSM
// state:
//
//   ingest              — credit-windowed concurrent streaming through
//                         `PipelinedChannel`s, with and without the
//                         continuous replication stream running;
//   credit-window sweep — same load at window sizes 1/4/16/32 (window 1
//                         is the blocking pump: one batch per node in
//                         flight);
//   checkpoint          — checkpoint wall time at a small and a large
//                         ingested volume once the replication stream is
//                         idle and nothing was written since the last
//                         checkpoint (an empty increment: the barrier is a
//                         bounded drain wait);
//   incremental         — the paper's Figure 1 on real processes: at three
//                         state sizes, a base checkpoint, then the same
//                         keys written at every size, then the checkpoint
//                         whose bytes and wall are measured;
//   kill + recover      — fail-stop of one node, replica promotion,
//                         replay, and a per-key exactly-once audit;
//   two-stage           — counter -> join throughput through the
//                         driver-resident edge log.
//
// The ingest phases run with an emulated per-batch service latency
// (`DelayedHandler` below): single-core loopback has no
// round-trip time to hide, which is exactly what the credit window is
// for, so the bench reintroduces a controlled 500us stand-in for the
// network hop / remote storage cost of a real deployment. A zero-latency
// `_raw` run is reported alongside to show the CPU-bound floor.
//
// Clusters that isolate the data plane give their nodes no transport, so
// no replication stream competes with the pump.
//
// Guarded keys: pipelined ingest throughput, WAL appends per record of the
// raw ingest (one commit per node sub-batch, not per record), the data
// path's bytes per record (the driver's kProcessBatch requests and
// replies, exact), the window-fill boolean (at window 16 the pump really
// keeps nodes x 16 batches in flight), the flat-checkpoint boolean
// (incremental checkpoint bytes do not grow with the state) and the
// exactly-once boolean. Wall seconds, checkpoint bytes, the replication
// stream's bytes per record (coalescing deltas depends on timing) and the
// window speedup stay report-only.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "artifact.h"
#include "broker/broker.h"
#include "common/logging.h"
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

constexpr uint32_t kNumNodes = 3;
constexpr uint32_t kNumVnodes = 16;
const char* const kOp = "counter";
/// Emulated per-batch service latency for the headline ingest phases
/// (see the phase comment in Run).
constexpr int kServiceDelayUs = 500;

/// `node`'s handler for its `RpcServer`. With `service_delay_us` > 0 each
/// kProcessBatch first sleeps that long on the server's connection thread,
/// before the node takes its lock: the emulated latency models a slow
/// link, not a held lock.
RpcServer::Handler DelayedHandler(NodeServer* node, int service_delay_us) {
  if (service_delay_us <= 0) return node->AsHandler();
  return [node, service_delay_us](MessageType type, std::string_view body) {
    if (type == MessageType::kProcessBatch) {
      std::this_thread::sleep_for(std::chrono::microseconds(service_delay_us));
    }
    return node->Handle(type, body);
  };
}

/// One fresh cluster: nodes + RPC servers + TCP driver, with the credit
/// window pinned explicitly.
struct PipelineCluster {
  lsm::PosixEnv* env;
  std::string root;
  TcpTransport transport;  ///< the driver's, behind `counted`
  bench::CountingTransport counted{&transport};
  /// One per node: a node's replication stream must not share a
  /// serially-served connection with the driver's checkpoint barrier.
  std::vector<std::unique_ptr<TcpTransport>> node_transports;
  std::vector<std::unique_ptr<NodeServer>> nodes;
  std::vector<std::unique_ptr<RpcServer>> servers;
  std::unique_ptr<ClusterDriver> driver;
  broker::Partition partition{0};

  /// `replicate` false builds the nodes without a transport, so no
  /// replication stream runs.
  PipelineCluster(lsm::PosixEnv* e, const std::string& parent,
                  const std::string& tag, bool replicate,
                  uint32_t credit_window, int service_delay_us = 0)
      : env(e), root(parent + "/" + tag) {
    RHINO_CHECK_OK(env->CreateDir(root));
    RHINO_CHECK_OK(env->CreateDir(root + "/ckpt"));
    std::vector<std::string> endpoints;
    for (uint32_t i = 0; i < kNumNodes; ++i) {
      std::string data_dir = root + "/n" + std::to_string(i);
      RHINO_CHECK_OK(env->CreateDir(data_dir));
      NodeServerOptions node_options;
      node_options.data_dir = data_dir;
      node_options.ckpt_dir = root + "/ckpt";
      Transport* node_transport = nullptr;
      if (replicate) {
        node_transports.push_back(
            std::make_unique<TcpTransport>());
        node_transport = node_transports.back().get();
      }
      nodes.push_back(std::make_unique<NodeServer>(env, node_transport,
                                                   std::move(node_options)));
      servers.push_back(std::make_unique<RpcServer>(
          DelayedHandler(nodes.back().get(), service_delay_us)));
      RHINO_CHECK_OK(servers.back()->Start("127.0.0.1", 0));
      endpoints.push_back(
          FormatEndpoint("127.0.0.1", servers.back()->port()));
    }
    DriverOptions driver_options;
    driver_options.credit_window = credit_window;
    driver = std::make_unique<ClusterDriver>(&counted, endpoints,
                                             /*obs=*/nullptr, driver_options);
    RHINO_CHECK_OK(driver->ConnectAll());
    RHINO_CHECK_OK(driver->AddOperator(kOp, kNumVnodes));
    driver->AddPartition(&partition);
    RHINO_CHECK_OK(driver->ConnectPartition(kOp, 0));
  }

  ~PipelineCluster() {
    // Streams first, then servers (member order handles the rest): no
    // replicator may be mid-call into a node being torn down.
    for (auto& node : nodes) node->StopReplication();
  }

  void ProduceWave(uint64_t keys) {
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
  }

  /// Appends `waves` waves and drains them with ONE pump; returns the
  /// stats so callers can compute throughput over the pump wall time.
  PumpStats IngestWaves(int waves, uint64_t keys) {
    for (int w = 0; w < waves; ++w) ProduceWave(keys);
    auto pumped = driver->Pump();
    RHINO_CHECK_OK(pumped.status());
    RHINO_CHECK(pumped->applied ==
                keys * static_cast<uint64_t>(waves));
    return *pumped;
  }

  /// Blocks until every node's continuous replication stream is drained
  /// (nothing dirty, nothing in flight) — the steady state a checkpoint
  /// barrier sees when traffic pauses.
  void WaitReplIdle() {
    for (int waited_ms = 0; waited_ms < 10'000; ++waited_ms) {
      bool idle = true;
      for (uint32_t i = 0; i < kNumNodes; ++i) {
        auto stats = driver->NodeStats(i);
        RHINO_CHECK_OK(stats.status());
        if (stats->repl_dirty != 0 || stats->repl_inflight != 0) {
          idle = false;
          break;
        }
      }
      if (idle) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    RHINO_CHECK(false) << "replication stream never drained";
  }
};

/// Passes `MeasureIngest` makes over its cluster.
constexpr int kIngestPasses = 3;

/// A process-wide LSM counter: the nodes are in-process, so it spans every
/// store of every cluster so far.
uint64_t LsmCounter(const char* name) {
  return obs::Observability::Default()->metrics().GetCounter(name)->value();
}

/// Stream bytes every node shipped so far, over all clusters of the run
/// (node ids repeat across clusters, so callers take differences).
uint64_t ShippedBytes() {
  uint64_t total = 0;
  for (uint32_t node = 0; node < kNumNodes; ++node) {
    total += obs::Observability::Default()
                 ->metrics()
                 .GetCounter("rhino_repl_shipped_bytes_total",
                             {{"node", std::to_string(node)}})
                 ->value();
  }
  return total;
}

/// Bytes one ingest put on the wire per applied record.
struct IngestBytes {
  double data_path = 0;    ///< the driver's kProcessBatch requests + replies
  double replication = 0;  ///< the nodes' replication stream deltas
};

/// Ingest throughput of one fresh cluster. The headline runs without
/// replication so it isolates the data plane (the stream's cost shows up
/// in `throughput_records_per_s.pipelined_repl` and the checkpoint phase
/// instead). `bytes_out` gets the bytes per record over every pass, the
/// stream's counted once it drained.
double MeasureIngest(lsm::PosixEnv* env, const std::string& parent,
                     const std::string& tag, bool replicate,
                     uint32_t credit_window, int service_delay_us, int waves,
                     uint64_t keys, PumpStats* stats_out = nullptr,
                     IngestBytes* bytes_out = nullptr) {
  PipelineCluster cluster(env, parent, tag, replicate, credit_window,
                          service_delay_us);
  const uint64_t shipped_before = ShippedBytes();
  // Best of three passes over the same cluster (fresh offsets each time):
  // single-core scheduler noise swings individual pumps by ~15%, too much
  // for the gated headline.
  double best = 0;
  for (int rep = 0; rep < kIngestPasses; ++rep) {
    PumpStats stats = cluster.IngestWaves(waves, keys);
    double tput = static_cast<double>(stats.applied) / stats.wall_s;
    if (tput > best) {
      best = tput;
      if (stats_out != nullptr) *stats_out = stats;
    }
  }
  if (bytes_out != nullptr) {
    if (replicate) cluster.WaitReplIdle();
    const double records =
        static_cast<double>(kIngestPasses) * waves * static_cast<double>(keys);
    bytes_out->data_path =
        static_cast<double>(
            cluster.counted.bytes(MessageType::kProcessBatch)) /
        records;
    bytes_out->replication =
        static_cast<double>(ShippedBytes() - shipped_before) / records;
  }
  return best;
}

/// Checkpoint wall time after ingesting `keys` of state (fresh cluster).
/// The stream shipped the deltas in the background during ingest; once
/// it is idle (the steady state — `WaitReplIdle`) the barrier is a drain
/// check. Min over a few repeats: the first writes every chain base, the
/// others find nothing written since and write nothing, so the minimum
/// is an empty increment (sub-millisecond walls are scheduler-noisy on a
/// small host).
double MeasureCheckpointAfter(lsm::PosixEnv* env, const std::string& parent,
                              const std::string& tag, int waves,
                              uint64_t keys) {
  PipelineCluster cluster(env, parent, tag, /*replicate=*/true,
                          /*credit_window=*/16);
  cluster.IngestWaves(waves, keys);
  cluster.WaitReplIdle();
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    auto ckpt = cluster.driver->Checkpoint();
    RHINO_CHECK_OK(ckpt.status());
    RHINO_CHECK(ckpt->replicated_nodes == kNumNodes);
    double wall = Seconds(t0, Clock::now());
    if (rep == 0 || wall < best) best = wall;
  }
  return best;
}

/// One point of the incremental-checkpoint curve.
struct IncrementalCheckpoint {
  uint64_t base_bytes = 0;
  uint64_t bytes = 0;
  double wall_s = 0;
};

/// A fresh cluster holding `keys` keys: a base checkpoint, then one wave
/// over the first `touched` keys, then the measured checkpoint, which
/// writes only those keys' changes whatever the state size.
IncrementalCheckpoint MeasureIncrementalCheckpoint(lsm::PosixEnv* env,
                                                   const std::string& parent,
                                                   const std::string& tag,
                                                   uint64_t keys,
                                                   uint64_t touched) {
  PipelineCluster cluster(env, parent, tag, /*replicate=*/true,
                          /*credit_window=*/16);
  cluster.IngestWaves(1, keys);
  cluster.WaitReplIdle();
  IncrementalCheckpoint point;
  auto base = cluster.driver->Checkpoint();
  RHINO_CHECK_OK(base.status());
  point.base_bytes = base->bytes;
  cluster.IngestWaves(1, touched);
  cluster.WaitReplIdle();
  auto t0 = Clock::now();
  auto ckpt = cluster.driver->Checkpoint();
  point.wall_s = Seconds(t0, Clock::now());
  RHINO_CHECK_OK(ckpt.status());
  RHINO_CHECK(ckpt->replicated_nodes == kNumNodes);
  point.bytes = ckpt->bytes;
  return point;
}

void Run(bench::BenchArtifact* artifact) {
  const uint64_t keys = bench::SmokeScaled<uint64_t>(512, 256);
  const int waves = bench::SmokeScaled(64, 32);
  const uint64_t ckpt_keys_small = 512;
  const uint64_t ckpt_keys_large = bench::SmokeScaled<uint64_t>(32768, 8192);
  const int ckpt_waves = 2;

  char root_template[] = "/tmp/rhino_dist_pipeline_XXXXXX";
  RHINO_CHECK(mkdtemp(root_template) != nullptr);
  const std::string root = root_template;
  lsm::PosixEnv env;

  metrics::TablePrinter table({"phase", "result", "detail"});

  // Phase 1: ingest at the default window under the emulated service
  // latency (`kServiceDelayUs` — a stand-in for the network hop / remote
  // storage time a real deployment pays and single-core loopback does
  // not), which the pump overlaps across nodes and window slots. The
  // `_raw` run repeats it at zero emulated latency, where the host is
  // purely CPU-bound; `_repl` keeps the replication stream running.
  PumpStats pipelined_stats;
  IngestBytes pipelined_bytes, repl_bytes;
  double pipelined_tput =
      MeasureIngest(&env, root, "pipelined", /*replicate=*/false,
                    /*credit_window=*/16, kServiceDelayUs, waves, keys,
                    &pipelined_stats, &pipelined_bytes);
  // The raw run also counts commits and WAL appends per applied record:
  // each node commits a sub-batch as one LSM commit and one WAL record, so
  // both are about one over the records per node sub-batch (exact; a
  // per-record commit reads 1.0). The store counts commits with or
  // without its WAL.
  const uint64_t commits_before = LsmCounter("rhino_lsm_commits_total");
  const uint64_t wal_appends_before =
      LsmCounter("rhino_lsm_wal_appends_total");
  double pipelined_raw =
      MeasureIngest(&env, root, "pipelined_raw", /*replicate=*/false,
                    /*credit_window=*/16, /*service_delay_us=*/0, waves, keys);
  const double raw_records =
      static_cast<double>(kIngestPasses) * waves * static_cast<double>(keys);
  const double commits_per_record =
      static_cast<double>(LsmCounter("rhino_lsm_commits_total") -
                          commits_before) /
      raw_records;
  const double wal_appends_per_record =
      static_cast<double>(LsmCounter("rhino_lsm_wal_appends_total") -
                          wal_appends_before) /
      raw_records;
  double repl_tput =
      MeasureIngest(&env, root, "pipelined_repl", /*replicate=*/true,
                    /*credit_window=*/16, kServiceDelayUs, waves, keys,
                    /*stats_out=*/nullptr, &repl_bytes);
  table.AddRow({"ingest", std::to_string(pipelined_tput) + " rec/s",
                std::to_string(waves) + " waves x " + std::to_string(keys) +
                    " keys, " + std::to_string(kServiceDelayUs) +
                    "us service latency, max inflight " +
                    std::to_string(pipelined_stats.max_inflight) + ", " +
                    std::to_string(pipelined_stats.credit_stalls) +
                    " credit stalls"});
  table.AddRow({"ingest raw (0us)", std::to_string(pipelined_raw) + " rec/s",
                "CPU-bound loopback, " +
                    std::to_string(commits_per_record) +
                    " commits and " +
                    std::to_string(wal_appends_per_record) +
                    " WAL appends per record"});
  table.AddRow({"ingest + replication", std::to_string(repl_tput) + " rec/s",
                "continuous replication streaming during ingest"});
  table.AddRow({"bytes per record",
                std::to_string(pipelined_bytes.data_path) + " / " +
                    std::to_string(repl_bytes.replication) + " B",
                "data path (batch requests + replies) / replication "
                "stream"});
  artifact->Set("throughput_records_per_s.pipelined", pipelined_tput);
  artifact->Set("throughput_records_per_s.pipelined_raw", pipelined_raw);
  artifact->Set("commits_per_record.pipelined_raw", commits_per_record);
  artifact->Set("wal_appends_per_record.pipelined_raw",
                wal_appends_per_record);
  artifact->Set("throughput_records_per_s.pipelined_repl", repl_tput);
  artifact->Set("bytes_per_record.data_path", pipelined_bytes.data_path);
  artifact->Set("bytes_per_record.replication", repl_bytes.replication);
  artifact->Set("service_delay_us", kServiceDelayUs);
  artifact->Set("max_inflight.pipelined",
                static_cast<double>(pipelined_stats.max_inflight));
  artifact->Set("credit_stalls.pipelined",
                static_cast<double>(pipelined_stats.credit_stalls));

  // Phase 2: credit-window sweep. Window 1 is the blocking pump (one batch
  // per node in flight, still overlapped across nodes). The speedup of
  // window 16 over it is report-only: it is too thin for a wall gate.
  // What is gated is that window 16 actually fills — every node holds 16
  // batches in flight at once — since that is what the credits are for.
  double window1_tput = 0, window16_tput = 0;
  uint32_t window16_inflight = 0;
  for (uint32_t window : {1u, 4u, 16u, 32u}) {
    PumpStats stats;
    double tput = MeasureIngest(&env, root,
                                "window" + std::to_string(window),
                                /*replicate=*/false, window, kServiceDelayUs,
                                waves, keys, &stats);
    if (window == 1) window1_tput = tput;
    if (window == 16) {
      window16_tput = tput;
      window16_inflight = stats.max_inflight;
    }
    table.AddRow({"window " + std::to_string(window),
                  std::to_string(tput) + " rec/s",
                  std::to_string(stats.credit_stalls) + " credit stalls, max "
                  "inflight " + std::to_string(stats.max_inflight)});
    artifact->Set("throughput_records_per_s.window." + std::to_string(window),
                  tput);
    artifact->Set("credit_stalls.window." + std::to_string(window),
                  static_cast<double>(stats.credit_stalls));
  }
  const double window_speedup = window16_tput / window1_tput;
  artifact->Set("window_speedup", window_speedup);
  artifact->Set("max_inflight.window.16",
                static_cast<double>(window16_inflight));
  artifact->Set("window_fills_ok",
                window16_inflight == kNumNodes * 16 ? 1.0 : 0.0);

  // Phase 3: checkpoint wall vs state volume, once the replication stream
  // is idle. The best of five back-to-back checkpoints is one that finds
  // nothing written since the previous one: the barrier's drain check.
  double ckpt_small = MeasureCheckpointAfter(&env, root, "ckpt_small",
                                             ckpt_waves, ckpt_keys_small);
  double ckpt_large = MeasureCheckpointAfter(&env, root, "ckpt_large",
                                             ckpt_waves, ckpt_keys_large);
  table.AddRow({"checkpoint", std::to_string(ckpt_small) + " / " +
                                  std::to_string(ckpt_large) + " s",
                "small / large volume, nothing written since the last "
                "checkpoint"});
  artifact->Set("checkpoint_wall_s.pipelined.small", ckpt_small);
  artifact->Set("checkpoint_wall_s.pipelined.large", ckpt_large);
  artifact->Set("checkpoint_growth.pipelined", ckpt_large / ckpt_small);

  // Phase 3b: incremental checkpoints against state size. The same keys
  // change at every size, so a checkpoint that writes only what changed
  // stays flat while the base grows with the state. Bytes are gated
  // (deterministic); walls are report-only.
  const uint64_t touched_keys = 128;  // <= a quarter of the smallest size
  const std::vector<uint64_t> sizes = {
      512, bench::SmokeScaled<uint64_t>(4096, 2048),
      bench::SmokeScaled<uint64_t>(32768, 8192)};
  std::vector<IncrementalCheckpoint> curve;
  for (uint64_t size : sizes) {
    curve.push_back(MeasureIncrementalCheckpoint(
        &env, root, "incremental" + std::to_string(size), size,
        touched_keys));
    const IncrementalCheckpoint& point = curve.back();
    const std::string suffix = "." + std::to_string(size);
    artifact->Set("checkpoint_bytes.base" + suffix,
                  static_cast<double>(point.base_bytes));
    artifact->Set("checkpoint_bytes.incremental" + suffix,
                  static_cast<double>(point.bytes));
    artifact->Set("checkpoint_wall_s.incremental" + suffix, point.wall_s);
    table.AddRow({"incremental " + std::to_string(size) + " keys",
                  std::to_string(point.bytes) + " B / " +
                      std::to_string(point.wall_s) + " s",
                  std::to_string(touched_keys) + " keys written after a " +
                      std::to_string(point.base_bytes) + " B base"});
  }
  const bool flat = curve.back().bytes <= 1.5 * curve.front().bytes;
  artifact->Set("checkpoint_bytes_flat_ok", flat ? 1.0 : 0.0);

  // Phase 4: fail-stop + exactly-once audit.
  uint64_t lost = 0, duplicated = 0;
  uint64_t expected = 0;
  {
    PipelineCluster cluster(&env, root, "recover", /*replicate=*/true,
                            /*credit_window=*/16);
    cluster.IngestWaves(3, keys);
    RHINO_CHECK_OK(cluster.driver->Checkpoint().status());
    cluster.IngestWaves(2, keys);  // post-checkpoint window, must replay
    cluster.servers[2]->Stop();    // fail-stop: connections refused
    RHINO_CHECK(cluster.driver->ProbeFailures() ==
                std::vector<uint32_t>{2});
    RHINO_CHECK_OK(cluster.driver->RecoverNode(2));
    RHINO_CHECK_OK(cluster.driver->Pump().status());  // replay
    cluster.ProduceWave(keys);  // steady state on the survivors
    RHINO_CHECK_OK(cluster.driver->Pump().status());
    expected = 6;
    for (uint64_t key = 0; key < keys; ++key) {
      auto count = cluster.driver->QueryCount(kOp, key);
      RHINO_CHECK_OK(count.status());
      if (*count < expected) lost += expected - *count;
      if (*count > expected) duplicated += *count - expected;
    }
  }
  artifact->Set("records.lost", static_cast<double>(lost));
  artifact->Set("records.duplicated", static_cast<double>(duplicated));
  artifact->Set("exactly_once_ok",
                (lost == 0 && duplicated == 0) ? 1.0 : 0.0);
  RHINO_CHECK(lost == 0) << lost << " records lost";
  RHINO_CHECK(duplicated == 0) << duplicated << " records duplicated";
  table.AddRow({"kill + recover", "exactly-once",
                "every key counted " + std::to_string(expected) +
                    "x after SIGKILL-style failure"});

  // Phase 5: two-stage graph throughput (report-only). The counter's
  // output records stream back in kProcessBatch replies, land in the
  // driver-resident edge log, and feed the left input of a symmetric hash
  // join whose right input is a second broker partition — every record
  // crosses the wire twice (partition -> counter, counter -> join), so
  // the number isolates the cost the edge log adds over single-stage
  // ingest.
  {
    PipelineCluster cluster(&env, root, "two_stage", /*replicate=*/false,
                            /*credit_window=*/16);
    dataflow::OperatorSpec join_spec;
    join_spec.kind = dataflow::OperatorKind::kSymmetricHashJoin;
    join_spec.name = "join";
    join_spec.num_vnodes = kNumVnodes;
    join_spec.input_arity = 2;
    RHINO_CHECK_OK(cluster.driver->AddOperator(join_spec));
    broker::Partition right{1};
    cluster.driver->AddPartition(&right);
    RHINO_CHECK_OK(cluster.driver->ConnectOperators(kOp, "join", /*side=*/0));
    RHINO_CHECK_OK(cluster.driver->ConnectPartition("join", /*partition=*/1,
                                                    /*side=*/1));
    // One build wave on the right, then the probe stream on the left.
    dataflow::Batch build;
    for (uint64_t key = 0; key < keys; ++key) {
      dataflow::Record rec;
      rec.key = key;
      rec.event_time = 1000;
      rec.size = 32;
      rec.payload = "r";
      build.records.push_back(rec);
      build.count += 1;
      build.bytes += rec.size;
    }
    right.Append(std::move(build));
    const int two_stage_waves = bench::SmokeScaled(16, 8);
    for (int w = 0; w < two_stage_waves; ++w) cluster.ProduceWave(keys);
    auto pumped = cluster.driver->Pump();
    RHINO_CHECK_OK(pumped.status());
    // Applied spans both stages: counter applies every left record, the
    // join applies the build wave plus every counter output record.
    double two_stage_tput =
        static_cast<double>(pumped->applied) / pumped->wall_s;
    table.AddRow({"two-stage counter->join",
                  std::to_string(two_stage_tput) + " rec/s",
                  std::to_string(two_stage_waves) + " waves through the "
                  "edge log, both stages counted"});
    artifact->Set("throughput_records_per_s.two_stage", two_stage_tput);
  }

  table.Print();
  std::printf("\nwindow 16 / window 1 ingest speedup: %.2fx (max inflight "
              "%u of %u at window 16, 0 records lost)\n",
              window_speedup, window16_inflight, kNumNodes * 16);

  artifact->Set("nodes", kNumNodes);
  artifact->SetInfo("transport", "tcp (loopback)");
  artifact->SetInfo("regression_gate",
                    "throughput_records_per_s.pipelined, "
                    "commits_per_record.pipelined_raw, "
                    "wal_appends_per_record.pipelined_raw, "
                    "bytes_per_record.data_path, window_fills_ok, "
                    "checkpoint_bytes.base.*, "
                    "checkpoint_bytes.incremental.*, "
                    "checkpoint_bytes_flat_ok, exactly_once_ok");

  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

}  // namespace
}  // namespace rhino::net

int main() {
  std::printf("=== Pipelined network data plane: ingest, credits, "
              "checkpoint, recovery ===\n\n");
  rhino::bench::BenchArtifact artifact("dist_pipeline");
  rhino::net::Run(&artifact);
  RHINO_CHECK_OK(artifact.Write());
  return 0;
}
