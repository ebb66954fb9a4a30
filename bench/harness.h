#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/flink_restart.h"
#include "baselines/megaphone.h"
#include "broker/broker.h"
#include "dataflow/engine.h"
#include "dataflow/graph.h"
#include "dfs/dfs.h"
#include "metrics/resource_monitor.h"
#include "metrics/timeline.h"
#include "nexmark/nexmark.h"
#include "obs/observability.h"
#include "rhino/checkpoint_storage.h"
#include "rhino/handover_manager.h"
#include "rhino/replication_manager.h"
#include "rhino/replication_runtime.h"
#include "sim/cluster.h"
#include "sim/simulation.h"

/// \file harness.h
/// Shared experiment testbed for every bench binary: the paper's cluster
/// (8 worker VMs + 4 broker VMs of `n1-standard-16` spec, §5.1.1), NEXMark
/// generators, one system-under-test, and scenario drivers (failure,
/// rescaling, load balancing) with state seeding so TB-scale experiments
/// start from the paper's preconditions.

namespace rhino::bench {

/// Systems under test (paper §5).
enum class Sut { kFlink, kRhino, kRhinoDfs, kMegaphone };

const char* SutName(Sut sut);

struct TestbedOptions {
  Sut sut = Sut::kRhino;
  std::string query = "NBQ8";  // NBQ5 | NBQ8 | NBQX
  int num_workers = 8;
  int num_broker_nodes = 4;
  /// Scaled-down parallelism keeps simulated event counts tractable while
  /// preserving per-worker ratios; pass the paper's values to match §5.1.3
  /// exactly.
  int source_parallelism = 16;
  int stateful_parallelism = 32;
  uint32_t num_key_groups = 1 << 15;
  uint32_t vnodes_per_instance = 4;
  int replication_factor = 1;  // Rhino: local primary + 1 remote secondary
  /// Per-partition generator rate (paper NBQ8: 8 MB/s per producer).
  double gen_bytes_per_sec = 8e6;
  /// Modeled per-instance service rates. NBQ5's 128 MB/s of 32 B bids
  /// needs millions of records/s per instance (the paper's SUTs sustain
  /// ~135 M records/s across 64 instances).
  double stateful_records_per_sec = 4e6;
  double source_records_per_sec = 8e6;
  SimTime gen_tick = 500 * kMillisecond;
  std::function<double(SimTime)> rate_factor;
  SimTime checkpoint_interval = 2 * kMinute;
  /// Instances (per stateful op) deployed but initially owning no vnodes;
  /// the vertical-scaling scenario hands vnodes to them (paper §5.4.1:
  /// DOP 56 -> 64 means 1/8 of the instances start idle).
  int spare_instances = 0;
  rhino::ReplicationOptions replication;
};

/// A fully wired experiment.
class Testbed {
 public:
  explicit Testbed(TestbedOptions options);
  /// When RHINO_TRACE_DUMP names a directory, teardown writes the protocol
  /// trace there as Chrome trace_event JSON (chrome://tracing / Perfetto)
  /// plus the metrics as Prometheus text.
  ~Testbed();

  /// Starts generators, sources, and periodic checkpoints.
  void Start();
  void StopGenerators();

  /// Injects `total_bytes` of pre-existing operator state, spread evenly
  /// over the query's stateful instances and their vnodes, and registers
  /// it as checkpointed + replicated/persisted (per SUT) — the paper's
  /// "run until the desired state size" precondition.
  void SeedState(uint64_t total_bytes);

  uint64_t TotalStateBytes() const;

  /// Runs the simulation for `duration` of simulated time.
  void Run(SimTime duration) { sim.RunUntil(sim.Now() + duration); }

  /// Fail-stop one worker (by worker index, 0-based).
  void FailWorker(int worker_index);

  /// SUT-dispatching recovery; returns when recovery has been *triggered*
  /// (completion is observed through `engine.handovers()` / `breakdown`).
  struct RecoveryBreakdown {
    bool supported = true;
    bool oom = false;
    SimTime scheduling_us = 0;
    SimTime state_fetch_us = 0;
    SimTime state_load_us = 0;
    SimTime total_us = 0;
  };
  /// Recovers from the failure of `worker_index` and runs the simulation
  /// until recovery completes; returns the time breakdown (Table 1).
  RecoveryBreakdown Recover(int worker_index);

  /// Vertical-scaling scenario (§5.4.1): moves vnodes from the active
  /// instances onto the spare ones. With Flink this is a full restart.
  void TriggerRescale(double fraction);

  /// Load-balancing scenario (§5.4.2): moves `fraction` of the vnodes of
  /// each of the first `origins` instances to the following instance.
  void TriggerLoadBalance(int origins, double fraction);

  /// Node ids of the workers (cluster nodes 0..num_workers-1).
  std::vector<int> worker_nodes() const;

  // ---- components (construction order matters) ----
  TestbedOptions options;
  /// The discrete-event kernel every component schedules on; scenario
  /// drivers step it.
  sim::Simulation sim;
  /// Per-testbed observability context (simulated-clock trace + metrics);
  /// installed on the engine and the out-of-engine components in the ctor
  /// so benches that build several testbeds in one process don't bleed
  /// counters into each other.
  obs::Observability observability;
  sim::Cluster cluster;
  broker::Broker broker;
  dataflow::Engine engine;
  dfs::DistributedFileSystem dfs;
  rhino::ReplicationManager rm;
  rhino::ReplicationRuntime replication;
  rhino::RhinoCheckpointStorage rhino_storage;
  rhino::DfsCheckpointStorage dfs_storage;
  std::unique_ptr<rhino::HandoverManager> hm;
  std::unique_ptr<baselines::FlinkRestartController> flink;
  std::unique_ptr<baselines::MegaphoneModel> megaphone;
  std::unique_ptr<dataflow::HandoverDelegate> megaphone_delegate;
  metrics::LatencyRecorder latency;
  std::unique_ptr<metrics::ResourceMonitor> monitor;
  std::unique_ptr<dataflow::ExecutionGraph> graph;
  std::vector<std::unique_ptr<nexmark::NexmarkGenerator>> generators;
  std::vector<std::string> stateful_ops;

 private:
  void BuildQuery();
  void WireSut();
  void BuildReplicaGroups();

  uint64_t next_adhoc_id_ = 1;
};

}  // namespace rhino::bench
