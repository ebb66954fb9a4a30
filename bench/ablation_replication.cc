// Ablation of Rhino's replication-protocol design choices (DESIGN.md §4):
//
//  * replica-group size r — more copies cost proportionally more transfer
//    but give more recovery targets;
//  * chunk size and credit window — the credit-based flow control trades
//    pinned memory for pipeline utilization;
//  * chain pipelining — compared against an (ablated) store-and-forward
//    policy where each hop starts only after receiving everything.

#include <cstdio>

#include "artifact.h"
#include "common/logging.h"
#include "metrics/table.h"
#include "rhino/replication_manager.h"
#include "rhino/replication_runtime.h"
#include "sim/cluster.h"
#include "sim/simulation.h"

namespace rhino::rhino {
namespace {

state::CheckpointDescriptor Desc(uint64_t delta) {
  state::CheckpointDescriptor desc;
  desc.checkpoint_id = 1;
  desc.operator_name = "op";
  desc.instance_id = 0;
  desc.files = {{"delta", delta}};
  desc.delta_files = {{"delta", delta}};
  return desc;
}

SimTime Replicate(int r, ReplicationOptions options, uint64_t delta,
                  bool store_and_forward = false) {
  sim::Simulation sim;
  sim::Cluster cluster(&sim, 8);
  ReplicationManager rm({0, 1, 2, 3, 4, 5, 6, 7}, r);
  rm.BuildGroups({{"op", 0, 0, 1}});
  if (store_and_forward) {
    // Ablation: a credit window of 1 with checkpoint-sized chunks degrades
    // the chain into store-and-forward.
    options.chunk_bytes = delta;
    options.credit_window = 1;
  }
  ReplicationRuntime runtime(&cluster, &rm, options);
  SimTime completed = 0;
  runtime.ReplicateCheckpoint("op", 0, 0, Desc(delta), {},
                              [&](Status) { completed = sim.Now(); });
  sim.Run();
  return completed;
}

void Run(bench::BenchArtifact* artifact) {
  // One big incremental checkpoint (shrunk in CI smoke).
  const uint64_t delta = bench::SmokeScaled<uint64_t>(8ull * kGiB, kGiB);
  std::printf("delta = %s per instance\n\n", FormatBytes(delta).c_str());

  std::printf("--- replica-group size r (chunk 8 MiB, window 4) ---\n");
  metrics::TablePrinter r_table({"r", "replication time", "vs r=1"});
  SimTime r1 = 0;
  for (int r = 1; r <= 4; ++r) {
    SimTime t = Replicate(r, ReplicationOptions(), delta);
    if (r == 1) r1 = t;
    artifact->Set("replication_s.r" + std::to_string(r), ToSeconds(t));
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  static_cast<double>(t) / static_cast<double>(r1));
    r_table.AddRow({std::to_string(r), FormatDuration(t), ratio});
  }
  r_table.Print();

  std::printf("\n--- chain pipelining vs store-and-forward (r=3) ---\n");
  metrics::TablePrinter p_table({"mode", "replication time"});
  SimTime pipelined = Replicate(3, ReplicationOptions(), delta);
  SimTime snf = Replicate(3, ReplicationOptions(), delta,
                          /*store_and_forward=*/true);
  artifact->Set("replication_s.pipelined", ToSeconds(pipelined));
  artifact->Set("replication_s.store_and_forward", ToSeconds(snf));
  p_table.AddRow({"chain (pipelined)", FormatDuration(pipelined)});
  p_table.AddRow({"store-and-forward", FormatDuration(snf)});
  p_table.Print();

  std::printf("\n--- credit window sweep (r=2, chunk 8 MiB) ---\n");
  metrics::TablePrinter w_table({"window", "replication time",
                                 "max in-flight chunks"});
  for (int window : {1, 2, 4, 8, 16}) {
    sim::Simulation sim;
    sim::Cluster cluster(&sim, 8);
    ReplicationManager rm({0, 1, 2, 3, 4, 5, 6, 7}, 2);
    rm.BuildGroups({{"op", 0, 0, 1}});
    ReplicationOptions options;
    options.credit_window = window;
    ReplicationRuntime runtime(&cluster, &rm, options);
    SimTime completed = 0;
    runtime.ReplicateCheckpoint("op", 0, 0, Desc(delta), {},
                                [&](Status) { completed = sim.Now(); });
    sim.Run();
    artifact->Set("replication_s.window" + std::to_string(window),
                  ToSeconds(completed));
    w_table.AddRow({std::to_string(window), FormatDuration(completed),
                    std::to_string(runtime.max_in_flight_chunks())});
  }
  w_table.Print();

  std::printf("\n--- chunk size sweep (r=2, window 4) ---\n");
  metrics::TablePrinter c_table({"chunk", "replication time"});
  for (uint64_t chunk : {1 * kMiB, 4 * kMiB, 8 * kMiB, 32 * kMiB, 128 * kMiB}) {
    ReplicationOptions options;
    options.chunk_bytes = chunk;
    SimTime t = Replicate(2, options, delta);
    artifact->Set("replication_s.chunk" + std::to_string(chunk / kMiB) + "MiB",
                  ToSeconds(t));
    c_table.AddRow({FormatBytes(chunk), FormatDuration(t)});
  }
  c_table.Print();
}

}  // namespace
}  // namespace rhino::rhino

int main() {
  std::printf("=== Ablation: state-centric replication protocol ===\n\n");
  rhino::bench::BenchArtifact artifact("ablation_replication");
  rhino::rhino::Run(&artifact);
  RHINO_CHECK_OK(artifact.Write());
  return 0;
}
