#include "baselines/flink_restart.h"

#include <map>
#include <memory>
#include <set>

#include "common/logging.h"
#include "dataflow/sink.h"
#include "dataflow/source.h"
#include "dataflow/stateful.h"
#include "dfs/dfs.h"

namespace rhino::baselines {

using dataflow::SinkInstance;
using dataflow::SourceInstance;
using dataflow::StatefulInstance;

namespace {

/// Cancel + redeploy bookkeeping (paper Table 1: ~2.2-2.6 s).
constexpr SimTime kSchedulingFixedUs = 2200 * kMillisecond;
constexpr SimTime kSchedulingPerInstanceUs = 2 * kMillisecond;
/// RocksDB open after materialization (paper: ~1.3-1.8 s).
constexpr SimTime kLoadFixedUs = 1300 * kMillisecond;
constexpr SimTime kLoadPerFileUs = 2 * kMillisecond;

}  // namespace

void FlinkRestartController::RestartFromLastCheckpoint(
    int failed_node, std::function<void(RestartBreakdown)> done) {
  sim::Simulation* sim = engine_->sim();
  const auto* ckpt = engine_->LastCompletedCheckpoint();
  SimTime start = sim->Now();

  // 1. Cancel the job: every instance stops and drops its queues.
  int instances = 0;
  for (SourceInstance* s : engine_->sources()) {
    s->Halt();
    ++instances;
  }
  for (StatefulInstance* s : engine_->stateful()) {
    s->Halt();
    ++instances;
  }
  for (SinkInstance* s : engine_->sinks()) {
    s->Halt();
    ++instances;
  }

  // 2. Redeploy. Flink's scheduler offers no state locality on restart:
  //    tasks land wherever slots are free, so restored state is mostly
  //    remote in the DFS (this drives the fetch times of Table 1).
  if (failed_node >= 0) {
    // Live worker slots = the nodes the job currently occupies, minus the
    // failed one (broker/coordinator nodes never run tasks).
    std::set<int> worker_set;
    for (StatefulInstance* s : engine_->stateful()) worker_set.insert(s->node_id());
    for (SourceInstance* s : engine_->sources()) worker_set.insert(s->node_id());
    std::vector<int> live;
    for (int n : worker_set) {
      if (n != failed_node && engine_->cluster()->node(n).alive()) {
        live.push_back(n);
      }
    }
    RHINO_CHECK(!live.empty());
    size_t cursor = 1;  // offset shuffles every task off its old slot
    auto reassign = [&](dataflow::OperatorInstance* inst) {
      inst->set_node_id(live[(inst->node_id() + cursor++) % live.size()]);
    };
    for (SourceInstance* s : engine_->sources()) reassign(s);
    for (StatefulInstance* s : engine_->stateful()) reassign(s);
    for (SinkInstance* s : engine_->sinks()) reassign(s);
  }

  SimTime scheduling =
      kSchedulingFixedUs +
      kSchedulingPerInstanceUs * static_cast<SimTime>(instances);

  sim->Schedule(scheduling, [this, sim, ckpt, start, scheduling,
                             done = std::move(done)] {
    // 3. State fetching: every stateful instance pulls its full state
    //    image out of the DFS in parallel.
    SimTime fetch_start = sim->Now();
    auto pending = std::make_shared<size_t>(0);
    auto after_fetch = std::make_shared<std::function<void()>>();
    for (StatefulInstance* inst : engine_->stateful()) {
      auto paths = storage_->PathsFor(inst->op_name(),
                                      static_cast<uint32_t>(inst->subtask()));
      for (const auto& path : paths) {
        ++*pending;
        storage_->dfs()->ReadFile(path, inst->node_id(),
                                  [pending, after_fetch](Status st) {
                                    RHINO_CHECK(st.ok()) << st.ToString();
                                    if (--*pending == 0) (*after_fetch)();
                                  });
      }
    }

    *after_fetch = [this, sim, ckpt, start, scheduling, fetch_start,
                    done = std::move(done)] {
      SimTime fetch = sim->Now() - fetch_start;
      // 4. State loading: open the materialized files.
      SimTime load = kLoadFixedUs;
      for (StatefulInstance* inst : engine_->stateful()) {
        const rhino::ReplicaState* latest = storage_->LatestFor(
            inst->op_name(), static_cast<uint32_t>(inst->subtask()));
        if (latest != nullptr) {
          load += kLoadPerFileUs *
                  static_cast<SimTime>(
                      latest->latest_descriptor.files.size()) /
                  std::max<SimTime>(
                      1, static_cast<SimTime>(engine_->stateful().size()));
        }
      }
      sim->Schedule(load, [this, sim, start, scheduling, fetch, load,
                           ckpt, done = std::move(done)] {
        RestoreStateAndResume([sim, start, scheduling, fetch, load, done] {
          RestartBreakdown breakdown;
          breakdown.scheduling_us = scheduling;
          breakdown.state_fetch_us = fetch;
          breakdown.state_load_us = load;
          (void)start;
          done(breakdown);
        });
        (void)ckpt;
      });
    };

    if (*pending == 0) (*after_fetch)();
  });
}

void FlinkRestartController::RestoreStateAndResume(
    std::function<void()> resumed) {
  const auto* ckpt = engine_->LastCompletedCheckpoint();

  // Rebuild every stateful instance's backend from the checkpoint content.
  // A rebalance reassigns vnodes before the restart, so a vnode's image
  // sits in the entry of the instance that owned it at the checkpoint:
  // look each owned vnode up across the operator's entries.
  std::map<std::string, std::map<uint32_t, state::VnodeImage>> images;
  for (StatefulInstance* inst : engine_->stateful()) {
    auto [it, fresh] = images.try_emplace(inst->op_name());
    if (fresh) it->second = storage_->LatestImages(inst->op_name());
  }
  for (StatefulInstance* inst : engine_->stateful()) {
    auto subtask = static_cast<uint32_t>(inst->subtask());
    inst->ReplaceBackend(backend_factory_(inst->op_name(), subtask));
    const auto& op_images = images[inst->op_name()];
    dataflow::StatefulInstance::WatermarkMap marks;
    for (uint32_t v : inst->owned_vnodes()) {
      auto it = op_images.find(v);
      if (it == op_images.end()) continue;
      // One durable ingest per vnode, each one restored file.
      RHINO_CHECK_OK(inst->backend()->IngestImages({it->second},
                                                   /*already_durable=*/true));
      marks[v] = it->second.watermarks;
    }
    // The whole job rolled back to the checkpoint: dedup positions roll
    // back with it so the replay is re-processed.
    inst->ResetWatermarks(std::move(marks));
    inst->Resume();
  }
  for (dataflow::SinkInstance* sink : engine_->sinks()) sink->Resume();

  // Sources rewind to the checkpointed offsets and replay the backlog.
  for (SourceInstance* src : engine_->sources()) {
    uint64_t offset = 0;
    if (ckpt != nullptr) {
      auto it = ckpt->descriptors.find(src->op_name() + "#" +
                                       std::to_string(src->subtask()));
      if (it != ckpt->descriptors.end()) {
        auto oit = it->second.source_offsets.find(src->subtask());
        if (oit != it->second.source_offsets.end()) offset = oit->second;
      }
    }
    src->ResetOffset(offset);
    src->Resume();
    src->Start();
  }
  resumed();
}

}  // namespace rhino::baselines
