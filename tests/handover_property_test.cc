// Property-based verification of Theorem 1 (paper §4.1.3): for *any*
// schedule of records and reconfigurations, a query reconfigured by
// handovers produces exactly the same keyed results as an undisturbed
// golden run — no record lost, none double-counted — and every handover
// completes in finite time.
//
// Each parameterized instance drives a random workload (seeded), injects
// 1-3 random handovers (random origin/target/vnode subsets, including
// chained moves and whole-instance moves) at random times, and compares
// final per-key counts and the total state size against the golden run of
// the same schedule; every vnode must end with exactly the owner the
// routing names.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "broker/broker.h"
#include "common/random.h"
#include "dataflow/engine.h"
#include "dataflow/graph.h"
#include "dataflow/sink.h"
#include "dataflow/stateful.h"
#include "lsm/env.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "state/lsm_state_backend.h"

namespace rhino::dataflow {
namespace {

constexpr int kPartitions = 4;
constexpr int kParallelism = 4;
constexpr int kWaves = 6;
constexpr int kKeysPerWave = 25;

/// One reconfiguration planned from a seed.
struct PlannedMove {
  int wave = 0;  // inject after this wave
  uint32_t origin = 0;
  uint32_t target = 0;
  double fraction = 0.5;
};

/// Deterministic transfer delegate with a seed-dependent delay.
class DelayedDelegate : public HandoverDelegate {
 public:
  DelayedDelegate(sim::Simulation* sim, SimTime delay)
      : sim_(sim), delay_(delay) {}

  void TransferState(const HandoverSpec& spec, const HandoverMove& move,
                     StatefulInstance* origin, StatefulInstance* target,
                     std::function<void()> done) override {
    ASSERT_NE(origin, nullptr);
    auto images = origin->ReadImages(move.vnodes);
    ASSERT_TRUE(images.ok());
    HandoverSpec spec_copy = spec;
    HandoverMove move_copy = move;
    sim_->Schedule(delay_, [=, images = std::move(images).MoveValue()] {
      RHINO_CHECK_OK(target->IngestImages(images, false));
      origin->CompleteHandoverAsOrigin(spec_copy, move_copy);
      target->CompleteHandoverAsTarget(spec_copy, move_copy);
      done();
    });
  }

 private:
  sim::Simulation* sim_;
  SimTime delay_;
};

/// What a run ends with: the highest count emitted per key, and the
/// nominal state size summed over every instance.
struct RunResult {
  std::map<uint64_t, uint64_t> counts;
  uint64_t state_bytes = 0;
};

/// Runs the workload; when `moves` is empty this is the golden run.
RunResult RunSchedule(uint64_t seed, const std::vector<PlannedMove>& moves) {
  sim::Simulation sim;
  sim::Cluster cluster(&sim, 5);
  broker::Broker broker({0});
  broker.CreateTopic("events", kPartitions);
  EngineOptions opts;
  opts.num_key_groups = 64;
  opts.vnodes_per_instance = 4;
  Engine engine(&cluster, &broker, opts);
  lsm::MemEnv env;

  // Per-run trace on the simulated clock, with the per-batch data-event
  // firehose on: the shape assertions below need to see every delivery.
  obs::Observability obs;
  obs.SetClock([&sim] { return sim.Now(); });
  obs.trace().set_data_events(true);
  engine.SetObservability(&obs);

  QueryDef def;
  def.AddSource("src", "events", kPartitions)
      .AddStateful("counter", kParallelism, {"src"},
                   [&env](Engine* eng, int subtask, int node) {
                     auto backend = state::LsmStateBackend::Open(
                         &env, "/state/c" + std::to_string(subtask), "counter",
                         static_cast<uint32_t>(subtask));
                     RHINO_CHECK(backend.ok());
                     return std::make_unique<KeyedCounterOperator>(
                         eng, "counter", subtask, node, ProcessingProfile(),
                         std::move(backend).MoveValue());
                   })
      .AddSink("sink", 1, {"counter"});
  auto graph = ExecutionGraph::Build(&engine, def, {1, 2, 3, 4});

  DelayedDelegate delegate(&sim, static_cast<SimTime>(seed % 7) * 10 *
                                     kMillisecond);
  engine.SetHandoverDelegate(&delegate);

  RunResult result;
  graph->sinks("sink")[0]->SetCollector([&](const Record& r) {
    uint64_t c = std::stoull(r.payload);
    if (c > result.counts[r.key]) result.counts[r.key] = c;
  });
  graph->StartSources();

  // The record schedule is derived purely from the seed so the golden and
  // reconfigured runs see identical inputs.
  Random workload(seed);
  uint64_t handover_id = 1;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (int i = 0; i < kKeysPerWave; ++i) {
      uint64_t key = workload.Uniform(40);
      Batch batch;
      batch.create_time = sim.Now();
      batch.count = 1;
      batch.bytes = 8;
      batch.records.push_back(Record{key, sim.Now(), 8, "x"});
      broker.topic("events")
          .partition(static_cast<int>(key) % kPartitions)
          .Append(std::move(batch));
    }
    for (const PlannedMove& planned : moves) {
      if (planned.wave != wave) continue;
      auto vnodes = engine.routing("counter")->VnodesOfInstance(planned.origin);
      if (vnodes.empty()) continue;  // origin already drained by a prior move
      size_t take = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(vnodes.size()) *
                                 planned.fraction));
      vnodes.resize(std::min(take, vnodes.size()));
      auto spec = std::make_shared<HandoverSpec>();
      spec->id = handover_id++;
      spec->operator_name = "counter";
      spec->moves = {HandoverMove{planned.origin, planned.target, vnodes}};
      // A move of vnodes an uncompleted handover is still moving is
      // refused; the routing then stays as it is.
      const Status started = engine.StartHandover(spec);
      if (!started.ok()) {
        EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition);
      }
    }
    sim.RunUntil(sim.Now() + kSecond);
  }
  sim.Run();

  // Finite completion (Theorem 1, part 2).
  for (const auto& record : engine.handovers()) {
    EXPECT_TRUE(record.completed) << "handover " << record.spec->id;
  }
  // Every vnode has exactly the owner the routing names.
  for (StatefulInstance* inst : graph->stateful("counter")) {
    auto routed = engine.routing("counter")->VnodesOfInstance(
        static_cast<uint32_t>(inst->subtask()));
    EXPECT_EQ(inst->owned_vnodes(),
              std::set<uint32_t>(routed.begin(), routed.end()))
        << "instance " << inst->subtask();
    result.state_bytes += inst->backend()->SizeBytes();
  }

  // Trace-shape form of exactly-once (stronger than comparing end states):
  // while an instance holds alignment for a handover (buffering_hold span),
  // no record may be delivered to it on the same scope.
  const obs::TraceLog& trace = obs.trace();
  for (const obs::TraceEvent* hold : trace.Spans("handover", "buffering_hold")) {
    EXPECT_FALSE(hold->is_open())
        << "hold never released on " << hold->scope;
    for (const obs::TraceEvent* d : trace.Select("data", "deliver")) {
      if (d->scope != hold->scope) continue;
      EXPECT_FALSE(hold->time_us < d->time_us && d->time_us < hold->end_us())
          << "record delivered to " << d->scope << " at t=" << d->time_us
          << " inside hold [" << hold->time_us << ", " << hold->end_us()
          << ") of handover " << hold->id;
    }
  }
  // Every alignment resolved (no orphaned marker alignments), and every
  // completed handover shows up as a closed engine-level span.
  for (const obs::TraceEvent* align : trace.Spans("align")) {
    EXPECT_FALSE(align->is_open()) << align->scope << " id " << align->id;
  }
  size_t completed = 0;
  for (const auto& record : engine.handovers()) {
    if (record.completed) ++completed;
  }
  EXPECT_EQ(trace.Spans("handover", "handover").size(), completed);
  if (!moves.empty() && completed > 0) {
    // A handover that moved vnodes must have rewired at least one gate
    // before releasing the buffered records.
    EXPECT_GT(trace.Count("handover", "rewire"), 0u);
  }
  return result;
}

class HandoverPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HandoverPropertyTest, ReconfiguredRunEqualsGoldenRun) {
  uint64_t seed = GetParam();
  Random plan(seed * 7919 + 13);
  std::vector<PlannedMove> moves;
  int num_moves = 1 + static_cast<int>(plan.Uniform(3));
  for (int i = 0; i < num_moves; ++i) {
    PlannedMove m;
    m.wave = 1 + static_cast<int>(plan.Uniform(kWaves - 2));
    m.origin = static_cast<uint32_t>(plan.Uniform(kParallelism));
    do {
      m.target = static_cast<uint32_t>(plan.Uniform(kParallelism));
    } while (m.target == m.origin);
    m.fraction = plan.OneIn(3) ? 1.0 : 0.5;  // whole-instance or half moves
    moves.push_back(m);
  }

  const RunResult golden = RunSchedule(seed, {});
  const RunResult reconfigured = RunSchedule(seed, moves);
  EXPECT_EQ(reconfigured.counts, golden.counts) << "seed " << seed;
  EXPECT_EQ(reconfigured.state_bytes, golden.state_bytes) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HandoverPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace rhino::dataflow
