#include "nexmark/nexmark.h"

#include "common/logging.h"
#include "dataflow/stateful.h"

namespace rhino::nexmark {

using dataflow::ModeledStatefulOperator;
using dataflow::ProcessingProfile;
using dataflow::QueryDef;
using dataflow::StateModelConfig;

// ------------------------------------------------------ NexmarkGenerator --

void NexmarkGenerator::Start() {
  running_ = true;
  Tick();
}

void NexmarkGenerator::Tick() {
  if (!running_) return;
  sim_->Schedule(options_.tick, [this] {
    if (!running_) return;
    double factor =
        options_.rate_factor ? options_.rate_factor(sim_->Now()) : 1.0;
    auto bytes = static_cast<uint64_t>(options_.bytes_per_sec * factor *
                                       ToSeconds(options_.tick));
    uint64_t count = std::max<uint64_t>(1, bytes / options_.record_bytes);
    for (int p = 0; p < topic_->num_partitions(); ++p) {
      dataflow::Batch batch;
      batch.create_time = sim_->Now();
      batch.count = count;
      batch.bytes = bytes;
      if (options_.real_records) {
        batch.records.reserve(count);
        for (uint64_t i = 0; i < count; ++i) {
          dataflow::Record r;
          r.key = rng_.Uniform(options_.key_space);
          r.event_time = sim_->Now();
          r.size = options_.record_bytes;
          batch.records.push_back(std::move(r));
        }
      }
      bytes_generated_ += bytes;
      records_generated_ += count;
      topic_->partition(p).Append(std::move(batch));
    }
    Tick();
  });
}

// --------------------------------------------------------- query builders --

namespace {

dataflow::StatefulFactory ModeledFactory(const std::string& op_name,
                                         const QueryConfig& config,
                                         StateModelConfig model) {
  return [op_name, config, model](dataflow::Engine* engine, int subtask,
                                  int node) {
    return std::make_unique<ModeledStatefulOperator>(
        engine, op_name, subtask, node, config.stateful_profile, model);
  };
}

}  // namespace

QueryDef BuildNBQ5(const QueryConfig& config) {
  // 60 s sliding window aggregation on bids: per-key running aggregates
  // saturate quickly (paper: ~26 MB total), the classic RMW pattern.
  StateModelConfig model;
  model.pattern = StateModelConfig::Pattern::kReadModifyWrite;
  model.state_bytes_per_input_byte = 0.5;
  // ~26 MB over parallelism * 4 vnodes.
  model.rmw_cap_bytes_per_vnode =
      26 * kMiB / (static_cast<uint64_t>(config.stateful_parallelism) * 4);
  model.output_selectivity = 0.02;

  QueryDef def;
  def.name = "NBQ5";
  def.AddSource("bids-src", "bids", config.source_parallelism,
                config.source_profile)
      .AddStateful("nbq5-agg", config.stateful_parallelism, {"bids-src"},
                   ModeledFactory("nbq5-agg", config, model),
                   config.stateful_profile)
      .AddSink("nbq5-sink", config.sink_parallelism, {"nbq5-agg"});
  return def;
}

QueryDef BuildNBQ8(const QueryConfig& config) {
  // 12 h tumbling join: every auction/person record is retained for the
  // whole window -> pure append, state grows with the input volume.
  StateModelConfig model;
  model.pattern = StateModelConfig::Pattern::kAppend;
  model.state_bytes_per_input_byte = 1.0;
  model.output_selectivity = 0.02;

  QueryDef def;
  def.name = "NBQ8";
  def.AddSource("auctions-src", "auctions", config.source_parallelism,
                config.source_profile)
      .AddSource("persons-src", "persons", config.source_parallelism,
                 config.source_profile)
      .AddStateful("nbq8-join", config.stateful_parallelism,
                   {"auctions-src", "persons-src"},
                   ModeledFactory("nbq8-join", config, model),
                   config.stateful_profile)
      .AddSink("nbq8-sink", config.sink_parallelism, {"nbq8-join"});
  return def;
}

QueryDef BuildNBQX(const QueryConfig& config) {
  QueryDef def;
  def.name = "NBQX";
  def.AddSource("auctions-src", "auctions", config.source_parallelism,
                config.source_profile)
      .AddSource("bids-src", "bids", config.source_parallelism,
                 config.source_profile);

  // Four session-window joins with increasing gaps: state is appended and
  // evicted when sessions close (append + deletion patterns).
  const SimTime gaps[] = {30 * kMinute, 60 * kMinute, 90 * kMinute,
                          120 * kMinute};
  for (int i = 0; i < 4; ++i) {
    StateModelConfig model;
    model.pattern = StateModelConfig::Pattern::kSession;
    model.state_bytes_per_input_byte = 1.0;
    model.retention_us = gaps[i];
    model.output_selectivity = 0.01;
    std::string name = "nbqx-session" + std::to_string(i + 1);
    def.AddStateful(name, config.stateful_parallelism,
                    {"auctions-src", "bids-src"},
                    ModeledFactory(name, config, model),
                    config.stateful_profile);
    def.AddSink(name + "-sink", config.sink_parallelism, {name});
  }

  // One 4 h tumbling join.
  StateModelConfig tumbling;
  tumbling.pattern = StateModelConfig::Pattern::kSession;
  tumbling.state_bytes_per_input_byte = 1.0;
  tumbling.retention_us = 4 * kHour;
  tumbling.output_selectivity = 0.01;
  def.AddStateful("nbqx-tumbling", config.stateful_parallelism,
                  {"auctions-src", "bids-src"},
                  ModeledFactory("nbqx-tumbling", config, tumbling),
                  config.stateful_profile);
  def.AddSink("nbqx-tumbling-sink", config.sink_parallelism,
              {"nbqx-tumbling"});
  return def;
}

std::vector<std::string> StatefulOpsOf(const std::string& query) {
  if (query == "NBQ5") return {"nbq5-agg"};
  if (query == "NBQ8") return {"nbq8-join"};
  if (query == "NBQX") {
    return {"nbqx-session1", "nbqx-session2", "nbqx-session3", "nbqx-session4",
            "nbqx-tumbling"};
  }
  RHINO_LOG(Fatal) << "unknown query " << query;
  return {};
}

}  // namespace rhino::nexmark
