#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "dataflow/operator.h"

/// \file source.h
/// Source operator instance bound 1:1 to a broker partition (the paper
/// runs one source thread per Kafka partition, §5.1.5).
///
/// Sources are where control events enter the dataflow: the engine injects
/// checkpoint barriers and handover markers here, and they flow in band to
/// every downstream instance (requirement R1).

namespace rhino::dataflow {

/// Pull-based source: fetches the next log entry (modeling the network hop
/// from the broker node), pays its processing cost, and emits downstream.
class SourceInstance : public OperatorInstance {
 public:
  SourceInstance(Engine* engine, std::string op_name, int subtask, int node_id,
                 ProcessingProfile profile, broker::Partition* partition);

  /// Begins consuming from the current offset.
  void Start();

  /// Injects a control event into the outbound stream at the source's
  /// current position (between batches).
  void InjectControl(const ControlEvent& ev);

  uint64_t offset() const {
    return offset_;
  }
  /// Rewinds (or advances) the consumer position; the next fetch reads
  /// from `offset`. Used for replay after a restart. Any fetch already in
  /// flight is invalidated (its result is discarded).
  void ResetOffset(uint64_t offset);

  /// Injects `markers` at the current stream position, rewinds to
  /// `offset`, and resumes fetching, in one step.
  /// Recovery must not let a fetch complete between marker injection and
  /// the rewind: its pre-rewind record would route through an already
  /// rewired gate and advance the new owner's replay watermark past the
  /// tail about to be replayed, which would then be deduplicated as
  /// already seen (i.e. silently lost).
  void RewindThroughMarkers(const std::vector<ControlEvent>& markers,
                            uint64_t offset);

  broker::Partition* partition() { return partition_; }

  /// Engine-assigned id unique across all sources of the job; stamps the
  /// provenance of every emitted batch for replay deduplication.
  void set_global_source_id(int id) { global_source_id_ = id; }
  int global_source_id() const { return global_source_id_; }

 protected:
  void HandleBatch(int, Batch&) override;        // sources have no inputs
  void HandleAlignedControl(const ControlEvent&) override;

 private:
  void TryFetch();

  broker::Partition* partition_;
  uint64_t offset_ = 0;
  uint64_t epoch_ = 0;
  int global_source_id_ = -1;
  bool fetch_in_flight_ = false;
  bool started_ = false;
};

}  // namespace rhino::dataflow
