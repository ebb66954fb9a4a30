#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dataflow/record.h"
#include "state/state_backend.h"

/// \file operator_core.h
/// Execution-location-agnostic operator semantics.
///
/// A `StatefulOperatorCore` is the pure "fold a batch into state, emit
/// outputs" half of a stateful operator: no engine, no channels, no
/// transport, no locks. The in-process `StatefulInstance` and the
/// networked `NodeServer` both host cores through `OperatorHost`
/// (operator_host.h), so one implementation of the keyed counter and the
/// symmetric hash join runs unmodified in the simulator and on the
/// networked runtime — state a core wrote in one ingests byte-identically
/// in the other. The modeled state patterns run in the simulator only (a
/// node refuses `kModeledState`).

namespace rhino::dataflow {

/// Operator kinds that can be hosted anywhere (the operator-spec wire
/// codec carries this byte; values are part of the wire format).
enum class OperatorKind : uint8_t {
  /// RMW running count per key (NBQ5-like). State: the key's 8-byte
  /// big-endian form -> the count as a varint, nothing after it.
  kKeyedCounter = 1,
  kSymmetricHashJoin = 2,  ///< two-input append + probe (NBQ8-like)
  kModeledState = 3,       ///< statistical state model (simulator only)
};

const char* OperatorKindName(OperatorKind kind);
bool ValidOperatorKind(uint8_t kind);

/// Statistical state model for the simulation benches.
struct StateModelConfig {
  enum class Pattern : uint8_t {
    kAppend,           ///< joins over long windows: state grows with input
    kReadModifyWrite,  ///< aggregates: state saturates at a per-key plateau
    kSession,          ///< session windows: append + retention-based eviction
  };
  Pattern pattern = Pattern::kAppend;
  /// State bytes added per input byte (before saturation/eviction).
  double state_bytes_per_input_byte = 1.0;
  /// Saturation plateau per vnode for kReadModifyWrite.
  uint64_t rmw_cap_bytes_per_vnode = 64 * 1024;
  /// kSession: state added now is evicted after this long (0 = never).
  SimTime retention_us = 0;
  /// Output bytes emitted per input byte.
  double output_selectivity = 0.05;
  /// Output record size used to derive output counts.
  uint32_t output_record_bytes = 64;
};

/// Execution-location-independent description of a stateful operator:
/// everything a host (engine subtask or node process) needs to
/// instantiate it. `kAddOperator` carries it on the wire, all but `model`.
struct OperatorSpec {
  OperatorKind kind = OperatorKind::kKeyedCounter;
  std::string name;
  /// Virtual-node count of the operator's key space (0 in-process, where
  /// routing comes from the engine's VirtualNodeMap instead).
  uint32_t num_vnodes = 0;
  /// Logical inputs (2 for the join; dedup cursors are per input source).
  uint32_t input_arity = 1;
  /// Only meaningful for kModeledState (simulator only).
  StateModelConfig model;
};

/// Key -> vnode routing supplied by the host (the engine uses its
/// hashring `VirtualNodeMap`, the networked runtime `net::VnodeForKey`;
/// the core must not bake in either).
using VnodeFn = std::function<uint32_t(uint64_t key)>;

/// Read-side point lookup result. `count` is kind-specific: the running
/// count (counter), total stored entries for the key (join, with the
/// per-side split in `left`/`right`), or the key's vnode state bytes
/// (modeled).
struct OperatorQueryResult {
  uint64_t count = 0;
  uint64_t left = 0;
  uint64_t right = 0;
};

/// One operator's semantics over an abstract `StateBackend`. Not
/// thread-safe; the embedding `OperatorHost` serializes calls.
///
/// The core stages, the host commits: `Apply` reads the backend but
/// writes nothing to it. It appends the batch's state writes to a sink,
/// and the host commits the sink with one `StateBackend::ApplyBatch`
/// before it advances the replay watermarks, so a batch's state and its
/// watermarks move together or not at all.
class StatefulOperatorCore {
 public:
  virtual ~StatefulOperatorCore() = default;

  virtual OperatorKind kind() const = 0;

  /// Folds an (already deduplicated) batch from logical input `side`:
  /// reads `backend`, stages the writes the batch makes in `writes`
  /// (never null; what a later record of the same batch must see is the
  /// core's to track), and appends any produced records to `out` (never
  /// null; the host decides whether outputs are emitted, shipped, or
  /// dropped). `now` is the host's clock (event-time eviction in the
  /// modeled core, which accounts bytes and stages nothing).
  virtual Status Apply(state::StateBackend* backend, int side,
                       const Batch& batch, const VnodeFn& vnode_of,
                       SimTime now, std::vector<state::StateWrite>* writes,
                       Batch* out) = 0;

  /// Point query against `vnode` (where `key` routes).
  virtual Result<OperatorQueryResult> Query(state::StateBackend* backend,
                                            uint32_t vnode,
                                            uint64_t key) const = 0;
};

/// Instantiates the core for `spec.kind`; `owner_tag` must be unique per
/// hosting identity (node id / subtask) — the join folds it into its
/// store-key uniquifier so entries appended by different owners of a
/// migrated vnode can never collide (the join-state consistency rule,
/// DESIGN.md §16). Unknown kinds return InvalidArgument.
Result<std::unique_ptr<StatefulOperatorCore>> MakeOperatorCore(
    const OperatorSpec& spec, uint64_t owner_tag);

/// Current count of `key` in `vnode`; 0 when the key was never counted.
/// The keyed counter's read kernel, shared by its query path. A stored
/// value that is not exactly one varint is Corruption.
Result<uint64_t> ReadKeyedCount(state::StateBackend* backend, uint32_t vnode,
                                uint64_t key);

}  // namespace rhino::dataflow
