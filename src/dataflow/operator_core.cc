#include "dataflow/operator_core.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/serde.h"
#include "state/modeled_state_backend.h"

namespace rhino::dataflow {

const char* OperatorKindName(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kKeyedCounter: return "KeyedCounter";
    case OperatorKind::kSymmetricHashJoin: return "SymmetricHashJoin";
    case OperatorKind::kModeledState: return "ModeledState";
  }
  return "Unknown";
}

bool ValidOperatorKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(OperatorKind::kKeyedCounter) &&
         kind <= static_cast<uint8_t>(OperatorKind::kModeledState);
}

namespace {

std::string EncodeU64Key(uint64_t key) {
  std::string out(8, '\0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<size_t>(i)] = static_cast<char>(key & 0xff);
    key >>= 8;
  }
  return out;
}

/// Stored count of `key` in `vnode`; nullopt when the key was never
/// counted. The stored value is the count's varint and nothing else.
Result<std::optional<uint64_t>> LoadKeyedCount(state::StateBackend* backend,
                                               uint32_t vnode, uint64_t key) {
  std::string stored;
  Status st = backend->Get(vnode, EncodeU64Key(key), &stored);
  if (st.IsNotFound()) return std::optional<uint64_t>();
  RHINO_RETURN_NOT_OK(st);
  BinaryReader reader(stored);
  uint64_t count = 0;
  RHINO_RETURN_NOT_OK(reader.GetVarint(&count));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after a stored count");
  }
  return std::optional<uint64_t>(count);
}

// ------------------------------------------------------ keyed counter --

class KeyedCounterCore final : public StatefulOperatorCore {
 public:
  OperatorKind kind() const override { return OperatorKind::kKeyedCounter; }

  Status Apply(state::StateBackend* backend, int /*side*/, const Batch& batch,
               const VnodeFn& vnode_of, SimTime /*now*/,
               std::vector<state::StateWrite>* writes, Batch* out) override {
    // Each distinct key is read once; its running count then lives here,
    // so every record still emits its post-increment count and the batch
    // stages one write per key, carrying the key's final count.
    struct Counted {
      uint64_t key;
      uint32_t vnode;
      uint64_t count;
      bool existed;
    };
    std::vector<Counted> counted;
    std::unordered_map<uint64_t, size_t> slot_of;  // key -> index in counted
    slot_of.reserve(batch.records.size());
    for (const Record& r : batch.records) {
      auto [slot, inserted] = slot_of.try_emplace(r.key, counted.size());
      if (inserted) {
        uint32_t vnode = vnode_of(r.key);
        RHINO_ASSIGN_OR_RETURN(std::optional<uint64_t> stored,
                               LoadKeyedCount(backend, vnode, r.key));
        counted.push_back(
            {r.key, vnode, stored.value_or(0), stored.has_value()});
      }
      uint64_t count = ++counted[slot->second].count;
      Record result;
      result.key = r.key;
      result.event_time = r.event_time;
      result.size = 16;
      result.payload = std::to_string(count);
      out->records.push_back(std::move(result));
      ++out->count;
      out->bytes += 16;
    }
    writes->reserve(writes->size() + counted.size());
    for (const Counted& c : counted) {
      std::string value;
      BinaryWriter writer(&value);
      writer.PutVarint(c.count);
      // RMW: 16 nominal bytes per key (key + counter), charged when the
      // key first enters the state — the paper's "read-modify-write state
      // update pattern".
      writes->push_back({c.vnode, /*is_delete=*/false, EncodeU64Key(c.key),
                         std::move(value), c.existed ? 0u : 16u});
    }
    return Status::OK();
  }

  Result<OperatorQueryResult> Query(state::StateBackend* backend,
                                    uint32_t vnode,
                                    uint64_t key) const override {
    OperatorQueryResult res;
    RHINO_ASSIGN_OR_RETURN(res.count, ReadKeyedCount(backend, vnode, key));
    return res;
  }
};

// ------------------------------------------------- symmetric hash join --

class SymmetricHashJoinCore final : public StatefulOperatorCore {
 public:
  /// The uniquifier is seeded with the owner tag in its top 16 bits: two
  /// hosts that own the same vnode across a migration (origin before,
  /// target after) allocate from disjoint ranges, so an appended entry
  /// can never overwrite one that arrived with the ingested state.
  explicit SymmetricHashJoinCore(uint64_t owner_tag)
      : next_uniq_((owner_tag & 0xffff) << 48) {}

  OperatorKind kind() const override {
    return OperatorKind::kSymmetricHashJoin;
  }

  Status Apply(state::StateBackend* backend, int side, const Batch& batch,
               const VnodeFn& vnode_of, SimTime /*now*/,
               std::vector<state::StateWrite>* writes, Batch* out) override {
    if (side != 0 && side != 1) {
      return Status::InvalidArgument("join side must be 0 or 1, got " +
                                     std::to_string(side));
    }
    writes->reserve(writes->size() + batch.records.size());
    for (const Record& r : batch.records) {
      uint32_t vnode = vnode_of(r.key);
      // Layout: [8B key][1B side][8B uniq] — contiguous per (key, side),
      // so probing the other side is a prefix scan.
      std::string store_key = EncodeU64Key(r.key);
      store_key.push_back(static_cast<char>(side));
      store_key += EncodeU64Key(next_uniq_++);
      // A staged row is invisible to the probes of its own batch, which is
      // exact: a batch feeds one side, and its probes read only the other.
      writes->push_back({vnode, /*is_delete=*/false, std::move(store_key),
                         r.payload, r.size});

      std::string probe_prefix = EncodeU64Key(r.key);
      probe_prefix.push_back(static_cast<char>(1 - side));
      RHINO_ASSIGN_OR_RETURN(auto matches,
                             backend->ScanPrefix(vnode, probe_prefix));
      for (const auto& [_, other_payload] : matches) {
        Record result;
        result.key = r.key;
        result.event_time = r.event_time;
        const std::string& left = side == 0 ? r.payload : other_payload;
        const std::string& right = side == 0 ? other_payload : r.payload;
        result.payload = left + "|" + right;
        result.size = static_cast<uint32_t>(result.payload.size());
        out->count += 1;
        out->bytes += result.size;
        out->records.push_back(std::move(result));
      }
    }
    return Status::OK();
  }

  Result<OperatorQueryResult> Query(state::StateBackend* backend,
                                    uint32_t vnode,
                                    uint64_t key) const override {
    OperatorQueryResult res;
    for (int side = 0; side < 2; ++side) {
      std::string prefix = EncodeU64Key(key);
      prefix.push_back(static_cast<char>(side));
      RHINO_ASSIGN_OR_RETURN(auto entries,
                             backend->ScanPrefix(vnode, prefix));
      (side == 0 ? res.left : res.right) = entries.size();
    }
    res.count = res.left + res.right;
    return res;
  }

 private:
  uint64_t next_uniq_;
};

// -------------------------------------------------------- modeled state --

class ModeledStateCore final : public StatefulOperatorCore {
 public:
  explicit ModeledStateCore(StateModelConfig config) : config_(config) {}

  OperatorKind kind() const override { return OperatorKind::kModeledState; }

  Status Apply(state::StateBackend* backend, int /*side*/, const Batch& batch,
               const VnodeFn& vnode_of, SimTime now,
               std::vector<state::StateWrite>* /*writes*/,
               Batch* out) override {
    // The backend of a modeled operator is always a ModeledStateBackend —
    // both hosts construct it that way (stateful.cc, node_server.cc).
    auto* modeled = static_cast<state::ModeledStateBackend*>(backend);
    if (!batch.slices.empty()) {
      // Sim mode: pre-aggregated per-vnode slices.
      for (const VnodeSlice& slice : batch.slices) {
        ApplyBytes(modeled, slice.vnode, slice.bytes, now);
      }
    } else {
      // Record-carrying mode (the networked runtime): derive the slices.
      for (const Record& r : batch.records) {
        ApplyBytes(modeled, vnode_of(r.key), r.size, now);
      }
    }
    if (config_.output_selectivity > 0 && batch.bytes > 0) {
      out->bytes += static_cast<uint64_t>(static_cast<double>(batch.bytes) *
                                          config_.output_selectivity);
      if (out->bytes > 0) {
        out->count = std::max<uint64_t>(
            1, out->bytes / config_.output_record_bytes);
      }
    }
    return Status::OK();
  }

  Result<OperatorQueryResult> Query(state::StateBackend* backend,
                                    uint32_t vnode,
                                    uint64_t /*key*/) const override {
    OperatorQueryResult res;
    res.count = backend->VnodeBytes(vnode);
    return res;
  }

 private:
  void ApplyBytes(state::ModeledStateBackend* modeled, uint32_t vnode,
                  uint64_t bytes, SimTime now) {
    auto add = static_cast<uint64_t>(static_cast<double>(bytes) *
                                     config_.state_bytes_per_input_byte);
    switch (config_.pattern) {
      case StateModelConfig::Pattern::kAppend:
        modeled->AddBytes(vnode, add);
        break;
      case StateModelConfig::Pattern::kReadModifyWrite: {
        uint64_t current = modeled->VnodeBytes(vnode);
        if (current < config_.rmw_cap_bytes_per_vnode) {
          modeled->AddBytes(
              vnode, std::min(add, config_.rmw_cap_bytes_per_vnode - current));
        }
        break;
      }
      case StateModelConfig::Pattern::kSession: {
        modeled->AddBytes(vnode, add);
        auto& log = session_log_[vnode];
        log.emplace_back(now, add);
        if (config_.retention_us > 0) {
          while (!log.empty() &&
                 log.front().first < now - config_.retention_us) {
            modeled->RemoveBytes(vnode, log.front().second);
            log.pop_front();
          }
        }
        break;
      }
    }
  }

  StateModelConfig config_;
  /// kSession bookkeeping: (deposit time, bytes) per vnode.
  std::map<uint32_t, std::deque<std::pair<SimTime, uint64_t>>> session_log_;
};

}  // namespace

Result<std::unique_ptr<StatefulOperatorCore>> MakeOperatorCore(
    const OperatorSpec& spec, uint64_t owner_tag) {
  switch (spec.kind) {
    case OperatorKind::kKeyedCounter:
      return std::unique_ptr<StatefulOperatorCore>(new KeyedCounterCore());
    case OperatorKind::kSymmetricHashJoin:
      return std::unique_ptr<StatefulOperatorCore>(
          new SymmetricHashJoinCore(owner_tag));
    case OperatorKind::kModeledState:
      return std::unique_ptr<StatefulOperatorCore>(
          new ModeledStateCore(spec.model));
  }
  return Status::InvalidArgument(
      "unknown operator kind " +
      std::to_string(static_cast<int>(spec.kind)));
}

Result<uint64_t> ReadKeyedCount(state::StateBackend* backend, uint32_t vnode,
                                uint64_t key) {
  RHINO_ASSIGN_OR_RETURN(std::optional<uint64_t> stored,
                         LoadKeyedCount(backend, vnode, key));
  return stored.value_or(0);
}

}  // namespace rhino::dataflow
