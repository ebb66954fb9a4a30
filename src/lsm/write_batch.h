#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "lsm/format.h"

/// \file write_batch.h
/// Group-committed mutation batch for the LSM store.
///
/// A batch accumulates Put/Delete operations in their final WAL encoding
/// and is applied atomically by `DB::Write`: one framed WAL append (and
/// one buffer flush) covers the whole batch, and the memtable receives a
/// single insert pass over a contiguous sequence-number range. Replicas
/// applying key deltas and handover targets ingesting vnode images commit
/// thousands of entries per WAL write instead of one.
///
/// Payload encoding (also the WAL commit-record payload, behind the
/// framing in log_format.h):
///
///     varint count, then per entry: u8 type | string key | string value
///
/// (tombstones carry an empty value).

namespace rhino::lsm {

class WriteBatch {
 public:
  void Put(std::string_view key, std::string_view value);
  void Delete(std::string_view key);
  void Clear();

  uint64_t num_entries() const { return count_; }
  uint64_t num_puts() const { return puts_; }
  uint64_t num_deletes() const { return count_ - puts_; }
  bool empty() const { return count_ == 0; }

  /// Bytes the batch currently pins (its encoded representation). Callers
  /// ingesting unbounded streams commit and Clear() when this grows past
  /// their budget.
  uint64_t ApproximateBytes() const { return rep_.size(); }

  /// The WAL commit-record payload for this batch.
  std::string EncodePayload() const;

  /// Per-entry callback; the views alias the batch (or decoded payload)
  /// and are only valid during the call.
  using Handler =
      std::function<Status(ValueType type, std::string_view key,
                           std::string_view value)>;

  /// Applies `fn` to each entry in insertion order.
  Status ForEach(const Handler& fn) const { return DecodeEntries(rep_, fn); }

  /// Decodes the entry section (no leading count) — shared by ForEach and
  /// WAL recovery, which walks a payload written by EncodePayload.
  static Status DecodeEntries(std::string_view entries, const Handler& fn);

  /// Splits a WAL commit payload into its count and entry section.
  static Status DecodePayload(std::string_view payload, uint64_t* count,
                              std::string_view* entries);

 private:
  std::string rep_;  // encoded entries, no count prefix
  uint64_t count_ = 0;
  uint64_t puts_ = 0;
};

}  // namespace rhino::lsm
