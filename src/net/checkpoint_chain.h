#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "lsm/env.h"
#include "state/state_backend.h"

/// \file checkpoint_chain.h
/// The networked runtime's durable checkpoint state, which `NodeServer`
/// writes and restores.

namespace rhino::net {

// ------------------------------------------------- checkpoint chains --
//
// The networked runtime persists each (operator, vnode) as one append-only
// chain file on an `lsm::Env` — the shared checkpoint directory standing
// in for a DFS. A chain starts with a whole record, the vnode's entries
// as `StateBackend::ReadVnodeEntries` reads them, and each later
// checkpoint appends a key record: the keys written since the previous
// record, as one change run of `StateBackend::TakeChanges`. Both bodies
// are entry runs (`state::EntryWriter`), the run a `state::VnodeImage`
// carries; a key record's may hold tombstones. Records carry the
// tag-packed entries of wire version 7, and no reader of older runs is
// kept: chain files live in one cluster's checkpoint directory and do
// not outlive it. Every record carries the
// vnode's nominal size and replay watermarks, so the chain restores to
// one consistent snapshot.
// A record's payload is `u8 kind | varint checkpoint id | varint nominal
// bytes | varint watermark count | (varint source | varint offset)... |
// body`. Records are framed (checksum + length, the WAL idiom): a torn
// append from a SIGKILL mid-checkpoint loses only the torn record, and
// the chain still restores to the state of its last complete one. The
// reader merges nothing: a restore writes the records' entries into a
// backend in order, and the store's own merge folds them.

/// One record of a vnode's checkpoint chain.
struct ChainRecord {
  enum class Kind : uint8_t { kWhole = 0, kKeys = 1 };
  Kind kind = Kind::kWhole;
  /// The checkpoint (or handover) that wrote the record.
  uint64_t checkpoint_id = 0;
  uint64_t nominal_bytes = 0;
  std::map<int, uint64_t> watermarks;
  /// kWhole: the vnode's entries; kKeys: the change run.
  std::string_view body;
};

/// Appends the framed encoding of `record` to `*out`.
void AppendChainRecord(const ChainRecord& record, std::string* out);

/// A chain read up to its last complete record.
struct VnodeChain {
  /// Each complete record's run, oldest first: the whole record's, then
  /// each key record's.
  std::vector<std::string> runs;
  /// The last complete record's size, replay watermarks and checkpoint.
  uint64_t nominal_bytes = 0;
  std::map<int, uint64_t> watermarks;
  uint64_t checkpoint_id = 0;
  /// Complete records read, and the bytes they span.
  uint64_t records = 0;
  uint64_t valid_bytes = 0;
};

/// Reads a chain up to its first torn record. Corruption when the chain
/// holds no complete record, starts with a key record, or a complete
/// record does not decode.
Result<VnodeChain> ParseChain(std::string_view chain);

/// Reads the chain at `path`; NotFound when there is none.
Result<VnodeChain> ReadChain(lsm::Env* env, const std::string& path);

/// Writes `chain`'s runs into `backend` as rows of `vnode`, oldest first
/// (one `StateBackend::WriteVnodeEntries` each). The caller drops any
/// earlier rows first, and takes the vnode over with the chain's size and
/// watermarks.
Status RestoreChain(const VnodeChain& chain, uint32_t vnode,
                    state::StateBackend* backend);

/// Framed bytes of the first record of the chain at `path` (its base),
/// read from the record's frame header alone.
Result<uint64_t> ChainBaseBytes(lsm::Env* env, const std::string& path);

/// Name of the chain of `vnode` of `op` inside the checkpoint directory.
/// Writers and recovering readers must agree, so it lives here.
std::string ChainFileName(const std::string& op, uint32_t vnode);

}  // namespace rhino::net
