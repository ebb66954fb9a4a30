#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace rhino::obs {
class Gauge;
}  // namespace rhino::obs

/// \file block_pool.h
/// Process-wide pool of the 64 KiB blocks every memtable arena draws from.
///
/// A memtable is written and retired on whichever RPC, replication or
/// maintenance thread gets there, and the last one differs from the
/// first. Blocks taken from malloc there went back into that thread's
/// allocator arena, so every thread's arena came to retain freed
/// memtables. The pool maps its blocks with `mmap`, hands them out
/// unzeroed, and parks them when their arena dies, so the next memtable of
/// any DB, on any thread, reuses warm pages and no memtable byte sits in a
/// malloc arena. It maps a block only when none is parked and never unmaps
/// one, so it holds exactly the high-water of blocks in use at once: about
/// two memtables (the active and the frozen one) per open DB.
///
/// A payload larger than a block gets pages of its own, mapped by `Take`
/// and unmapped by `Give`.
///
/// Under AddressSanitizer a parked block is poisoned and a taken one
/// unpoisoned, so a view into a retired memtable that is read after its
/// table died is reported. Thread-safe: one mutex, taken once per block.

namespace rhino::lsm {

class BlockPool {
 public:
  static constexpr size_t kBlockBytes = 64 * 1024;

  /// The process-wide pool. Never destroyed, so an arena may die during
  /// static destruction.
  static BlockPool& Default();

  /// Returns `bytes` of unzeroed, page-aligned memory: a parked (else a
  /// fresh) block when `bytes <= kBlockBytes`, a mapping of its own
  /// otherwise. Throws std::bad_alloc when the mapping fails.
  char* Take(size_t bytes);
  /// Hands back what `Take(bytes)` returned: a block is parked, a larger
  /// mapping unmapped. Giving back nullptr does nothing.
  void Give(char* mem, size_t bytes) noexcept;

  struct Stats {
    /// Blocks mapped so far (parked + in use): the in-use high-water.
    uint64_t blocks_mapped = 0;
    /// Bytes of blocks and of larger mappings handed out and not given back.
    uint64_t in_use_bytes = 0;
    /// Bytes of parked blocks.
    uint64_t free_bytes = 0;
  };
  Stats stats() const;

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

 private:
  BlockPool();
  /// Mirrors the byte counts into the gauges; requires mu_ held.
  void PublishLocked();

  mutable std::mutex mu_;
  std::vector<char*> parked_;
  Stats stats_;
  /// `rhino_lsm_memtable_pool_bytes{state="in_use"|"free"}`.
  obs::Gauge* in_use_metric_;
  obs::Gauge* free_metric_;
};

}  // namespace rhino::lsm
