#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "lsm/block_pool.h"

/// \file arena.h
/// Bump allocator backing one memtable's nodes and byte payloads.
///
/// All allocations live until the arena is destroyed — exactly the
/// memtable's lifecycle: entries accumulate until the flush threshold,
/// then the whole table (and this arena with it) is dropped at once. That
/// turns the write path's per-entry `new` + per-string heap traffic into a
/// pointer bump, and the flush-time teardown of a full memtable into
/// handing its blocks back to the process-wide `BlockPool` instead of one
/// `delete` per node. Blocks come from the pool unzeroed and go back to it
/// for the next memtable of any DB; a payload larger than a block gets
/// pages of its own, unmapped when the arena dies.
///
/// Overwritten values are not reclaimed (the old bytes stay in their block
/// until the flush); `AllocatedBytes()` counts that garbage, which is what
/// flush sizing must see besides the live bytes.

namespace rhino::lsm {

class Arena {
 public:
  Arena() = default;
  ~Arena() {
    for (const Block& b : blocks_) BlockPool::Default().Give(b.mem, b.bytes);
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of uninitialized memory with no alignment guarantee
  /// (byte payloads).
  char* Allocate(size_t bytes) {
    allocated_ += bytes;
    if (bytes <= remaining_) {
      char* out = ptr_;
      ptr_ += bytes;
      remaining_ -= bytes;
      return out;
    }
    return AllocateFallback(bytes);
  }

  /// Returns `bytes` of memory aligned for any object type (node headers).
  char* AllocateAligned(size_t bytes) {
    constexpr size_t kAlign = alignof(std::max_align_t);
    size_t pad = (kAlign - reinterpret_cast<uintptr_t>(ptr_) % kAlign) % kAlign;
    if (bytes + pad <= remaining_) {
      allocated_ += bytes + pad;
      char* out = ptr_ + pad;
      ptr_ += bytes + pad;
      remaining_ -= bytes + pad;
      return out;
    }
    // The fallback returns the start of a pool block or mapping, which is
    // page-aligned.
    allocated_ += bytes;
    return AllocateFallback(bytes);
  }

  /// Copies `data` into the arena and returns a view of the copy.
  std::string_view CopyString(std::string_view data) {
    if (data.empty()) return {};
    char* mem = Allocate(data.size());
    std::memcpy(mem, data.data(), data.size());
    return {mem, data.size()};
  }

  /// Bytes handed out (alignment padding included, the unused tail of the
  /// current block not): the footprint of everything ever stored,
  /// overwritten garbage included.
  uint64_t AllocatedBytes() const { return allocated_; }

 private:
  static constexpr size_t kBlockBytes = BlockPool::kBlockBytes;

  struct Block {
    char* mem;
    size_t bytes;
  };

  char* AllocateFallback(size_t bytes) {
    const size_t size = std::max(bytes, kBlockBytes);
    // The slot first: if Take throws, the slot stays empty (Give ignores
    // it), and once it returns, the block is owned.
    Block& slot = blocks_.emplace_back(Block{nullptr, size});
    slot.mem = BlockPool::Default().Take(size);
    char* block = slot.mem;
    // Keep bumping in whichever block has the larger tail left, so a large
    // payload does not waste the current block's tail.
    if (bytes + remaining_ < kBlockBytes) {
      ptr_ = block + bytes;
      remaining_ = kBlockBytes - bytes;
    }
    return block;
  }

  std::vector<Block> blocks_;
  char* ptr_ = nullptr;
  size_t remaining_ = 0;
  uint64_t allocated_ = 0;
};

}  // namespace rhino::lsm
