#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

/// \file arena.h
/// Bump allocator backing one memtable's nodes and byte payloads.
///
/// All allocations live until the arena is destroyed — exactly the
/// memtable's lifecycle: entries accumulate until the flush threshold,
/// then the whole table (and this arena with it) is dropped at once. That
/// turns the write path's per-entry `new` + per-string heap traffic into a
/// pointer bump, and the flush-time teardown of a full memtable into a
/// handful of block frees instead of one `delete` per node.
///
/// Overwritten values are not reclaimed (the old bytes stay in their block
/// until the flush); `AllocatedBytes()` counts that garbage, which is what
/// flush sizing must see besides the live bytes.

namespace rhino::lsm {

class Arena {
 public:
  Arena() = default;
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
    // Fresh blocks come from operator new and are maximally aligned.
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
  static constexpr size_t kBlockBytes = 64 * 1024;

  char* AllocateFallback(size_t bytes) {
    if (bytes > kBlockBytes / 4) {
      // Large payloads get their own block so the current block's tail is
      // not wasted.
      return NewBlock(bytes);
    }
    char* block = NewBlock(kBlockBytes);
    ptr_ = block + bytes;
    remaining_ = kBlockBytes - bytes;
    return block;
  }

  char* NewBlock(size_t bytes) {
    blocks_.push_back(std::make_unique<char[]>(bytes));
    return blocks_.back().get();
  }

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* ptr_ = nullptr;
  size_t remaining_ = 0;
  uint64_t allocated_ = 0;
};

}  // namespace rhino::lsm
