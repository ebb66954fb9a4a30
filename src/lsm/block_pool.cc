#include "lsm/block_pool.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <new>

#include "obs/observability.h"

namespace rhino::lsm {

namespace {

char* MapPages(size_t bytes) {
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  return static_cast<char*>(mem);
}

}  // namespace

BlockPool& BlockPool::Default() {
  static BlockPool* pool = new BlockPool();
  return *pool;
}

BlockPool::BlockPool() {
  obs::MetricsRegistry& m = obs::Observability::Default()->metrics();
  in_use_metric_ =
      m.GetGauge("rhino_lsm_memtable_pool_bytes", {{"state", "in_use"}});
  free_metric_ = m.GetGauge("rhino_lsm_memtable_pool_bytes", {{"state", "free"}});
}

char* BlockPool::Take(size_t bytes) {
  if (bytes > kBlockBytes) {
    char* mem = MapPages(bytes);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.in_use_bytes += bytes;
    PublishLocked();
    return mem;
  }
  std::lock_guard<std::mutex> lock(mu_);
  char* block;
  if (parked_.empty()) {
    // Room to park every block mapped, so that Give never allocates.
    if (parked_.capacity() <= stats_.blocks_mapped) {
      parked_.reserve(2 * stats_.blocks_mapped + 1);
    }
    block = MapPages(kBlockBytes);
    ++stats_.blocks_mapped;
  } else {
    block = parked_.back();
    parked_.pop_back();
    stats_.free_bytes -= kBlockBytes;
    ASAN_UNPOISON_MEMORY_REGION(block, kBlockBytes);
  }
  stats_.in_use_bytes += kBlockBytes;
  PublishLocked();
  return block;
}

void BlockPool::Give(char* mem, size_t bytes) noexcept {
  if (mem == nullptr) return;
  if (bytes > kBlockBytes) {
    munmap(mem, bytes);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.in_use_bytes -= bytes;
    PublishLocked();
    return;
  }
  ASAN_POISON_MEMORY_REGION(mem, kBlockBytes);
  std::lock_guard<std::mutex> lock(mu_);
  parked_.push_back(mem);
  stats_.in_use_bytes -= kBlockBytes;
  stats_.free_bytes += kBlockBytes;
  PublishLocked();
}

BlockPool::Stats BlockPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BlockPool::PublishLocked() {
  in_use_metric_->Set(static_cast<double>(stats_.in_use_bytes));
  free_metric_->Set(static_cast<double>(stats_.free_bytes));
}

}  // namespace rhino::lsm
