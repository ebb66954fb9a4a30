#include "baselines/megaphone.h"

#include <memory>

#include "common/logging.h"
#include "sim/resource.h"

namespace rhino::baselines {

namespace {

/// Per-bin scheduling overhead (Megaphone plans per-bin moves).
constexpr SimTime kPerBinOverheadUs = 50;
/// Chunk used to pipeline serialize -> network -> deserialize.
constexpr uint64_t kChunkBytes = 64 * kMiB;

}  // namespace

bool MegaphoneModel::FitsMemory(uint64_t total_state_bytes) const {
  uint64_t memory = 0;
  for (int w : workers_) memory += cluster_->node(w).spec().memory_bytes;
  // All state lives on the heap; the runtime needs a small headroom for
  // channels and migration buffers. On the paper's 8 x 64 GB workers this
  // puts the ceiling between 500 GB (fits) and 750 GB (OOM), matching the
  // observed failures (§3.1, Table 1).
  return static_cast<double>(total_state_bytes) <=
         static_cast<double>(memory) * 0.98;
}

void MegaphoneModel::Migrate(const std::map<int, uint64_t>& bytes_per_origin,
                             uint64_t total_state_bytes, int num_bins,
                             std::function<void(MegaphoneResult)> done) {
  sim::Simulation* sim = cluster_->sim();
  if (!FitsMemory(total_state_bytes)) {
    sim->Schedule(0, [done] {
      MegaphoneResult result;
      result.oom = true;
      done(result);
    });
    return;
  }

  // Each origin streams its bins to the other workers: chunks go through
  // a per-origin serialization stage (CPU bound), the NICs, and a
  // per-target deserialization stage. All origins run concurrently; the
  // migration completes when the slowest origin drains.
  auto pending = std::make_shared<int>(0);
  auto result = std::make_shared<MegaphoneResult>();
  SimTime start = sim->Now();
  auto finish = [sim, pending, result, start, done] {
    if (--*pending == 0) {
      result->duration_us = sim->Now() - start;
      done(*result);
    }
  };

  // Scheduling overhead: Megaphone plans each bin's move.
  SimTime plan = kPerBinOverheadUs * static_cast<SimTime>(num_bins) /
                 std::max<SimTime>(1, static_cast<SimTime>(workers_.size()));

  auto serializers = std::make_shared<std::vector<std::unique_ptr<sim::QueueResource>>>();
  auto deserializers = std::make_shared<std::map<int, std::unique_ptr<sim::QueueResource>>>();
  for (int w : workers_) {
    (*deserializers)[w] = std::make_unique<sim::QueueResource>(
        sim, "megaphone-deser", kMegaphoneSerializeBytesPerSec);
  }

  for (const auto& [origin, bytes] : bytes_per_origin) {
    if (bytes == 0) continue;
    result->bytes_moved += bytes;
    ++*pending;
    auto serializer = std::make_unique<sim::QueueResource>(
        sim, "megaphone-ser", kMegaphoneSerializeBytesPerSec);
    sim::QueueResource* ser = serializer.get();
    serializers->push_back(std::move(serializer));

    uint64_t chunks = (bytes + kChunkBytes - 1) / kChunkBytes;
    auto remaining = std::make_shared<uint64_t>(chunks);
    for (uint64_t c = 0; c < chunks; ++c) {
      uint64_t chunk = std::min(kChunkBytes, bytes - c * kChunkBytes);
      int target = workers_[(static_cast<size_t>(origin) + 1 + c) %
                            workers_.size()];
      if (target == origin) target = workers_[(c + 1) % workers_.size()];
      // serialize -> network -> deserialize, pipelined per chunk.
      int origin_node = origin;
      sim->ScheduleAt(sim->Now() + plan, [this, sim, ser, deserializers,
                                          origin_node, target, chunk,
                                          remaining, finish, serializers] {
        ser->Submit(chunk, [this, sim, deserializers, origin_node, target,
                            chunk, remaining, finish] {
          cluster_->Transfer(origin_node, target, chunk, [deserializers,
                                                          target, chunk,
                                                          remaining, finish] {
            (*deserializers)[target]->Submit(chunk, [remaining, finish] {
              if (--*remaining == 0) finish();
            });
          });
        });
      });
    }
  }

  if (*pending == 0) {
    sim->Schedule(plan, [result, done, sim, start] {
      result->duration_us = sim->Now() - start;
      done(*result);
    });
  }
}

}  // namespace rhino::baselines
