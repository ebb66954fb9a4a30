// Google-benchmark microbenchmarks for the hot paths of the substrates:
// the LSM store, SSTable build/lookup, bloom filters, key-group hashing,
// binary encoding, and the simulation kernel — plus an artifact-emitting
// section (BENCH_micro_lsm.json) that measures the block-granular LSM
// read path (cold whole-file vs cold block-read vs warm point gets, the
// cache-bounded memory profile of range scans, vnode extraction) and the
// streaming write path (single vs group-committed put throughput, WAL
// appends/bytes per entry, flush/compaction peak buffering, memtable block
// reuse, vnode-restore ingest), the sharded-concurrency path
// (multi-threaded put/get/scan at 1/2/4/8 threads with a machine-aware
// 4-thread scaling gate), and the store's write/read-amplification
// accounting.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <thread>
#include <vector>

#include "artifact.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/serde.h"
#include "hashring/key_groups.h"
#include "lsm/block_cache.h"
#include "lsm/block_pool.h"
#include "lsm/bloom.h"
#include "lsm/db.h"
#include "lsm/env.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"
#include "sim/simulation.h"
#include "state/lsm_state_backend.h"

namespace rhino {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

void BM_MemTableInsert(benchmark::State& state) {
  lsm::MemTable table;
  Random rng(1);
  uint64_t i = 0;
  for (auto _ : state) {
    table.Add(Key(rng.Uniform(1 << 20)), ++i, lsm::ValueType::kValue,
              "value-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MemTableInsert);

void BM_MemTableLookup(benchmark::State& state) {
  lsm::MemTable table;
  for (uint64_t i = 0; i < 100000; ++i) {
    table.Add(Key(i), i, lsm::ValueType::kValue, "v");
  }
  Random rng(2);
  lsm::Entry entry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Get(Key(rng.Uniform(100000)), &entry));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MemTableLookup);

void BM_DBPut(benchmark::State& state) {
  lsm::MemEnv env;
  auto db = lsm::DB::Open(&env, "/bench");
  Random rng(3);
  std::string value(128, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize((*db)->Put(Key(rng.Uniform(1 << 22)), value));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 144);
}
BENCHMARK(BM_DBPut);

void BM_DBGet(benchmark::State& state) {
  lsm::MemEnv env;
  auto db = lsm::DB::Open(&env, "/bench");
  for (uint64_t i = 0; i < 50000; ++i) {
    (void)(*db)->Put(Key(i), "value");
  }
  (void)(*db)->Flush();
  Random rng(4);
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*db)->Get(Key(rng.Uniform(50000)), &value));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DBGet);

void BM_SSTableBuild(benchmark::State& state) {
  for (auto _ : state) {
    lsm::SSTableBuilder builder;
    for (uint64_t i = 0; i < 1000; ++i) {
      builder.Add(Key(i), i, lsm::ValueType::kValue, "value");
    }
    std::string file = builder.Finish();
    benchmark::DoNotOptimize(file);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SSTableBuild);

void BM_BloomLookup(benchmark::State& state) {
  lsm::BloomFilterBuilder builder(10);
  for (uint64_t i = 0; i < 10000; ++i) builder.AddKey(Key(i));
  std::string data = builder.Finish();
  lsm::BloomFilter filter(data);
  Random rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MayContain(Key(rng.Uniform(20000))));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BloomLookup);

void BM_KeyGroupRouting(benchmark::State& state) {
  hashring::VirtualNodeMap map(1 << 15, 64, 4);
  hashring::RoutingTable table(&map);
  Random rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.InstanceForKey(rng.Next()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KeyGroupRouting);

void BM_VarintRoundTrip(benchmark::State& state) {
  Random rng(7);
  for (auto _ : state) {
    std::string buf;
    BinaryWriter writer(&buf);
    for (int i = 0; i < 64; ++i) writer.PutVarint(rng.Next());
    BinaryReader reader(buf);
    uint64_t v = 0;
    for (int i = 0; i < 64; ++i) (void)reader.GetVarint(&v);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_VarintRoundTrip);

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(i, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulationEventThroughput);

// ------------------------------------------------- LSM read-path artifact --

/// Microseconds elapsed running `fn`.
template <typename Fn>
double TimeUs(Fn fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// CPU nanoseconds this process has used so far: every thread's user and
/// system time. The difference across a phase counts the work a phase did
/// (a background flush it caused included) and not the time its threads
/// waited for a core, so it reads the same on a loaded host, where the
/// wall keys beside it do not.
double ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// The best of `repeats` runs of a phase: its least wall time, and apart
/// from that its least process CPU time (`ProcessCpuNs`).
struct Best {
  double wall_us = 0;
  double cpu_ns = 0;
};

/// Best-of-N timing: the minimum over `repeats` runs. Contention from a
/// loaded (CI) box only ever inflates a wall-clock sample, so with small
/// batches and enough repeats the minimum lands in a quiet scheduler
/// quantum and estimates the true cost — keeping the guarded regression
/// keys stable run to run. The CPU minimum is the wall key's report-only
/// companion, which waiting for a core does not inflate at all.
template <typename Fn>
Best BestOf(int repeats, Fn fn) {
  Best best;
  for (int r = 0; r < repeats; ++r) {
    const double cpu0 = ProcessCpuNs();
    const double us = TimeUs(fn);
    const double cpu = ProcessCpuNs() - cpu0;
    best.wall_us = r == 0 ? us : std::min(best.wall_us, us);
    best.cpu_ns = r == 0 ? cpu : std::min(best.cpu_ns, cpu);
  }
  return best;
}

template <typename Fn>
double MinTimeUs(int repeats, Fn fn) {
  return BestOf(repeats, fn).wall_us;
}

/// Whole images of vnodes 0..vnodes-1 of `backend`, as a handover reads
/// them: each vnode's run and size.
std::vector<state::VnodeImage> ReadImages(state::StateBackend* backend,
                                          uint32_t vnodes) {
  std::vector<state::VnodeImage> images(vnodes);
  for (uint32_t v = 0; v < vnodes; ++v) {
    images[v].vnode = v;
    images[v].bytes = backend->VnodeBytes(v);
    RHINO_CHECK_OK(backend->ReadVnodeEntries(v, &images[v].entries));
  }
  return images;
}

/// The images' run bytes, what MB/s divides.
uint64_t RunBytes(const std::vector<state::VnodeImage>& images) {
  uint64_t bytes = 0;
  for (const state::VnodeImage& image : images) bytes += image.entries.size();
  return bytes;
}

/// Point-get comparison on one SSTable: the pre-block-cache read path
/// (read the whole file, parse, look up) vs the streaming one (positional
/// block reads through a budgeted cache), cold and warm.
void BenchPointGets(bench::BenchArtifact* artifact) {
  const uint64_t kEntries = bench::SmokeScaled<uint64_t>(200000, 20000);
  const std::string value(64, 'v');
  lsm::MemEnv env;
  lsm::SSTableBuilder builder;
  for (uint64_t i = 0; i < kEntries; ++i) {
    builder.Add(Key(i), i, lsm::ValueType::kValue, value);
  }
  RHINO_CHECK_OK(env.WriteFile("/bench.sst", builder.Finish()));

  // Cold, whole-file: what every uncached lookup cost before the reader
  // became block-granular — fetch and parse the entire table.
  const int kColdLookups = 5;
  Random rng(11);
  lsm::Entry entry;
  double cold_wholefile_us = MinTimeUs(10, [&] {
    for (int i = 0; i < kColdLookups; ++i) {
      std::string contents;
      RHINO_CHECK_OK(env.ReadFile("/bench.sst", &contents));
      auto table = lsm::SSTableReader::Open(
          std::make_shared<const std::string>(std::move(contents)));
      RHINO_CHECK_OK(table.status());
      RHINO_CHECK_OK((*table)->Get(Key(rng.Uniform(kEntries)), &entry));
    }
  }) / kColdLookups;

  // Cold, block-granular: open handle held, cache dropped before each
  // lookup, so every get pays one positional block fetch.
  lsm::BlockCache cache(64 * 1024 * 1024);
  auto file = env.NewRandomAccessFile("/bench.sst");
  RHINO_CHECK_OK(file.status());
  auto table = lsm::SSTableReader::Open(std::move(*file), &cache);
  RHINO_CHECK_OK(table.status());
  const int kBlockLookups = 100;
  const Best cold_blockread = BestOf(30, [&] {
    for (int i = 0; i < kBlockLookups; ++i) {
      cache.Clear();
      RHINO_CHECK_OK((*table)->Get(Key(rng.Uniform(kEntries)), &entry));
    }
  });
  const double cold_blockread_us = cold_blockread.wall_us / kBlockLookups;

  // Warm: same lookups with the cache populated.
  const int kWarmLookups = 500;
  for (int i = 0; i < 4 * kWarmLookups; ++i) {  // warm-up pass
    RHINO_CHECK_OK((*table)->Get(Key(rng.Uniform(kEntries)), &entry));
  }
  const Best warm = BestOf(50, [&] {
    for (int i = 0; i < kWarmLookups; ++i) {
      RHINO_CHECK_OK((*table)->Get(Key(rng.Uniform(kEntries)), &entry));
    }
  });
  const double warm_us = warm.wall_us / kWarmLookups;

  artifact->Set("point_get_us.cold_wholefile", cold_wholefile_us);
  artifact->Set("point_get_us.cold_blockread", cold_blockread_us);
  artifact->Set("point_get_us.warm", warm_us);
  artifact->Set("point_get_cpu_ns.cold_blockread",
                cold_blockread.cpu_ns / kBlockLookups);
  artifact->Set("point_get_cpu_ns.warm", warm.cpu_ns / kWarmLookups);
  artifact->Set("point_get_speedup.warm_vs_cold_wholefile",
                cold_wholefile_us / warm_us);
}

/// Full scans of a small and a large DB through dedicated block caches:
/// the peak cache footprint must clamp at the budget for both, proving
/// scan memory is independent of state size.
void BenchRangeScans(bench::BenchArtifact* artifact) {
  const uint64_t kCacheBytes = 256 * 1024;
  const uint64_t kSmallEntries = bench::SmokeScaled<uint64_t>(50000, 5000);
  const uint64_t kLargeEntries = bench::SmokeScaled<uint64_t>(500000, 50000);
  const std::string value(128, 'v');

  auto scan = [&](uint64_t entries, const char* tag) {
    lsm::MemEnv env;
    lsm::Options opts;
    opts.block_cache = std::make_shared<lsm::BlockCache>(kCacheBytes);
    auto db = lsm::DB::Open(&env, "/bench", opts);
    RHINO_CHECK_OK(db.status());
    for (uint64_t i = 0; i < entries; ++i) {
      RHINO_CHECK_OK((*db)->Put(Key(i), value));
    }
    RHINO_CHECK_OK((*db)->Flush());
    opts.block_cache->Clear();
    opts.block_cache->ResetStats();

    uint64_t count = 0;
    const Best best = BestOf(9, [&] {
      count = 0;
      auto it = (*db)->NewIterator();
      RHINO_CHECK_OK(it.status());
      for (; it->Valid(); it->Next()) ++count;
    });
    RHINO_CHECK(count == entries);
    artifact->Set(std::string("range_scan_peak_cache_bytes.") + tag,
                  static_cast<double>(opts.block_cache->peak_usage_bytes()));
    artifact->Set(std::string("scan_cpu_ns_per_entry.") + tag,
                  best.cpu_ns / count);
    return count / (best.wall_us / 1e6);
  };

  scan(kSmallEntries, "small_db");
  double large_rate = scan(kLargeEntries, "large_db");
  artifact->Set("throughput_scan_entries_per_s.large_db", large_rate);
  artifact->Set("range_scan_cache_budget_bytes",
                static_cast<double>(kCacheBytes));
}

/// Vnode extraction throughput: reading the whole images that handovers,
/// checkpoints and restores move (`ReadVnodeEntries` plus `VnodeBytes` per
/// vnode), measured end to end over the state backend. MB/s divides the
/// runs' bytes by the time, so it reads lower for a format that spends
/// fewer bytes on the same entries; entries/s does not.
void BenchExtractVnodes(bench::BenchArtifact* artifact) {
  const uint32_t kVnodes = 16;
  const uint64_t kEntriesPerVnode = bench::SmokeScaled<uint64_t>(20000, 2000);
  const std::string value(128, 'v');
  lsm::MemEnv env;
  auto backend = state::LsmStateBackend::Open(&env, "/bench", "op", 0);
  RHINO_CHECK_OK(backend.status());
  // One commit per entry, so the tables flush at the same points as a
  // store written record by record.
  std::vector<state::StateWrite> write(1);
  for (uint32_t v = 0; v < kVnodes; ++v) {
    for (uint64_t i = 0; i < kEntriesPerVnode; ++i) {
      write[0] = {v, false, Key(i), value, value.size()};
      RHINO_CHECK_OK((*backend)->ApplyBatch(write));
    }
  }
  RHINO_CHECK_OK((*backend)->db()->Flush());

  std::vector<state::VnodeImage> images;
  double us = TimeUs([&] { images = ReadImages(backend->get(), kVnodes); });
  const uint64_t run_bytes = RunBytes(images);
  artifact->Set("throughput_extract_vnodes_mb_per_s",
                (run_bytes / 1e6) / (us / 1e6));
  artifact->Set("throughput_extract_vnodes_entries_per_s",
                static_cast<double>(kVnodes * kEntriesPerVnode) / (us / 1e6));
  // The key keeps its name: the runs are what a blob carried.
  artifact->Set("extract_vnodes_blob_mb", run_bytes / 1e6);
}

// ------------------------------------------------ LSM write-path artifact --

/// Put throughput, singleton commits vs group-committed WriteBatches, and
/// the physical WAL accounting (appends and bytes per entry) behind the
/// difference: a batch pays one framed append + flush for all its entries.
/// Runs on PosixEnv — the WAL flush per commit is a real write() syscall,
/// which is exactly the per-commit cost group commit amortizes. The batched
/// phase also reports its process CPU ns per put
/// (`put_batched_cpu_ns_per_op`, report-only), a companion of its wall key
/// that a loaded host does not inflate.
void BenchWritePath(bench::BenchArtifact* artifact) {
  const uint64_t kEntries = bench::SmokeScaled<uint64_t>(200000, 20000);
  const uint64_t kBatchSize = 256;
  const std::string value(64, 'v');
  lsm::PosixEnv env;
  const std::string root = "bench-writepath-tmp";
  auto fresh_dir = [&](const std::string& dir) {
    if (auto names = env.ListDir(dir); names.ok()) {
      for (const auto& name : *names) (void)env.DeleteFile(dir + "/" + name);
    }
    RHINO_CHECK_OK(env.CreateDir(dir));
  };

  double single_rate = 0;
  {
    fresh_dir(root + "/single");
    auto db = lsm::DB::Open(&env, root + "/single");
    RHINO_CHECK_OK(db.status());
    double us = TimeUs([&] {
      for (uint64_t i = 0; i < kEntries; ++i) {
        RHINO_CHECK_OK((*db)->Put(Key(i), value));
      }
    });
    single_rate = kEntries / (us / 1e6);
    artifact->Set("wal_appends_per_1k_entries.single",
                  1000.0 * (*db)->wal_appends() / (*db)->wal_records());
    artifact->Set("wal_bytes_per_entry.single",
                  static_cast<double>((*db)->wal_bytes_written()) /
                      (*db)->wal_records());
  }

  double batched_rate = 0;
  {
    fresh_dir(root + "/batched");
    auto db = lsm::DB::Open(&env, root + "/batched");
    RHINO_CHECK_OK(db.status());
    const double cpu_start = ProcessCpuNs();
    double us = TimeUs([&] {
      lsm::WriteBatch batch;
      for (uint64_t i = 0; i < kEntries; ++i) {
        batch.Put(Key(i), value);
        if (batch.num_entries() >= kBatchSize) {
          RHINO_CHECK_OK((*db)->Write(batch));
          batch.Clear();
        }
      }
      RHINO_CHECK_OK((*db)->Write(batch));
    });
    batched_rate = kEntries / (us / 1e6);
    artifact->Set("put_batched_cpu_ns_per_op",
                  (ProcessCpuNs() - cpu_start) / kEntries);
    artifact->Set("wal_appends_per_1k_entries.batched",
                  1000.0 * (*db)->wal_appends() / (*db)->wal_records());
    artifact->Set("wal_bytes_per_entry.batched",
                  static_cast<double>((*db)->wal_bytes_written()) /
                      (*db)->wal_records());
  }

  artifact->Set("throughput_put_single_per_s", single_rate);
  artifact->Set("throughput_put_batched_per_s", batched_rate);
  artifact->Set("put_batched_speedup", batched_rate / single_rate);
  for (const char* sub : {"/single", "/batched"}) {
    std::string dir = root + sub;
    if (auto names = env.ListDir(dir); names.ok()) {
      for (const auto& name : *names) (void)env.DeleteFile(dir + "/" + name);
    }
  }
}

/// Peak bytes buffered while building tables (flush + full compaction) for
/// a small and a large DB: the streaming build bounds it at ~one block
/// plus the index/bloom tail, instead of the whole table the old
/// string-assembling path materialized.
void BenchFlushPeakMemory(bench::BenchArtifact* artifact) {
  auto peak = [&](uint64_t entries, const char* tag) {
    lsm::MemEnv env;
    lsm::Options opts;
    opts.enable_wal = false;  // isolate the table-build path
    opts.memtable_bytes = 1ull << 31;  // one flush holds everything
    auto db = lsm::DB::Open(&env, "/bench-peak", opts);
    RHINO_CHECK_OK(db.status());
    const std::string value(128, 'v');
    for (uint64_t i = 0; i < entries; ++i) {
      RHINO_CHECK_OK((*db)->Put(Key(i), value));
    }
    RHINO_CHECK_OK((*db)->Flush());
    RHINO_CHECK_OK((*db)->CompactRange());
    uint64_t table_bytes = (*db)->ApproximateSize();
    artifact->Set(std::string("write_peak_buffer_bytes.") + tag,
                  static_cast<double>((*db)->write_peak_buffer_bytes()));
    artifact->Set(std::string("write_peak_buffer_fraction_of_db.") + tag,
                  static_cast<double>((*db)->write_peak_buffer_bytes()) /
                      static_cast<double>(table_bytes));
  };
  peak(bench::SmokeScaled<uint64_t>(20000, 5000), "small_db");
  peak(bench::SmokeScaled<uint64_t>(200000, 20000), "large_db");
}

/// Memtable block reuse: a DB cycling through 20 memtables takes every
/// arena block from the process-wide pool, and once its first two tables
/// (the active and the one being flushed) have set the pool's high-water,
/// the pool maps no block for it again. `memtable_pool_reuse_ok` (exact,
/// guarded) is 1 when the pool served the DB's tables and the 3rd through
/// 20th cycles mapped no new block.
void BenchMemtablePool(bench::BenchArtifact* artifact) {
  lsm::BlockPool& pool = lsm::BlockPool::Default();
  const uint64_t in_use = pool.stats().in_use_bytes;
  lsm::MemEnv env;
  lsm::Options opts;
  opts.memtable_bytes = 256 * 1024;
  auto db = lsm::DB::Open(&env, "/bench-pool", opts);
  RHINO_CHECK_OK(db.status());
  const std::string value(100, 'v');
  bool served = false;
  uint64_t mapped = 0;
  for (uint64_t i = 0; (*db)->flush_count() < 20; ++i) {
    RHINO_CHECK_OK((*db)->Put(Key(i), value));
    served = served || pool.stats().in_use_bytes > in_use;
    if (mapped == 0 && (*db)->flush_count() >= 2) {
      mapped = pool.stats().blocks_mapped;
    }
  }
  artifact->Set("memtable_pool_reuse_ok",
                served && pool.stats().blocks_mapped == mapped ? 1.0 : 0.0);
}

/// Vnode-restore ingest throughput: one `IngestImages` of 16 whole images
/// into a fresh backend, one batch per vnode (the handover / restore
/// path), in run MB/s and in entries/s. Best of `kRepeats` ingests, each
/// into a fresh backend of its own, as `MinTimeUs` picks its minimum.
void BenchIngestVnodes(bench::BenchArtifact* artifact) {
  const int kRepeats = 7;
  const uint32_t kVnodes = 16;
  const uint64_t kEntriesPerVnode = bench::SmokeScaled<uint64_t>(20000, 2000);
  const std::string value(128, 'v');
  lsm::MemEnv env;
  auto origin = state::LsmStateBackend::Open(&env, "/bench-origin", "op", 0);
  RHINO_CHECK_OK(origin.status());
  std::vector<state::StateWrite> write(1);
  for (uint32_t v = 0; v < kVnodes; ++v) {
    for (uint64_t i = 0; i < kEntriesPerVnode; ++i) {
      write[0] = {v, false, Key(i), value, value.size()};
      RHINO_CHECK_OK((*origin)->ApplyBatch(write));
    }
  }
  const std::vector<state::VnodeImage> images =
      ReadImages(origin->get(), kVnodes);

  double us = 0, cpu_ns = 0;
  for (int r = 0; r < kRepeats; ++r) {
    // A fresh env per target, so each ingest meets an empty store and the
    // previous target's memory is gone.
    lsm::MemEnv target_env;
    auto target =
        state::LsmStateBackend::Open(&target_env, "/bench-target", "op", 1);
    RHINO_CHECK_OK(target.status());
    const double cpu0 = ProcessCpuNs();
    const double t = TimeUs([&] {
      RHINO_CHECK_OK((*target)->IngestImages(images, false));
    });
    const double cpu = ProcessCpuNs() - cpu0;
    us = r == 0 ? t : std::min(us, t);
    cpu_ns = r == 0 ? cpu : std::min(cpu_ns, cpu);
  }
  const double entries = static_cast<double>(kVnodes * kEntriesPerVnode);
  artifact->Set("throughput_ingest_vnodes_mb_per_s",
                (RunBytes(images) / 1e6) / (us / 1e6));
  artifact->Set("throughput_ingest_vnodes_entries_per_s", entries / (us / 1e6));
  artifact->Set("ingest_vnodes_cpu_ns_per_entry", cpu_ns / entries);
}

// ---------------------------------------------- LSM concurrency artifact --

/// Multi-threaded put/get/scan throughput at 1/2/4/8 threads over one
/// store with sharded memtables and background maintenance — the
/// configuration a node's concurrent handlers and replicator hit. Each
/// writer owns a disjoint key stripe; scans partition the keyspace.
///
/// `mt_put_cpu_ns_per_op.t<T>` (report-only) is the process CPU time of
/// the put phase and of the flushes and compactions it left behind, per
/// put: a companion of the put wall that a loaded host does not inflate.
/// `mt_get_cpu_ns_per_op.t<T>` and `mt_scan_cpu_ns_per_entry.t<T>` are
/// the same for the get and scan phases.
///
/// `mt_put_speedup_4t` is the tentpole scaling claim (4-thread puts vs
/// single-thread). Because CI runners differ, the guarded key is
/// `mt_put_speedup_4t_ok`: 1.0 when the machine has >= 4 hardware threads
/// and the speedup is >= 2x, vacuously 1.0 on smaller machines (where the
/// raw speedup is physically unattainable), 0.0 on a real miss.
void BenchMultiThreadedLsm(bench::BenchArtifact* artifact) {
  const uint64_t kOpsPerThread = bench::SmokeScaled<uint64_t>(30000, 6000);
  const std::string value(128, 'v');
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  artifact->Set("hardware_threads", static_cast<double>(hardware));

  double put_rate_1t = 0;
  double put_rate_4t = 0;
  for (int threads : {1, 2, 4, 8}) {
    lsm::MemEnv env;
    lsm::Options opts;
    opts.memtable_shards = 16;
    opts.background_maintenance = true;
    auto db = lsm::DB::Open(&env, "/bench-mt", opts);
    RHINO_CHECK_OK(db.status());
    const uint64_t total_ops = threads * kOpsPerThread;

    // Put phase: T writers on disjoint stripes.
    const double cpu_start = ProcessCpuNs();
    double put_us = TimeUs([&] {
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          for (uint64_t i = 0; i < kOpsPerThread; ++i) {
            RHINO_CHECK_OK(
                (*db)->Put(Key(t * kOpsPerThread + i), value));
          }
        });
      }
      for (auto& w : workers) w.join();
    });
    RHINO_CHECK_OK((*db)->WaitForBackgroundWork());
    artifact->Set("mt_put_cpu_ns_per_op.t" + std::to_string(threads),
                  (ProcessCpuNs() - cpu_start) / total_ops);
    double put_rate = total_ops / (put_us / 1e6);
    if (threads == 1) put_rate_1t = put_rate;
    if (threads == 4) put_rate_4t = put_rate;
    artifact->Set("throughput_mt_put_per_s.t" + std::to_string(threads),
                  put_rate);

    // Get phase: T readers, each probing random keys across all stripes.
    double cpu0 = ProcessCpuNs();
    double get_us = TimeUs([&] {
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          Random rng(100 + t);
          std::string out;
          for (uint64_t i = 0; i < kOpsPerThread; ++i) {
            RHINO_CHECK_OK((*db)->Get(Key(rng.Uniform(total_ops)), &out));
          }
        });
      }
      for (auto& w : workers) w.join();
    });
    artifact->Set("mt_get_cpu_ns_per_op.t" + std::to_string(threads),
                  (ProcessCpuNs() - cpu0) / total_ops);
    artifact->Set("throughput_mt_get_per_s.t" + std::to_string(threads),
                  total_ops / (get_us / 1e6));

    // Scan phase: T snapshot iterators over partitioned key ranges.
    cpu0 = ProcessCpuNs();
    double scan_us = TimeUs([&] {
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          auto it = (*db)->NewIterator(Key(t * kOpsPerThread),
                                       Key((t + 1) * kOpsPerThread));
          RHINO_CHECK_OK(it.status());
          uint64_t count = 0;
          for (; it->Valid(); it->Next()) ++count;
          RHINO_CHECK(count == kOpsPerThread);
        });
      }
      for (auto& w : workers) w.join();
    });
    artifact->Set("mt_scan_cpu_ns_per_entry.t" + std::to_string(threads),
                  (ProcessCpuNs() - cpu0) / total_ops);
    artifact->Set("throughput_mt_scan_entries_per_s.t" +
                      std::to_string(threads),
                  total_ops / (scan_us / 1e6));
    artifact->Set("mt_write_stall_ms.t" + std::to_string(threads),
                  (*db)->stall_micros() / 1000.0);
  }

  double speedup = put_rate_4t / put_rate_1t;
  artifact->Set("mt_put_speedup_4t", speedup);
  artifact->Set("mt_put_speedup_4t_ok",
                (hardware < 4 || speedup >= 2.0) ? 1.0 : 0.0);
}

/// Write/read amplification over a compaction-heavy workload, the WA/RA
/// accounting now kept first-class by the DB: WA = physical bytes persisted
/// (WAL + flush + compaction output) per logical byte accepted; RA =
/// physical SST block bytes fetched (cache misses) per logical byte
/// returned. Overwrites force every level of rewrite work; the read phase
/// runs against a deliberately tiny cache so RA reflects block fetches,
/// not cache hits.
void BenchAmplification(bench::BenchArtifact* artifact) {
  const uint64_t kWrites = bench::SmokeScaled<uint64_t>(120000, 12000);
  const uint64_t kLiveKeys = kWrites / 4;  // 4x overwrite pressure
  const std::string value(100, 'v');
  lsm::MemEnv env;
  lsm::Options opts;
  opts.memtable_bytes = 256 * 1024;
  opts.block_cache = std::make_shared<lsm::BlockCache>(64 * 1024);
  auto db = lsm::DB::Open(&env, "/bench-amp", opts);
  RHINO_CHECK_OK(db.status());

  Random rng(21);
  // Seed every live key once (so the read phase below never misses), then
  // random overwrites supply the compaction pressure.
  for (uint64_t i = 0; i < kLiveKeys; ++i) {
    RHINO_CHECK_OK((*db)->Put(Key(i), value));
  }
  for (uint64_t i = kLiveKeys; i < kWrites; ++i) {
    RHINO_CHECK_OK((*db)->Put(Key(rng.Uniform(kLiveKeys)), value));
  }
  RHINO_CHECK_OK((*db)->CompactRange());

  double user_mb = (*db)->user_bytes_written() / 1e6;
  artifact->Set("write_amplification", (*db)->write_amplification());
  artifact->Set("wal_bytes_per_user_byte",
                (*db)->wal_bytes_written() / ((*db)->user_bytes_written() * 1.0));
  artifact->Set("flush_bytes_per_user_byte",
                (*db)->flush_bytes_written() /
                    ((*db)->user_bytes_written() * 1.0));
  artifact->Set("compaction_bytes_out_per_user_byte",
                (*db)->compaction_bytes_out() /
                    ((*db)->user_bytes_written() * 1.0));
  artifact->Set("compaction_in_mb", (*db)->compaction_bytes_in() / 1e6);
  artifact->Set("compaction_out_mb", (*db)->compaction_bytes_out() / 1e6);
  artifact->Set("user_write_mb", user_mb);
  artifact->Set("write_stall_ms", (*db)->stall_micros() / 1000.0);

  const uint64_t kReads = bench::SmokeScaled<uint64_t>(20000, 4000);
  opts.block_cache->Clear();
  std::string out;
  for (uint64_t i = 0; i < kReads; ++i) {
    RHINO_CHECK_OK((*db)->Get(Key(rng.Uniform(kLiveKeys)), &out));
  }
  artifact->Set("read_amplification", (*db)->read_amplification());
  artifact->Set("sst_read_bytes_per_get",
                (*db)->sst_bytes_read() / (kReads * 1.0));
  artifact->Set("sst_blocks_read_per_get",
                (*db)->sst_blocks_read() / (kReads * 1.0));
}

int RunLsmReadPathArtifact() {
  bench::BenchArtifact artifact("micro_lsm");
  artifact.SetInfo("mode", bench::SmokeMode() ? "smoke" : "full");
  BenchPointGets(&artifact);
  BenchRangeScans(&artifact);
  BenchExtractVnodes(&artifact);
  BenchWritePath(&artifact);
  BenchMemtablePool(&artifact);
  BenchFlushPeakMemory(&artifact);
  BenchIngestVnodes(&artifact);
  BenchMultiThreadedLsm(&artifact);
  BenchAmplification(&artifact);
  Status st = artifact.Write();
  if (!st.ok()) {
    RHINO_LOG(Error) << "failed to write artifact: " << st.ToString();
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rhino

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rhino::RunLsmReadPathArtifact();
}
