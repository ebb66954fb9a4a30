#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/block_pool.h"
#include "lsm/db.h"
#include "lsm/env.h"
#include "lsm/fault_env.h"
#include "lsm/write_batch.h"

/// Concurrency coverage for the shared LSM layers. In a networked node, a
/// shard's DB is written by RPC handler threads (one per connection: the
/// driver's batches, peers' replication deltas), read by the replicator
/// thread, and flushed and compacted on background threads; every shard of
/// the process shares the process-wide BlockCache and BlockPool, and the
/// nodes of an in-process loopback cluster share one MemEnv. These tests
/// hammer exactly those shapes; under the TSan CI lane they double as race
/// detectors for the store-wide locks.

namespace rhino::lsm {
namespace {

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

/// Options tuned so a few thousand writes cross every interesting internal
/// boundary (memtable flush, L0 compaction) while a test stays fast.
Options SmallStoreOptions() {
  Options opts;
  opts.memtable_bytes = 16 * 1024;
  opts.target_file_bytes = 8 * 1024;
  opts.level_base_bytes = 32 * 1024;
  opts.l0_compaction_trigger = 2;
  return opts;
}

TEST(BlockCacheConcurrencyTest, MixedLookupInsertEraseStaysWithinBudget) {
  BlockCache cache(64 * 1024);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      uint64_t table_id = static_cast<uint64_t>(t % 4);
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint32_t block = static_cast<uint32_t>(i % 32);
        if (auto hit = cache.Lookup(table_id, block)) {
          ASSERT_EQ(hit->size(), 512u);
        } else {
          cache.Insert(table_id, block,
                       std::make_shared<const std::string>(512, 'b'));
        }
        if (i % 500 == 499) cache.EraseTable(table_id);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_LE(cache.usage_bytes(), cache.capacity_bytes());
  EXPECT_LE(cache.peak_usage_bytes(), cache.capacity_bytes());
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

TEST(DBConcurrencyTest, ReadersSeeConsistentValuesDuringFlushesAndCompactions) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallStoreOptions());
  ASSERT_TRUE(db.ok());

  // Enough distinct keys that the live set alone overflows the memtable
  // (overwrites replace in place, so key count — not write count — is what
  // forces flushes). Each key's value is "v<round>" plus padding; the
  // writer raises rounds monotonically, so a reader must observe some
  // complete "v<n>", never torn bytes.
  constexpr int kKeys = 256;
  constexpr int kRounds = 20;
  auto value_for = [](int round) {
    return "v" + std::to_string(round) + std::string(120, '.');
  };
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < kKeys; ++k) {
        ASSERT_TRUE((*db)->Put(Key(k), value_for(round)).ok());
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      int k = t;
      while (!done.load()) {
        std::string value;
        Status s = (*db)->Get(Key(k % kKeys), &value);
        if (s.ok()) {
          ASSERT_GE(value.size(), 2u);
          ASSERT_EQ(value[0], 'v');
          int round = std::stoi(value.substr(1));
          ASSERT_GE(round, 0);
          ASSERT_LT(round, kRounds);
        } else {
          ASSERT_TRUE(s.IsNotFound());
        }
        ++k;
      }
    });
  }
  // A stats poller, standing in for checkpoint persistence and metrics
  // queries reading sizes while the owner commits.
  std::thread poller([&] {
    while (!done.load()) {
      (*db)->ApproximateSize();
      (*db)->NumTableFiles();
      (*db)->OpenTableCount();
      (*db)->flush_count();
    }
  });

  writer.join();
  for (auto& th : readers) th.join();
  poller.join();

  EXPECT_GT((*db)->flush_count(), 0u) << "test must cross the flush path";
  for (int k = 0; k < kKeys; ++k) {
    std::string value;
    ASSERT_TRUE((*db)->Get(Key(k), &value).ok());
    EXPECT_EQ(value, value_for(kRounds - 1));
  }
}

TEST(DBConcurrencyTest, ParallelWritersOnDisjointRangesAllLand) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallStoreOptions());
  ASSERT_TRUE(db.ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int k = t * kPerThread + i;
        if (i % 10 == 0) {
          WriteBatch batch;
          batch.Put(Key(k), "batched");
          ASSERT_TRUE((*db)->Write(batch).ok());
        } else {
          ASSERT_TRUE((*db)->Put(Key(k), "direct").ok());
        }
      }
    });
  }
  for (auto& th : writers) th.join();

  for (int k = 0; k < kThreads * kPerThread; ++k) {
    std::string value;
    ASSERT_TRUE((*db)->Get(Key(k), &value).ok()) << Key(k);
  }
}

TEST(DBConcurrencyTest, IteratorSnapshotIsStableWhileWriterProceeds) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallStoreOptions());
  ASSERT_TRUE(db.ok());

  constexpr int kKeys = 300;
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE((*db)->Put(Key(k), "before").ok());
  }

  auto iter = (*db)->NewIterator();
  ASSERT_TRUE(iter.ok());

  // Overwrite everything (forcing flushes/compactions that delete the
  // very tables the snapshot reads through) while the iterator drains.
  std::thread writer([&] {
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE((*db)->Put(Key(k), "after-the-snapshot").ok());
    }
    ASSERT_TRUE((*db)->CompactRange().ok());
  });

  int seen = 0;
  for (; iter->Valid(); iter->Next()) {
    EXPECT_EQ(iter->value(), "before") << iter->key();
    ++seen;
  }
  writer.join();
  EXPECT_EQ(seen, kKeys);

  std::string value;
  ASSERT_TRUE((*db)->Get(Key(0), &value).ok());
  EXPECT_EQ(value, "after-the-snapshot");
}

TEST(DBConcurrencyTest, CheckpointWhileWriting) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallStoreOptions());
  ASSERT_TRUE(db.ok());
  for (int k = 0; k < 200; ++k) {
    ASSERT_TRUE((*db)->Put(Key(k), "base").ok());
  }

  // Checkpoints race with a writer: one thread captures the DB while
  // another keeps committing.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int k = 0; k < 2000; ++k) {
      ASSERT_TRUE((*db)->Put(Key(k % 400), "live-" + std::to_string(k)).ok());
    }
    done.store(true);
  });

  int checkpoints = 0;
  while (!done.load()) {
    auto info =
        (*db)->CreateCheckpoint("/ckpt" + std::to_string(checkpoints));
    ASSERT_TRUE(info.ok());
    EXPECT_FALSE(info->files.empty());
    ++checkpoints;
  }
  writer.join();
  ASSERT_GT(checkpoints, 0);

  // Every checkpoint directory must reopen as a consistent store.
  auto reopened = DB::OpenFromCheckpoint(
      &env, "/ckpt" + std::to_string(checkpoints - 1), "/restored");
  ASSERT_TRUE(reopened.ok());
  std::string value;
  ASSERT_TRUE((*reopened)->Get(Key(0), &value).ok());
}

/// Same store, but with flushes/compactions scheduled on the background
/// worker — the configuration the networked node server runs.
Options BackgroundStoreOptions() {
  Options opts = SmallStoreOptions();
  opts.background_maintenance = true;
  return opts;
}

TEST(DBBackgroundTest, IteratorSnapshotStableWhileBackgroundCompactionRuns) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", BackgroundStoreOptions());
  ASSERT_TRUE(db.ok());

  constexpr int kKeys = 300;
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE((*db)->Put(Key(k), "before").ok());
  }
  ASSERT_TRUE((*db)->WaitForBackgroundWork().ok());

  auto iter = (*db)->NewIterator();
  ASSERT_TRUE(iter.ok());

  // Overwrite everything: the writer only schedules maintenance, so the
  // flushes and compactions that delete the snapshot's tables genuinely run
  // concurrently with the drain below.
  std::thread writer([&] {
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < kKeys; ++k) {
        ASSERT_TRUE(
            (*db)->Put(Key(k), "after-" + std::string(100, 'x')).ok());
      }
    }
  });

  int seen = 0;
  for (; iter->Valid(); iter->Next()) {
    EXPECT_EQ(iter->value(), "before") << iter->key();
    ++seen;
  }
  writer.join();
  EXPECT_EQ(seen, kKeys);

  ASSERT_TRUE((*db)->WaitForBackgroundWork().ok());
  EXPECT_GT((*db)->flush_count(), 0u);
}

TEST(DBBackgroundTest, BackgroundFailureSurfacesOnNextWrite) {
  MemEnv base;
  FaultEnv env(&base);
  Options opts = BackgroundStoreOptions();
  // No WAL: the only write-class file operations left are the background
  // flush/compaction ones, so an injected failure is unambiguously a
  // background failure — commits themselves touch no file.
  opts.enable_wal = false;
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());

  env.SetWriteBudget(0);  // every table build from here on fails

  // Keep writing: commits succeed until a memtable fills and its background
  // flush fails; the sticky error must then surface as the Status of a
  // subsequent write, not vanish into the worker.
  Status write_status;
  for (int k = 0; k < 20000 && write_status.ok(); ++k) {
    write_status = (*db)->Put(Key(k % 512), std::string(100, 'v'));
  }
  ASSERT_FALSE(write_status.ok())
      << "background flush failure never reached a writer";
  EXPECT_FALSE((*db)->WaitForBackgroundWork().ok());

  // The error is sticky: healing the Env does not resurrect the store.
  env.Heal();
  EXPECT_FALSE((*db)->Put(Key(0), "after-heal").ok());
}

TEST(DBBackgroundTest, CleanShutdownWithCompactionInFlight) {
  MemEnv base;
  FaultEnv env(&base);
  auto db = DB::Open(&env, "/db", BackgroundStoreOptions());
  ASSERT_TRUE(db.ok());

  // Slow disk: every file operation sleeps, so the flush + compaction the
  // writes below schedule are still in flight when the DB is destroyed.
  env.SetLatencyUs(2000);
  for (int k = 0; k < 600; ++k) {
    ASSERT_TRUE((*db)->Put(Key(k), std::string(100, 'v')).ok());
  }
  // Destructor must wait for the in-flight maintenance pass (TSan verifies
  // no worker thread outlives the store).
  db->reset();

  // Everything acknowledged — including entries whose flush was mid-air —
  // must survive reopen via SST + WAL recovery.
  env.Heal();
  auto reopened = DB::Open(&env, "/db", BackgroundStoreOptions());
  ASSERT_TRUE(reopened.ok());
  for (int k = 0; k < 600; ++k) {
    std::string value;
    ASSERT_TRUE((*reopened)->Get(Key(k), &value).ok()) << Key(k);
  }
}

// Four writers and background flushes retire memtables on the writer and
// worker threads alike; every block each table took is back in the pool
// once the DB closes.
TEST(DBBackgroundTest, ConcurrentWritersGiveEveryMemtableBlockBack) {
  BlockPool& pool = BlockPool::Default();
  const uint64_t in_use = pool.stats().in_use_bytes;
  {
    MemEnv env;
    auto db = DB::Open(&env, "/db", BackgroundStoreOptions());
    ASSERT_TRUE(db.ok());
    constexpr int kThreads = 4;
    constexpr int kPerThread = 1500;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          ASSERT_TRUE(
              (*db)->Put(Key(t * kPerThread + i), std::string(100, 'v')).ok());
        }
      });
    }
    for (auto& th : writers) th.join();
    ASSERT_TRUE((*db)->WaitForBackgroundWork().ok());
    EXPECT_GE((*db)->flush_count(), 4u);
    EXPECT_GT(pool.stats().in_use_bytes, in_use);
    std::string value;
    ASSERT_TRUE((*db)->Get(Key(kThreads * kPerThread - 1), &value).ok());
  }
  EXPECT_EQ(pool.stats().in_use_bytes, in_use);
}

}  // namespace
}  // namespace rhino::lsm
