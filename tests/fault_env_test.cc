#include "lsm/fault_env.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lsm/db.h"
#include "lsm/env.h"
#include "lsm/write_batch.h"

/// \file fault_env_test.cc
/// The fault-wrapping Env decorator: crash budgets, seeded probabilistic
/// faults, torn appends — including the WAL torn-tail recovery scenario
/// on a real filesystem (PosixEnv), where a crash injected mid
/// group-commit leaves half a commit record on disk and reopen must
/// recover every acknowledged write and drop the torn tail.

namespace rhino::lsm {
namespace {

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

Options SmallOptions() {
  Options opts;
  opts.memtable_bytes = 16 * 1024;
  opts.level_base_bytes = 64 * 1024;
  opts.target_file_bytes = 16 * 1024;
  return opts;
}

std::string PosixScratchDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "rhino_fault_env_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FaultEnvTest, BudgetFailsAfterNWrites) {
  MemEnv base;
  FaultEnv env(&base);
  env.SetWriteBudget(2);
  EXPECT_TRUE(env.WriteFile("/a", "x").ok());
  EXPECT_TRUE(env.WriteFile("/b", "x").ok());
  // Budget exhausted: the machine is down until healed.
  EXPECT_TRUE(env.WriteFile("/c", "x").IsIOError());
  EXPECT_TRUE(env.AppendFile("/a", "x").IsIOError());
  EXPECT_TRUE(env.RenameFile("/a", "/d").IsIOError());
  EXPECT_GE(env.injected_faults(), 3u);
  env.Heal();
  EXPECT_TRUE(env.WriteFile("/c", "x").ok());
  // Reads were never faulted; the base content is intact.
  std::string out;
  EXPECT_TRUE(env.ReadFile("/a", &out).ok());
  EXPECT_EQ(out, "x");
}

TEST(FaultEnvTest, TornAppendLeavesHalfTheBytes) {
  MemEnv base;
  FaultEnv env(&base);
  auto file = env.NewWritableFile("/wal", /*append=*/false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123456789").ok());
  ASSERT_TRUE((*file)->Flush().ok());
  env.SetWriteBudget(0);
  EXPECT_TRUE((*file)->Append("abcdefgh").IsIOError());
  env.Heal();
  // The torn half reached the base file before the failure surfaced.
  std::string out;
  ASSERT_TRUE(base.ReadFile("/wal", &out).ok());
  EXPECT_EQ(out, "0123456789abcd");
}

TEST(FaultEnvTest, CleanFailureModeLeavesNothing) {
  MemEnv base;
  FaultEnv env(&base);
  env.SetTornAppends(false);
  auto file = env.NewWritableFile("/wal", /*append=*/false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123456789").ok());
  ASSERT_TRUE((*file)->Flush().ok());
  env.SetWriteBudget(0);
  EXPECT_TRUE((*file)->Append("abcdefgh").IsIOError());
  env.Heal();
  std::string out;
  ASSERT_TRUE(base.ReadFile("/wal", &out).ok());
  EXPECT_EQ(out, "0123456789");
}

TEST(FaultEnvTest, ProbabilisticFaultsAreSeedReproducible) {
  auto sequence = [](uint64_t seed) {
    MemEnv base;
    FaultEnv env(&base, seed);
    env.SetWriteFailProbability(0.3);
    env.SetTornAppends(false);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(env.WriteFile("/f" + std::to_string(i), "x").ok());
    }
    return outcomes;
  };
  EXPECT_EQ(sequence(7), sequence(7));
  EXPECT_NE(sequence(7), sequence(8));
  // The fault rate is in the right ballpark, not 0 and not 1.
  auto outcomes = sequence(7);
  int failures = 0;
  for (bool ok : outcomes) failures += ok ? 0 : 1;
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 64);
}

TEST(FaultEnvTest, ReadFaultsAreIndependentOfWrites) {
  MemEnv base;
  ASSERT_TRUE(base.WriteFile("/a", "payload").ok());
  FaultEnv env(&base, 11);
  env.SetReadFailProbability(1.0);
  std::string out;
  EXPECT_TRUE(env.ReadFile("/a", &out).IsIOError());
  EXPECT_TRUE(env.ReadFileRange("/a", 0, 3, &out).IsIOError());
  EXPECT_FALSE(env.NewRandomAccessFile("/a").ok());
  // Writes still pass.
  EXPECT_TRUE(env.WriteFile("/b", "x").ok());
  env.Heal();
  EXPECT_TRUE(env.ReadFile("/a", &out).ok());
}

TEST(FaultEnvTest, InjectedLatencyDelaysOperations) {
  MemEnv base;
  FaultEnv env(&base);
  env.SetLatencyUs(2000);
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(env.WriteFile("/f", "x").ok());
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            10000);
}

/// The crash sweep of lsm_test, re-based on the reusable decorator and a
/// real filesystem: for several budgets the Nth write-class operation
/// fails (tearing a record), the DB is abandoned, and a reopen on the
/// healed PosixEnv must surface every acknowledged mutation.
TEST(FaultEnvTest, PosixCrashSweepRecoversAckedWrites) {
  for (int n : {3, 10, 25, 60, 120}) {
    std::string dir = PosixScratchDir("sweep_" + std::to_string(n));
    PosixEnv base;
    FaultEnv env(&base);
    Options opts = SmallOptions();
    std::vector<int> acked;
    {
      env.SetWriteBudget(n);
      auto db = DB::Open(&env, dir, opts);
      if (!db.ok()) continue;  // crashed inside Open: nothing acked
      for (int i = 0; i < 80; ++i) {
        if (!(*db)
                 ->Put(Key(i),
                       std::string(100, static_cast<char>('a' + i % 26)))
                 .ok()) {
          break;  // crash point: abandon the DB without a clean close
        }
        acked.push_back(i);
      }
    }
    env.Heal();
    auto db = DB::Open(&env, dir, opts);
    ASSERT_TRUE(db.ok()) << "budget=" << n << ": " << db.status().ToString();
    std::string v;
    for (int i : acked) {
      ASSERT_TRUE((*db)->Get(Key(i), &v).ok()) << "budget=" << n << " i=" << i;
      EXPECT_EQ(v, std::string(100, static_cast<char>('a' + i % 26)));
    }
    std::filesystem::remove_all(dir);
  }
}

/// WAL torn tail on the real filesystem: a group commit (WriteBatch) is
/// torn mid-append — half of the commit record reaches the log file
/// before the crash. Reopen must recover every previously acknowledged
/// write, detect the torn tail via the WAL framing, and must NOT surface
/// any key of the unacknowledged batch.
TEST(FaultEnvTest, WalTornTailMidGroupCommitRecoversOnPosix) {
  std::string dir = PosixScratchDir("torn_tail");
  Options opts = SmallOptions();
  opts.memtable_bytes = 1 << 20;  // keep everything in the WAL: no flush
  std::vector<int> acked;
  {
    PosixEnv base;
    FaultEnv env(&base);
    auto db = DB::Open(&env, dir, opts);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*db)->Put(Key(i), "acked-" + std::to_string(i)).ok());
      acked.push_back(i);
    }
    // The machine dies during the next WAL append: the group commit's
    // record is half-written and flushed, then the error surfaces.
    env.SetWriteBudget(0);
    WriteBatch batch;
    for (int i = 100; i < 140; ++i) {
      batch.Put(Key(i), "unacked-" + std::to_string(i));
    }
    EXPECT_FALSE((*db)->Write(batch).ok());
    EXPECT_GT(env.injected_faults(), 0u);
    // Abandon without a clean close, exactly like a crash.
  }
  PosixEnv healed;
  auto db = DB::Open(&healed, dir, SmallOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::string v;
  for (int i : acked) {
    ASSERT_TRUE((*db)->Get(Key(i), &v).ok()) << "i=" << i;
    EXPECT_EQ(v, "acked-" + std::to_string(i));
  }
  // The torn batch was never acknowledged; none of it may reappear.
  for (int i = 100; i < 140; ++i) {
    EXPECT_TRUE((*db)->Get(Key(i), &v).IsNotFound()) << "i=" << i;
  }
  EXPECT_EQ((*db)->wal_entries_recovered(), acked.size());
  std::filesystem::remove_all(dir);
}

/// FaultEnv is shared across threads (the nodes of an in-process loopback
/// cluster share one Env, so their RPC handler, replicator and LSM
/// background threads all reach it): concurrent write-class operations
/// against one budget must be safe and the budget must be consumed exactly
/// once per operation.
TEST(FaultEnvTest, ConcurrentBudgetConsumptionIsSafe) {
  MemEnv base;
  FaultEnv env(&base);
  env.SetTornAppends(false);
  env.SetWriteBudget(64);
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&env, &ok_count, t] {
      for (int i = 0; i < 32; ++i) {
        std::string path = "/t" + std::to_string(t) + "_" + std::to_string(i);
        if (env.WriteFile(path, "x").ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Exactly the budgeted number of operations succeeded.
  EXPECT_EQ(ok_count.load(), 64);
}

}  // namespace
}  // namespace rhino::lsm
