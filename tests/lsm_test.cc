#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "common/random.h"
#include "lsm/arena.h"
#include "lsm/block_cache.h"
#include "lsm/block_pool.h"
#include "lsm/bloom.h"
#include "lsm/db.h"
#include "lsm/env.h"
#include "lsm/fault_env.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"
#include "lsm/write_batch.h"
#include "obs/exporters.h"
#include "obs/observability.h"

namespace rhino::lsm {
namespace {

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

// ------------------------------------------------------------------- Env --

/// Fresh scratch directory on the real filesystem for PosixEnv tests.
std::string PosixScratchDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "rhino_lsm_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(MemEnvTest, WriteReadRoundTrip) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/a", "hello").ok());
  std::string out;
  ASSERT_TRUE(env.ReadFile("/a", &out).ok());
  EXPECT_EQ(out, "hello");
  EXPECT_EQ(env.GetFileSize("/a").value(), 5u);
}

TEST(MemEnvTest, MissingFileIsNotFound) {
  MemEnv env;
  std::string out;
  EXPECT_TRUE(env.ReadFile("/missing", &out).IsNotFound());
  EXPECT_FALSE(env.FileExists("/missing"));
}

TEST(MemEnvTest, HardLinkSharesContent) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/a", std::string(1000, 'x')).ok());
  ASSERT_TRUE(env.LinkFile("/a", "/b").ok());
  EXPECT_EQ(env.UniqueContentBytes(), 1000u);
  // Deleting one name keeps the other alive.
  ASSERT_TRUE(env.DeleteFile("/a").ok());
  std::string out;
  ASSERT_TRUE(env.ReadFile("/b", &out).ok());
  EXPECT_EQ(out.size(), 1000u);
}

TEST(MemEnvTest, LinkToExistingNameFails) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/a", "1").ok());
  ASSERT_TRUE(env.WriteFile("/b", "2").ok());
  EXPECT_EQ(env.LinkFile("/a", "/b").code(), StatusCode::kAlreadyExists);
}

TEST(MemEnvTest, ListDirReturnsDirectChildrenOnly) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDir("/db").ok());
  ASSERT_TRUE(env.WriteFile("/db/1.sst", "x").ok());
  ASSERT_TRUE(env.WriteFile("/db/2.sst", "y").ok());
  ASSERT_TRUE(env.WriteFile("/db/sub/3.sst", "z").ok());
  auto names = env.ListDir("/db");
  ASSERT_TRUE(names.ok());
  std::set<std::string> set(names->begin(), names->end());
  EXPECT_EQ(set, (std::set<std::string>{"1.sst", "2.sst"}));
}

TEST(MemEnvTest, RenameMovesContent) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/a", "data").ok());
  ASSERT_TRUE(env.RenameFile("/a", "/b").ok());
  EXPECT_FALSE(env.FileExists("/a"));
  std::string out;
  ASSERT_TRUE(env.ReadFile("/b", &out).ok());
  EXPECT_EQ(out, "data");
}

// ----------------------------------------------------------------- Bloom --

// Partial reads must clamp at EOF and treat past-EOF starts as empty OK
// reads on both Env implementations.
template <typename MakeEnv>
void CheckReadFileRangeEdgeCases(MakeEnv make_env, const std::string& dir) {
  auto env = make_env();
  std::string path = dir + "/f";
  ASSERT_TRUE(env->WriteFile(path, "0123456789").ok());

  std::string out;
  ASSERT_TRUE(env->ReadFileRange(path, 2, 4, &out).ok());
  EXPECT_EQ(out, "2345");
  // Read extending past EOF is clamped, not an error.
  ASSERT_TRUE(env->ReadFileRange(path, 7, 100, &out).ok());
  EXPECT_EQ(out, "789");
  // Read starting at EOF and past EOF both yield empty OK.
  ASSERT_TRUE(env->ReadFileRange(path, 10, 5, &out).ok());
  EXPECT_EQ(out, "");
  ASSERT_TRUE(env->ReadFileRange(path, 999, 5, &out).ok());
  EXPECT_EQ(out, "");
  // Zero-length range.
  ASSERT_TRUE(env->ReadFileRange(path, 3, 0, &out).ok());
  EXPECT_EQ(out, "");
  // Missing file.
  EXPECT_TRUE(env->ReadFileRange(dir + "/missing", 0, 1, &out).IsNotFound());
  EXPECT_TRUE(env->NewRandomAccessFile(dir + "/missing").status().IsNotFound());

  // Ranges read through a hard link see the same content.
  ASSERT_TRUE(env->LinkFile(path, dir + "/g").ok());
  ASSERT_TRUE(env->ReadFileRange(dir + "/g", 4, 3, &out).ok());
  EXPECT_EQ(out, "456");
  // ... even after the original name is deleted.
  ASSERT_TRUE(env->DeleteFile(path).ok());
  ASSERT_TRUE(env->ReadFileRange(dir + "/g", 0, 4, &out).ok());
  EXPECT_EQ(out, "0123");
}

TEST(MemEnvTest, ReadFileRangeEdgeCases) {
  CheckReadFileRangeEdgeCases([] { return std::make_unique<MemEnv>(); },
                              "/dir");
}

TEST(PosixEnvTest, ReadFileRangeEdgeCases) {
  CheckReadFileRangeEdgeCases([] { return std::make_unique<PosixEnv>(); },
                              PosixScratchDir("range"));
}

// A RandomAccessFile pins content: deleting (or replacing) the name must
// not disturb reads through an already-open handle. This property is what
// keeps live iterators working across compaction deletes.
template <typename MakeEnv>
void CheckRandomAccessFilePinsContent(MakeEnv make_env, const std::string& dir) {
  auto env = make_env();
  std::string path = dir + "/f";
  ASSERT_TRUE(env->WriteFile(path, "abcdef").ok());
  auto file = env->NewRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->Size(), 6u);

  ASSERT_TRUE(env->DeleteFile(path).ok());
  std::string out;
  ASSERT_TRUE((*file)->Read(1, 3, &out).ok());
  EXPECT_EQ(out, "bcd");
  ASSERT_TRUE((*file)->Read(4, 100, &out).ok());
  EXPECT_EQ(out, "ef");

  // A fresh file under the old name is new content; the handle still
  // serves the original bytes.
  ASSERT_TRUE(env->WriteFile(path, "XYZ").ok());
  ASSERT_TRUE((*file)->Read(0, 6, &out).ok());
  EXPECT_EQ(out, "abcdef");
}

TEST(MemEnvTest, RandomAccessFilePinsContent) {
  CheckRandomAccessFilePinsContent([] { return std::make_unique<MemEnv>(); },
                                   "/dir");
}

TEST(PosixEnvTest, RandomAccessFilePinsContent) {
  CheckRandomAccessFilePinsContent([] { return std::make_unique<PosixEnv>(); },
                                   PosixScratchDir("pin"));
}

// ------------------------------------------------------------ BlockCache --

TEST(BlockCacheTest, MissThenHit) {
  BlockCache cache(1024);
  uint64_t t = cache.NewTableId();
  EXPECT_EQ(cache.Lookup(t, 0), nullptr);
  cache.Insert(t, 0, std::make_shared<std::string>(100, 'a'));
  auto block = cache.Lookup(t, 0);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->size(), 100u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.usage_bytes(), 100u);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsedUnderBudget) {
  BlockCache cache(300);
  uint64_t t = cache.NewTableId();
  cache.Insert(t, 0, std::make_shared<std::string>(100, 'a'));
  cache.Insert(t, 1, std::make_shared<std::string>(100, 'b'));
  cache.Insert(t, 2, std::make_shared<std::string>(100, 'c'));
  // Touch block 0 so block 1 is the LRU victim.
  ASSERT_NE(cache.Lookup(t, 0), nullptr);
  cache.Insert(t, 3, std::make_shared<std::string>(100, 'd'));
  EXPECT_EQ(cache.Lookup(t, 1), nullptr) << "LRU victim should be gone";
  EXPECT_NE(cache.Lookup(t, 0), nullptr);
  EXPECT_NE(cache.Lookup(t, 3), nullptr);
  EXPECT_LE(cache.usage_bytes(), 300u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(BlockCacheTest, OversizedBlockIsNotCached) {
  BlockCache cache(50);
  uint64_t t = cache.NewTableId();
  cache.Insert(t, 0, std::make_shared<std::string>(100, 'a'));
  EXPECT_EQ(cache.Lookup(t, 0), nullptr);
  EXPECT_EQ(cache.usage_bytes(), 0u);
}

TEST(BlockCacheTest, EraseTableDropsOnlyThatTable) {
  BlockCache cache(1024);
  uint64_t t1 = cache.NewTableId();
  uint64_t t2 = cache.NewTableId();
  cache.Insert(t1, 0, std::make_shared<std::string>(10, 'a'));
  cache.Insert(t2, 0, std::make_shared<std::string>(10, 'b'));
  cache.EraseTable(t1);
  EXPECT_EQ(cache.Lookup(t1, 0), nullptr);
  EXPECT_NE(cache.Lookup(t2, 0), nullptr);
  EXPECT_EQ(cache.usage_bytes(), 10u);
}

TEST(BlockCacheTest, PeakUsageTracksHighWaterMark) {
  BlockCache cache(250);
  uint64_t t = cache.NewTableId();
  cache.Insert(t, 0, std::make_shared<std::string>(100, 'a'));
  cache.Insert(t, 1, std::make_shared<std::string>(100, 'b'));
  cache.Insert(t, 2, std::make_shared<std::string>(100, 'c'));  // evicts one
  EXPECT_EQ(cache.peak_usage_bytes(), 200u);
  EXPECT_LE(cache.usage_bytes(), 250u);
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 2000; ++i) builder.AddKey(Key(i));
  std::string data = builder.Finish();
  BloomFilter filter(data);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(filter.MayContain(Key(i))) << i;
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 2000; ++i) builder.AddKey(Key(i));
  std::string data = builder.Finish();
  BloomFilter filter(data);
  int fp = 0;
  for (int i = 2000; i < 12000; ++i) fp += filter.MayContain(Key(i));
  // 10 bits/key gives ~1% theoretical FPR; allow generous slack.
  EXPECT_LT(fp, 400);
}

TEST(BloomTest, EmptyFilterMatchesNothingSpurious) {
  BloomFilterBuilder builder(10);
  std::string data = builder.Finish();
  BloomFilter filter(data);
  int hits = 0;
  for (int i = 0; i < 1000; ++i) hits += filter.MayContain(Key(i));
  EXPECT_LT(hits, 10);
}

// -------------------------------------------------------------- MemTable --

TEST(MemTableTest, InsertAndGet) {
  MemTable table;
  table.Add("b", 1, ValueType::kValue, "2");
  table.Add("a", 2, ValueType::kValue, "1");
  Entry e;
  ASSERT_TRUE(table.Get("a", &e));
  EXPECT_EQ(e.value, "1");
  EXPECT_EQ(e.seq, 2u);
  EXPECT_FALSE(table.Get("c", &e));
}

TEST(MemTableTest, OverwriteKeepsNewest) {
  MemTable table;
  table.Add("k", 1, ValueType::kValue, "old");
  table.Add("k", 2, ValueType::kValue, "new");
  Entry e;
  ASSERT_TRUE(table.Get("k", &e));
  EXPECT_EQ(e.value, "new");
  EXPECT_EQ(table.NumEntries(), 1u);
}

TEST(MemTableTest, TombstonesAreVisible) {
  MemTable table;
  table.Add("k", 1, ValueType::kValue, "v");
  table.Add("k", 2, ValueType::kDeletion, "");
  Entry e;
  ASSERT_TRUE(table.Get("k", &e));
  EXPECT_EQ(e.type, ValueType::kDeletion);
}

TEST(MemTableTest, IterationIsSorted) {
  MemTable table;
  Random rng(5);
  std::set<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    std::string k = Key(static_cast<int>(rng.Uniform(10000)));
    keys.insert(k);
    table.Add(k, static_cast<uint64_t>(i), ValueType::kValue, "v");
  }
  std::string prev;
  size_t count = 0;
  for (auto it = table.NewIterator(); it.Valid(); it.Next()) {
    EXPECT_LT(prev, it.key());
    prev = it.key();
    ++count;
  }
  EXPECT_EQ(count, keys.size());
}

TEST(MemTableTest, ApproximateBytesGrows) {
  MemTable table;
  uint64_t before = table.ApproximateBytes();
  table.Add("key", 1, ValueType::kValue, std::string(1000, 'v'));
  EXPECT_GT(table.ApproximateBytes(), before + 1000);
}

// --------------------------------------------------------------- SSTable --

TEST(SSTableTest, BuildAndLookup) {
  SSTableBuilder builder(256);
  for (int i = 0; i < 500; ++i) {
    builder.Add(Key(i), static_cast<uint64_t>(i), ValueType::kValue,
                "value" + std::to_string(i));
  }
  auto contents = std::make_shared<const std::string>(builder.Finish());
  auto table = SSTableReader::Open(contents);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_entries(), 500u);
  EXPECT_EQ((*table)->smallest(), Key(0));
  EXPECT_EQ((*table)->largest(), Key(499));

  Entry e;
  for (int i = 0; i < 500; i += 7) {
    ASSERT_TRUE((*table)->Get(Key(i), &e).ok()) << i;
    EXPECT_EQ(e.value, "value" + std::to_string(i));
  }
  EXPECT_TRUE((*table)->Get(Key(1000), &e).IsNotFound());
  EXPECT_TRUE((*table)->Get("aaa", &e).IsNotFound());
}

TEST(SSTableTest, IteratorVisitsAllInOrder) {
  SSTableBuilder builder(128);
  for (int i = 0; i < 300; ++i) {
    builder.Add(Key(i), 1, ValueType::kValue, "v");
  }
  auto contents = std::make_shared<const std::string>(builder.Finish());
  auto table = SSTableReader::Open(contents);
  ASSERT_TRUE(table.ok());
  int i = 0;
  for (auto it = (*table)->NewIterator(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.key(), Key(i));
    ++i;
  }
  EXPECT_EQ(i, 300);
}

TEST(SSTableTest, CorruptFooterDetected) {
  auto contents = std::make_shared<const std::string>("garbage");
  EXPECT_FALSE(SSTableReader::Open(contents).ok());
  SSTableBuilder builder;
  builder.Add("a", 1, ValueType::kValue, "v");
  std::string data = builder.Finish();
  data.back() ^= 0xff;  // clobber the magic
  EXPECT_FALSE(
      SSTableReader::Open(std::make_shared<const std::string>(data)).ok());
}

TEST(SSTableTest, TombstonesRoundTrip) {
  SSTableBuilder builder;
  builder.Add("dead", 3, ValueType::kDeletion, "");
  auto table = SSTableReader::Open(
      std::make_shared<const std::string>(builder.Finish()));
  ASSERT_TRUE(table.ok());
  Entry e;
  ASSERT_TRUE((*table)->Get("dead", &e).ok());
  EXPECT_EQ(e.type, ValueType::kDeletion);
  EXPECT_EQ(e.seq, 3u);
}

// -------------------------------------------------------------------- DB --

Options SmallOptions() {
  Options opts;
  opts.memtable_bytes = 16 * 1024;
  opts.level_base_bytes = 64 * 1024;
  opts.target_file_bytes = 16 * 1024;
  return opts;
}

TEST(DBTest, PutGetRoundTrip) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("k1", "v1").ok());
  std::string v;
  ASSERT_TRUE((*db)->Get("k1", &v).ok());
  EXPECT_EQ(v, "v1");
  EXPECT_TRUE((*db)->Get("k2", &v).IsNotFound());
}

TEST(DBTest, OverwriteAcrossFlush) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("k", "old").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Put("k", "new").ok());
  std::string v;
  ASSERT_TRUE((*db)->Get("k", &v).ok());
  EXPECT_EQ(v, "new");
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Get("k", &v).ok());
  EXPECT_EQ(v, "new");
}

TEST(DBTest, DeleteShadowsOlderValue) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("k", "v").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Delete("k").ok());
  std::string v;
  EXPECT_TRUE((*db)->Get("k", &v).IsNotFound());
  ASSERT_TRUE((*db)->Flush().ok());
  EXPECT_TRUE((*db)->Get("k", &v).IsNotFound());
}

TEST(DBTest, ManyKeysSurviveFlushesAndCompactions) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  const int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE((*db)->Put(Key(i), "value" + std::to_string(i)).ok());
  }
  EXPECT_GT((*db)->flush_count(), 0u);
  EXPECT_GT((*db)->compaction_count(), 0u);
  std::string v;
  for (int i = 0; i < kKeys; i += 17) {
    ASSERT_TRUE((*db)->Get(Key(i), &v).ok()) << i;
    EXPECT_EQ(v, "value" + std::to_string(i));
  }
}

TEST(DBTest, CompactRangeDropsTombstonesAtBottom) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 200; ++i) ASSERT_TRUE((*db)->Put(Key(i), "v").ok());
  for (int i = 0; i < 200; ++i) ASSERT_TRUE((*db)->Delete(Key(i)).ok());
  ASSERT_TRUE((*db)->CompactRange().ok());
  auto it = (*db)->NewIterator();
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid()) << "all keys deleted, tree should be empty";
}

TEST(DBTest, IteratorMergesAllSources) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE((*db)->Put(Key(i), "a").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  for (int i = 500; i < 1500; ++i) ASSERT_TRUE((*db)->Put(Key(i), "b").ok());
  auto it = (*db)->NewIterator();
  ASSERT_TRUE(it.ok());
  int count = 0;
  std::string prev;
  for (; it->Valid(); it->Next()) {
    EXPECT_LT(prev, it->key());
    prev = it->key();
    if (it->key() >= Key(500)) {
      EXPECT_EQ(it->value(), "b");
    }
    ++count;
  }
  EXPECT_EQ(count, 1500);
}

TEST(DBTest, RangeIteratorRespectsBounds) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE((*db)->Put(Key(i), "v").ok());
  auto it = (*db)->NewIterator(Key(10), Key(20));
  ASSERT_TRUE(it.ok());
  int count = 0;
  for (; it->Valid(); it->Next()) ++count;
  EXPECT_EQ(count, 10);
}

TEST(DBTest, ReopenRecoversFromManifest) {
  MemEnv env;
  {
    auto db = DB::Open(&env, "/db", SmallOptions());
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 2000; ++i) ASSERT_TRUE((*db)->Put(Key(i), "v").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  std::string v;
  for (int i = 0; i < 2000; i += 13) {
    ASSERT_TRUE((*db)->Get(Key(i), &v).ok()) << i;
  }
}

TEST(DBTest, CheckpointIsPointInTime) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 500; ++i) ASSERT_TRUE((*db)->Put(Key(i), "v1").ok());
  auto ckpt = (*db)->CreateCheckpoint("/ckpt1");
  ASSERT_TRUE(ckpt.ok());
  EXPECT_GT(ckpt->total_bytes, 0u);

  // Mutate after the checkpoint.
  for (int i = 0; i < 500; ++i) ASSERT_TRUE((*db)->Put(Key(i), "v2").ok());
  ASSERT_TRUE((*db)->Flush().ok());

  auto restored = DB::OpenFromCheckpoint(&env, "/ckpt1", "/db2", SmallOptions());
  ASSERT_TRUE(restored.ok());
  std::string v;
  ASSERT_TRUE((*restored)->Get(Key(42), &v).ok());
  EXPECT_EQ(v, "v1") << "checkpoint must not see post-checkpoint writes";
}

TEST(DBTest, CheckpointHardLinksDoNotCopyBytes) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*db)->Put(Key(i), std::string(100, 'x')).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());
  uint64_t before = env.UniqueContentBytes();
  auto ckpt = (*db)->CreateCheckpoint("/ckpt");
  ASSERT_TRUE(ckpt.ok());
  uint64_t after = env.UniqueContentBytes();
  // Only the checkpoint MANIFEST adds unique bytes; SSTs are hard links.
  EXPECT_LT(after - before, 64 * 1024u);
}

TEST(DBTest, IncrementalCheckpointDeltaIsOnlyNewFiles) {
  MemEnv env;
  Options opts = SmallOptions();
  // Pin the tree shape: a compaction between the checkpoints would rewrite
  // files and defeat the sharing this test demonstrates.
  opts.auto_compact = false;
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE((*db)->Put(Key(i), "v").ok());
  auto ckpt1 = (*db)->CreateCheckpoint("/c1");
  ASSERT_TRUE(ckpt1.ok());

  for (int i = 1000; i < 1200; ++i) ASSERT_TRUE((*db)->Put(Key(i), "v").ok());
  auto ckpt2 = (*db)->CreateCheckpoint("/c2");
  ASSERT_TRUE(ckpt2.ok());

  std::set<std::string> old_files;
  for (const auto& f : ckpt1->files) old_files.insert(f.name);
  uint64_t delta_bytes = 0;
  for (const auto& f : ckpt2->files) {
    if (!old_files.count(f.name)) delta_bytes += f.size;
  }
  EXPECT_GT(delta_bytes, 0u);
  EXPECT_LT(delta_bytes, ckpt2->total_bytes)
      << "most files must be shared with the previous checkpoint";
}

TEST(DBTest, CheckpointSurvivesSourceCompaction) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE((*db)->Put(Key(i), "v1").ok());
  auto ckpt = (*db)->CreateCheckpoint("/ckpt");
  ASSERT_TRUE(ckpt.ok());
  // Compact the source DB: inputs get deleted, but hard links in the
  // checkpoint keep the content alive.
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE((*db)->Put(Key(i), "v2").ok());
  ASSERT_TRUE((*db)->CompactRange().ok());

  auto restored = DB::OpenFromCheckpoint(&env, "/ckpt", "/db3", SmallOptions());
  ASSERT_TRUE(restored.ok());
  std::string v;
  ASSERT_TRUE((*restored)->Get(Key(7), &v).ok());
  EXPECT_EQ(v, "v1");
}

TEST(DBTest, ApproximateSizeTracksData) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  uint64_t empty = (*db)->ApproximateSize();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*db)->Put(Key(i), std::string(50, 'x')).ok());
  }
  EXPECT_GT((*db)->ApproximateSize(), empty + 2000 * 50);
}

TEST(DBWalTest, UnflushedWritesSurviveReopen) {
  MemEnv env;
  {
    auto db = DB::Open(&env, "/db", SmallOptions());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("k1", "v1").ok());
    ASSERT_TRUE((*db)->Delete("k1").ok());
    ASSERT_TRUE((*db)->Put("k2", "v2").ok());
    // No flush: the memtable only lives in the WAL.
  }
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->wal_entries_recovered(), 3u);
  std::string v;
  EXPECT_TRUE((*db)->Get("k1", &v).IsNotFound()) << "tombstone replayed";
  ASSERT_TRUE((*db)->Get("k2", &v).ok());
  EXPECT_EQ(v, "v2");
}

TEST(DBWalTest, FlushTruncatesTheLog) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("k", "v").ok());
  EXPECT_TRUE(env.FileExists("/db/WAL"));
  ASSERT_TRUE((*db)->Flush().ok());
  EXPECT_FALSE(env.FileExists("/db/WAL"))
      << "flushed entries are durable in SSTs; the WAL restarts";
}

TEST(DBWalTest, TornTailIsDiscardedNotFatal) {
  MemEnv env;
  {
    auto db = DB::Open(&env, "/db", SmallOptions());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("intact", "value").ok());
    ASSERT_TRUE((*db)->Put("torn", "value").ok());
  }
  // Simulate a crash mid-append: chop bytes off the log tail.
  std::string wal;
  ASSERT_TRUE(env.ReadFile("/db/WAL", &wal).ok());
  wal.resize(wal.size() - 3);
  ASSERT_TRUE(env.WriteFile("/db/WAL", wal).ok());

  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->wal_entries_recovered(), 1u);
  std::string v;
  ASSERT_TRUE((*db)->Get("intact", &v).ok());
  EXPECT_TRUE((*db)->Get("torn", &v).IsNotFound());
}

TEST(DBWalTest, DisabledWalSkipsRecovery) {
  MemEnv env;
  Options opts = SmallOptions();
  opts.enable_wal = false;
  {
    auto db = DB::Open(&env, "/db", opts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("k", "v").ok());
  }
  EXPECT_FALSE(env.FileExists("/db/WAL"));
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  std::string v;
  EXPECT_TRUE((*db)->Get("k", &v).IsNotFound())
      << "without a WAL the unflushed memtable is lost on reopen";
}

TEST(DBWalTest, GroupCommitCostsOneAppendPerBatch) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  WriteBatch batch;
  for (int i = 0; i < 100; ++i) batch.Put(Key(i), "v");
  ASSERT_TRUE((*db)->Write(batch).ok());
  EXPECT_EQ((*db)->wal_appends(), 1u) << "one framed append for the batch";
  EXPECT_EQ((*db)->wal_records(), 100u);
  uint64_t batched_bytes = (*db)->wal_bytes_written();
  EXPECT_GT(batched_bytes, 0u);
  // Singleton commits pay one append each.
  for (int i = 100; i < 120; ++i) ASSERT_TRUE((*db)->Put(Key(i), "v").ok());
  EXPECT_EQ((*db)->wal_appends(), 21u);
  EXPECT_EQ((*db)->wal_records(), 120u);
}

// A commit is one acknowledged Put, Delete or non-empty Write, counted
// with the WAL on or off: the commit granularity stays measurable when a
// store runs without a log.
TEST(DBWalTest, CommitsCountWithOrWithoutTheWal) {
  for (bool wal : {true, false}) {
    MemEnv env;
    Options opts = SmallOptions();
    opts.enable_wal = wal;
    auto db = DB::Open(&env, "/db", opts);
    ASSERT_TRUE(db.ok());
    WriteBatch batch;
    for (int i = 0; i < 10; ++i) batch.Put(Key(i), "v");
    ASSERT_TRUE((*db)->Write(batch).ok());
    ASSERT_TRUE((*db)->Write(WriteBatch()).ok());
    ASSERT_TRUE((*db)->Put(Key(10), "v").ok());
    ASSERT_TRUE((*db)->Delete(Key(0)).ok());
    EXPECT_EQ((*db)->commits(), 3u) << "wal " << wal;
    EXPECT_EQ((*db)->wal_appends(), wal ? 3u : 0u);
  }
}

TEST(DBWalTest, BatchRecoversAtomicallyAcrossReopen) {
  MemEnv env;
  {
    auto db = DB::Open(&env, "/db", SmallOptions());
    ASSERT_TRUE(db.ok());
    WriteBatch batch;
    batch.Put("a", "1");
    batch.Put("b", "2");
    batch.Delete("a");
    ASSERT_TRUE((*db)->Write(batch).ok());
  }
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->wal_entries_recovered(), 3u);
  std::string v;
  EXPECT_TRUE((*db)->Get("a", &v).IsNotFound()) << "in-batch delete replayed";
  ASSERT_TRUE((*db)->Get("b", &v).ok());
  EXPECT_EQ(v, "2");
}

TEST(DBWalTest, TornBatchIsDiscardedWholesale) {
  MemEnv env;
  {
    auto db = DB::Open(&env, "/db", SmallOptions());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("intact", "v").ok());
    WriteBatch batch;
    batch.Put("t1", "v");
    batch.Put("t2", "v");
    ASSERT_TRUE((*db)->Write(batch).ok());
  }
  // Crash mid-append of the batch record: all of it must vanish, not just
  // the entries the tear happened to land in.
  std::string wal;
  ASSERT_TRUE(env.ReadFile("/db/WAL", &wal).ok());
  size_t full = wal.size();
  wal.resize(wal.size() - 3);
  ASSERT_TRUE(env.WriteFile("/db/WAL", wal).ok());
  {
    auto db = DB::Open(&env, "/db", SmallOptions());
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->wal_entries_recovered(), 1u);
    std::string v;
    ASSERT_TRUE((*db)->Get("intact", &v).ok());
    EXPECT_TRUE((*db)->Get("t1", &v).IsNotFound());
    EXPECT_TRUE((*db)->Get("t2", &v).IsNotFound());
    // Recovery truncated the torn suffix from the file itself.
    ASSERT_TRUE(env.ReadFile("/db/WAL", &wal).ok());
    EXPECT_LT(wal.size(), full - 3) << "torn record removed, not kept";
    // New commits land after the clean prefix.
    ASSERT_TRUE((*db)->Put("after", "v").ok());
  }
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->wal_entries_recovered(), 2u);
  std::string v;
  ASSERT_TRUE((*db)->Get("intact", &v).ok());
  ASSERT_TRUE((*db)->Get("after", &v).ok());
}

TEST(DBWalTest, ChecksumMismatchDropsTailRecord) {
  MemEnv env;
  {
    auto db = DB::Open(&env, "/db", SmallOptions());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("first", "v").ok());
    ASSERT_TRUE((*db)->Put("second", "v").ok());
  }
  // Flip a payload byte of the last record without changing the length:
  // only the checksum can catch this.
  std::string wal;
  ASSERT_TRUE(env.ReadFile("/db/WAL", &wal).ok());
  wal.back() ^= 0x40;
  ASSERT_TRUE(env.WriteFile("/db/WAL", wal).ok());
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->wal_entries_recovered(), 1u);
  std::string v;
  ASSERT_TRUE((*db)->Get("first", &v).ok());
  EXPECT_TRUE((*db)->Get("second", &v).IsNotFound());
}

TEST(DBWalTest, RecoveryAfterFlushOnlyReplaysNewTail) {
  MemEnv env;
  {
    auto db = DB::Open(&env, "/db", SmallOptions());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("flushed", "v1").ok());
    ASSERT_TRUE((*db)->Flush().ok());
    // The WAL rotated: this entry starts a fresh log.
    ASSERT_TRUE((*db)->Put("tail", "v2").ok());
  }
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->wal_entries_recovered(), 1u)
      << "flushed entries recover from the SST, not the WAL";
  std::string v;
  ASSERT_TRUE((*db)->Get("flushed", &v).ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE((*db)->Get("tail", &v).ok());
  EXPECT_EQ(v, "v2");
}

TEST(DBTest, ManifestEditLogRotatesAndReplays) {
  MemEnv env;
  Options opts = SmallOptions();
  opts.auto_compact = false;
  opts.manifest_rotate_edits = 4;
  uint64_t rotations = 0;
  {
    auto db = DB::Open(&env, "/db", opts);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->manifest_rotations(), 1u) << "open writes a snapshot";
    for (int f = 0; f < 10; ++f) {
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE((*db)->Put(Key(f * 50 + i), "v" + std::to_string(f)).ok());
      }
      ASSERT_TRUE((*db)->Flush().ok());
    }
    rotations = (*db)->manifest_rotations();
    // 10 flush edits with a threshold of 4 → at least two more snapshots.
    EXPECT_GE(rotations, 3u);
    EXPECT_EQ((*db)->NumLevelFiles(0), 10);
  }
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->NumLevelFiles(0), 10)
      << "snapshot + trailing edits must replay the full tree shape";
  std::string v;
  for (int i = 0; i < 500; i += 17) {
    ASSERT_TRUE((*db)->Get(Key(i), &v).ok()) << i;
  }
}

TEST(DBTest, ManifestReplaysCompactionEdits) {
  MemEnv env;
  Options opts = SmallOptions();
  opts.auto_compact = false;
  {
    auto db = DB::Open(&env, "/db", opts);
    ASSERT_TRUE(db.ok());
    for (int f = 0; f < 3; ++f) {
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE((*db)->Put(Key(i), "f" + std::to_string(f)).ok());
      }
      ASSERT_TRUE((*db)->Flush().ok());
    }
    ASSERT_TRUE((*db)->CompactRange().ok());
    // More edits after the compaction's remove+add edit.
    for (int i = 300; i < 400; ++i) ASSERT_TRUE((*db)->Put(Key(i), "x").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  std::string v;
  ASSERT_TRUE((*db)->Get(Key(7), &v).ok());
  EXPECT_EQ(v, "f2") << "newest flush wins after compaction edits replay";
  ASSERT_TRUE((*db)->Get(Key(350), &v).ok());
  EXPECT_EQ(v, "x");
}

// ---------------------------------------------- WritableFile / WriteBatch --

TEST(MemEnvTest, WritableFileAppendsBufferAndFlush) {
  MemEnv env;
  auto f = env.NewWritableFile("/w", /*append=*/false);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("hello ").ok());
  ASSERT_TRUE((*f)->Append("world").ok());
  EXPECT_EQ((*f)->Size(), 11u);
  ASSERT_TRUE((*f)->Flush().ok());
  std::string out;
  ASSERT_TRUE(env.ReadFile("/w", &out).ok());
  EXPECT_EQ(out, "hello world");
  // Reopening in append mode keeps the bytes; the destructor flushes.
  f->reset();
  {
    auto g = env.NewWritableFile("/w", /*append=*/true);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE((*g)->Append("!").ok());
    EXPECT_EQ((*g)->Size(), 12u);
  }
  ASSERT_TRUE(env.ReadFile("/w", &out).ok());
  EXPECT_EQ(out, "hello world!");
  // Truncating open starts fresh content.
  { auto h = env.NewWritableFile("/w", /*append=*/false); ASSERT_TRUE(h.ok()); }
  ASSERT_TRUE(env.ReadFile("/w", &out).ok());
  EXPECT_EQ(out, "");
}

TEST(MemEnvTest, WritableFileTruncateCreatesFreshContent) {
  // Like WriteFile, a truncating open must not disturb hard links to the
  // old content (checkpointed files are immutable).
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/a", "old-bytes").ok());
  ASSERT_TRUE(env.LinkFile("/a", "/b").ok());
  {
    auto f = env.NewWritableFile("/a", /*append=*/false);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("new").ok());
  }
  std::string out;
  ASSERT_TRUE(env.ReadFile("/b", &out).ok());
  EXPECT_EQ(out, "old-bytes");
  ASSERT_TRUE(env.ReadFile("/a", &out).ok());
  EXPECT_EQ(out, "new");
}

TEST(PosixEnvTest, WritableFileRoundTrip) {
  PosixEnv env;
  std::string dir = PosixScratchDir("writable");
  std::string path = dir + "/log";
  {
    auto f = env.NewWritableFile(path, /*append=*/false);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("abc").ok());
    ASSERT_TRUE((*f)->Sync().ok());
    EXPECT_EQ((*f)->Size(), 3u);
  }
  {
    auto f = env.NewWritableFile(path, /*append=*/true);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ((*f)->Size(), 3u) << "append open resumes at existing size";
    ASSERT_TRUE((*f)->Append("def").ok());
  }
  std::string out;
  ASSERT_TRUE(env.ReadFile(path, &out).ok());
  EXPECT_EQ(out, "abcdef");
  std::filesystem::remove_all(dir);
}

TEST(WriteBatchTest, CountsPayloadAndIterationOrder) {
  WriteBatch batch;
  EXPECT_TRUE(batch.empty());
  batch.Put("k1", "v1");
  batch.Delete("k2");
  batch.Put("k3", "v3");
  EXPECT_EQ(batch.num_entries(), 3u);
  EXPECT_EQ(batch.num_puts(), 2u);
  EXPECT_EQ(batch.num_deletes(), 1u);
  EXPECT_GT(batch.ApproximateBytes(), 0u);

  std::vector<std::string> seen;
  ASSERT_TRUE(batch
                  .ForEach([&](ValueType type, std::string_view key,
                               std::string_view value) {
                    seen.push_back(std::string(key) + "/" +
                                   (type == ValueType::kDeletion
                                        ? "DEL"
                                        : std::string(value)));
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "k1/v1");
  EXPECT_EQ(seen[1], "k2/DEL");
  EXPECT_EQ(seen[2], "k3/v3");

  // Payload round-trips through the WAL decode path.
  uint64_t count = 0;
  std::string_view entries;
  std::string payload = batch.EncodePayload();
  ASSERT_TRUE(WriteBatch::DecodePayload(payload, &count, &entries).ok());
  EXPECT_EQ(count, 3u);
  int decoded = 0;
  ASSERT_TRUE(WriteBatch::DecodeEntries(entries,
                                        [&](ValueType, std::string_view,
                                            std::string_view) {
                                          ++decoded;
                                          return Status::OK();
                                        })
                  .ok());
  EXPECT_EQ(decoded, 3);

  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.ApproximateBytes(), 0u);
}

TEST(ArenaTest, CopiedStringsStayStableAcrossGrowth) {
  Arena arena;
  std::vector<std::string_view> views;
  std::vector<std::string> expect;
  for (int i = 0; i < 4000; ++i) {
    // Mix of small strings and block-sized outliers to hit both the bump
    // path and the own-block fallback.
    std::string s = Key(i) + std::string(i % 37 == 0 ? 40000 : i % 97, 'p');
    views.push_back(arena.CopyString(s));
    expect.push_back(std::move(s));
  }
  ASSERT_GT(arena.AllocatedBytes(), 0u);
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], expect[i]) << i;
  }
}

TEST(MemTableTest, ArenaFootprintTracksEntries) {
  MemTable table;
  // The skiplist head node claims the first arena block up front.
  uint64_t baseline = table.ArenaBytes();
  EXPECT_GT(baseline, 0u);
  for (int i = 0; i < 1000; ++i) {
    table.Add(Key(i), static_cast<uint64_t>(i + 1), ValueType::kValue,
              std::string(64, 'x'));
  }
  // The arena holds at least the logical bytes (keys + values + nodes).
  EXPECT_GE(table.ArenaBytes(), 1000u * (11 + 64));
  Entry e;
  ASSERT_TRUE(table.Get(Key(123), &e));
  EXPECT_EQ(e.value, std::string(64, 'x'));
}

// --------------------------------------------------------- Block pool --

// A memtable's blocks go back to the pool when it dies, and the next one
// is built from them: after the first table, the pool maps nothing.
TEST(BlockPoolTest, MemtablesInSequenceMapNoNewBlockAfterTheFirst) {
  BlockPool& pool = BlockPool::Default();
  const uint64_t in_use = pool.stats().in_use_bytes;
  auto build_and_drop = [&] {
    ShardedMemTable table(8);
    for (int i = 0; i < 4000; ++i) {
      table.Add(Key(i), static_cast<uint64_t>(i + 1), ValueType::kValue,
                std::string(64, 'v'));
    }
    // 4000 entries of ~150 arena bytes each hold about ten blocks.
    EXPECT_GE(pool.stats().in_use_bytes, in_use + 8 * BlockPool::kBlockBytes);
  };
  build_and_drop();
  const uint64_t mapped = pool.stats().blocks_mapped;
  EXPECT_EQ(pool.stats().in_use_bytes, in_use);
  for (int table = 1; table < 20; ++table) build_and_drop();
  EXPECT_EQ(pool.stats().blocks_mapped, mapped);
  EXPECT_EQ(pool.stats().in_use_bytes, in_use);
}

// A payload larger than a block gets pages of its own, and they are
// unmapped (not parked) when its table dies.
TEST(BlockPoolTest, LargePayloadMapsItsOwnPagesUntilItsTableDies) {
  BlockPool& pool = BlockPool::Default();
  const uint64_t in_use = pool.stats().in_use_bytes;
  const uint64_t mapped = pool.stats().blocks_mapped;
  std::string big(3 * BlockPool::kBlockBytes + 100, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 31);
  std::vector<unsigned char> pages(big.size() / 4096 + 1);
  const char* mem = nullptr;
  {
    MemTable table;
    table.Add("big", 1, ValueType::kValue, big);
    table.Add("small", 2, ValueType::kValue, "v");
    Entry e;
    ASSERT_TRUE(table.Get("big", &e));
    EXPECT_EQ(e.value, big);
    mem = table.NewIterator("big").value().data();
    // The head node's block and the payload's own mapping.
    EXPECT_EQ(pool.stats().in_use_bytes,
              in_use + BlockPool::kBlockBytes + big.size());
    EXPECT_EQ(mincore(const_cast<char*>(mem), big.size(), pages.data()), 0);
  }
  // mincore fails with ENOMEM on a range that is not mapped.
  const int rc = mincore(const_cast<char*>(mem), big.size(), pages.data());
  const int err = errno;
  EXPECT_EQ(rc, -1);
  EXPECT_EQ(err, ENOMEM);
  EXPECT_EQ(pool.stats().in_use_bytes, in_use);
  EXPECT_LE(pool.stats().blocks_mapped, mapped + 1);
}

// The pool's byte counts are live gauges of the process-wide registry, so
// an exporter scraping a node shows its memtable footprint.
TEST(BlockPoolTest, GaugesMirrorThePoolInTheDefaultRegistry) {
  BlockPool& pool = BlockPool::Default();
  const obs::MetricsRegistry& m = obs::Observability::Default()->metrics();
  const auto gauge = [&](const char* state) {
    return m.gauges()
        .at(obs::MetricsRegistry::KeyOf("rhino_lsm_memtable_pool_bytes",
                                        {{"state", state}}))
        .metric.value();
  };
  {
    MemTable table;
    EXPECT_GE(gauge("in_use"), double(BlockPool::kBlockBytes));
    EXPECT_EQ(gauge("in_use"), double(pool.stats().in_use_bytes));
  }
  EXPECT_EQ(gauge("in_use"), double(pool.stats().in_use_bytes));
  EXPECT_EQ(gauge("free"), double(pool.stats().free_bytes));
  EXPECT_GE(gauge("free"), double(BlockPool::kBlockBytes));
  EXPECT_NE(obs::ToPrometheusText(m).find(
                "rhino_lsm_memtable_pool_bytes{state=\"free\"}"),
            std::string::npos);
}

/// MemEnv whose table builds (the `.tmp` sinks of flushes and compactions)
/// wait until `ready()` holds, for at most 5 s: a test's way to keep a
/// background flush behind its writer.
class GatedTableEnv : public MemEnv {
 public:
  std::function<bool()> ready = [] { return true; };

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append) override {
    if (path.ends_with(".tmp")) {
      for (int i = 0; i < 50000 && !ready(); ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return MemEnv::NewWritableFile(path, append);
  }
};

// A background-maintenance DB holds at most two memtables, the active and
// the frozen one. The k-th flush is held until the writer has stalled k
// times, so from the second table on every cycle holds two full tables:
// the pool's high-water is reached before the second flush ends and never
// passed, so the next 20 flushes map no block.
TEST(BlockPoolTest, BackgroundFlushesMapNoNewBlockAfterTheSecondFlush) {
  BlockPool& pool = BlockPool::Default();
  GatedTableEnv env;
  Options opts;
  opts.memtable_bytes = 256 * 1024;
  opts.memtable_shards = 1;
  opts.enable_wal = false;
  opts.auto_compact = false;
  opts.background_maintenance = true;
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  std::atomic<uint64_t> builds{0};
  std::atomic<bool> open{false};
  env.ready = [&] {
    if (!open && (*db)->write_stalls() <= builds) return false;
    ++builds;
    return true;
  };

  const std::string value(100, 'v');
  uint64_t mapped = 0;
  for (int i = 0; (*db)->flush_count() < 22; ++i) {
    ASSERT_TRUE((*db)->Put(Key(i), value).ok());
    if (mapped == 0 && (*db)->flush_count() >= 2) {
      mapped = pool.stats().blocks_mapped;
    }
  }
  EXPECT_EQ(pool.stats().blocks_mapped, mapped);
  EXPECT_GE((*db)->write_stalls(), 22u);
  open = true;
}

#if defined(__SANITIZE_ADDRESS__)
#define RHINO_LSM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RHINO_LSM_TEST_ASAN 1
#endif
#endif

// A parked block is poisoned, so reading a view into a memtable that has
// died is an AddressSanitizer report; a taken block is readable again.
TEST(BlockPoolTest, ParkedBlocksArePoisonedUnderAddressSanitizer) {
#ifdef RHINO_LSM_TEST_ASAN
  BlockPool& pool = BlockPool::Default();
  char* block = pool.Take(BlockPool::kBlockBytes);
  EXPECT_FALSE(__asan_address_is_poisoned(block));
  pool.Give(block, BlockPool::kBlockBytes);
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  EXPECT_TRUE(__asan_address_is_poisoned(block + BlockPool::kBlockBytes - 1));
  // The pool hands out the last block it parked.
  char* again = pool.Take(BlockPool::kBlockBytes);
  EXPECT_EQ(again, block);
  EXPECT_FALSE(__asan_address_is_poisoned(again));
  pool.Give(again, BlockPool::kBlockBytes);

  std::string_view view;
  {
    MemTable table;
    table.Add("k", 1, ValueType::kValue, "value");
    view = table.NewIterator("k").value();
    EXPECT_FALSE(__asan_address_is_poisoned(view.data()));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(view.data()));
#else
  GTEST_SKIP() << "built without AddressSanitizer";
#endif
}

// Overwrites keep the live size flat but copy every value into the arena.
// The arena is the second flush trigger, so a hot-key workload still
// freezes, flushes and rotates its WAL: the WAL and the arena plateau
// instead of growing with the number of overwrites.
TEST(DBTest, HotKeyOverwritesFlushAndBoundWalAndArena) {
  MemEnv env;
  Options opts;
  opts.memtable_bytes = 64 * 1024;
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  uint64_t max_wal = 0, max_arena = 0;
  for (uint64_t i = 0; i < 200000; ++i) {
    std::string value(8, '\0');
    std::memcpy(value.data(), &i, sizeof(i));  // a counter-sized value
    ASSERT_TRUE((*db)->Put(Key(static_cast<int>(i % 100)), value).ok());
    if (i % 1000 == 999) {
      auto wal = env.GetFileSize("/db/WAL");
      if (wal.ok()) max_wal = std::max(max_wal, *wal);
      max_arena = std::max(max_arena, (*db)->MemTableArenaBytes());
    }
  }
  EXPECT_GE((*db)->flush_count(), 5u);
  // A memtable freezes once its arena reaches 2 x 64 KiB: ~16k overwrites
  // of 8 B values, ~0.6 MB of WAL records. Without the arena trigger the
  // WAL would hold all 200k records (~7 MB) and the arena ~1.7 MB.
  EXPECT_LE(max_arena, 2 * opts.memtable_bytes + 1024);
  EXPECT_LE(max_wal, 1024u * 1024);
  std::string v;
  ASSERT_TRUE((*db)->Get(Key(42), &v).ok());
  uint64_t last = 0;
  std::memcpy(&last, v.data(), sizeof(last));
  EXPECT_EQ(last, 199942u);
}

// ------------------------------------------------------------ Crash sweep --

/// Fault-injecting Env: delegates to a wrapped MemEnv and fails every
/// write-class operation (handle appends, whole-file writes, renames) once
/// `fail_after` of them have succeeded. A failing handle append tears:
/// half of its bytes reach the file first — the crash shape the WAL
/// framing exists to detect.
class FailingEnv : public Env {
 public:
  explicit FailingEnv(MemEnv* base) : base_(base) {}

  /// Remaining write-class operations before injection; -1 disables.
  void SetBudget(int n) { budget_ = n; }

  bool ShouldFail() {
    if (budget_ < 0) return false;
    if (budget_ == 0) return true;
    --budget_;
    return false;
  }

  Status WriteFile(const std::string& path, std::string_view data) override {
    if (ShouldFail()) return Status::IOError("injected WriteFile failure");
    return base_->WriteFile(path, data);
  }
  Status AppendFile(const std::string& path, std::string_view data) override {
    if (ShouldFail()) return Status::IOError("injected AppendFile failure");
    return base_->AppendFile(path, data);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    if (ShouldFail()) return Status::IOError("injected RenameFile failure");
    return base_->RenameFile(src, dst);
  }
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append) override {
    RHINO_ASSIGN_OR_RETURN(auto inner, base_->NewWritableFile(path, append));
    return std::unique_ptr<WritableFile>(
        new FailingWritableFile(this, std::move(inner)));
  }

  Status ReadFile(const std::string& path, std::string* out) override {
    return base_->ReadFile(path, out);
  }
  Status ReadFileRange(const std::string& path, uint64_t offset, size_t n,
                       std::string* out) override {
    return base_->ReadFileRange(path, offset, n, out);
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return base_->NewRandomAccessFile(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status LinkFile(const std::string& src, const std::string& dst) override {
    return base_->LinkFile(src, dst);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }

 private:
  class FailingWritableFile : public WritableFile {
   public:
    FailingWritableFile(FailingEnv* env, std::unique_ptr<WritableFile> inner)
        : env_(env), inner_(std::move(inner)) {}
    Status Append(std::string_view data) override {
      if (env_->ShouldFail()) {
        // Torn write: half the record lands, then the "machine dies".
        (void)inner_->Append(data.substr(0, data.size() / 2));
        (void)inner_->Flush();
        return Status::IOError("injected torn append");
      }
      return inner_->Append(data);
    }
    Status Flush() override {
      if (env_->ShouldFail()) return Status::IOError("injected flush failure");
      return inner_->Flush();
    }
    Status Sync() override { return Flush(); }
    uint64_t Size() const override { return inner_->Size(); }

   private:
    FailingEnv* env_;
    std::unique_ptr<WritableFile> inner_;
  };

  MemEnv* base_;
  int budget_ = -1;
};

// Sweep the crash point across the write path: for each budget N the Nth
// write-class operation fails (possibly tearing a record), the DB is
// abandoned, and a reopen on the healed Env must surface every mutation
// that was acknowledged before the failure.
TEST(DBCrashTest, AckedWritesSurviveInjectedCrashSweep) {
  // The budget range reaches past the first memtable flush (~op 240 at
  // this value size), so the sweep also crashes inside table builds,
  // renames, and manifest edits — not just WAL appends.
  for (int n = 1; n <= 300; n += 3) {
    MemEnv base;
    FailingEnv env(&base);
    Options opts = SmallOptions();
    std::vector<int> acked;
    {
      env.SetBudget(n);
      auto db = DB::Open(&env, "/db", opts);
      if (!db.ok()) continue;  // crashed inside Open: nothing acked
      for (int i = 0; i < 200; ++i) {
        if (!(*db)->Put(Key(i), std::string(100, static_cast<char>('a' + i % 26)))
                 .ok()) {
          break;  // crash point: abandon the DB without a clean close
        }
        acked.push_back(i);
      }
    }
    env.SetBudget(-1);  // healed
    auto db = DB::Open(&env, "/db", opts);
    ASSERT_TRUE(db.ok()) << "budget=" << n << ": " << db.status().ToString();
    std::string v;
    for (int i : acked) {
      ASSERT_TRUE((*db)->Get(Key(i), &v).ok()) << "budget=" << n << " i=" << i;
      EXPECT_EQ(v, std::string(100, static_cast<char>('a' + i % 26)))
          << "budget=" << n << " i=" << i;
    }
  }
}

// A commit that reached the WAL and the memtable is acknowledged even
// when the flush it triggers fails; the failure is returned by the next
// write, which applies nothing. So a failed write never leaves entries
// behind — the all-or-nothing contract the state backend's batch commit
// and the host's replay watermarks build on.
TEST(DBCrashTest, FlushFailingAfterACommitFailsTheNextWrite) {
  MemEnv base;
  FailingEnv env(&base);
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  const std::string value(100, 'v');
  Status st;
  int acked = 0;
  for (int i = 0; i < 1000 && st.ok(); ++i) {
    env.SetBudget(2);  // the commit's WAL append and flush, nothing more
    st = (*db)->Put(Key(i), value);
    if (st.ok()) acked = i + 1;
  }
  ASSERT_FALSE(st.ok()) << "the failed flush never reached a writer";
  EXPECT_EQ((*db)->flush_count(), 0u);
  env.SetBudget(-1);
  std::string v;
  for (int i = 0; i < acked; ++i) {
    ASSERT_TRUE((*db)->Get(Key(i), &v).ok()) << "acknowledged " << i;
  }
  EXPECT_TRUE((*db)->Get(Key(acked), &v).IsNotFound())
      << "the failed write applied nothing";
}

// A commit whose WAL append landed in the handle's buffer but whose flush
// failed is not acknowledged, so no reopen may replay it — not even after
// the next commit flushes the handle.
TEST(DBCrashTest, FailedWalCommitIsNeverReplayed) {
  MemEnv base;
  FaultEnv env(&base);
  env.SetTornAppends(false);
  {
    auto db = DB::Open(&env, "/db", SmallOptions());
    ASSERT_TRUE(db.ok());
    WriteBatch a;
    a.Put("a", "never acknowledged");
    env.SetWriteBudget(1);  // the append succeeds, the flush fails
    ASSERT_FALSE((*db)->Write(a).ok());
    env.Heal();
    WriteBatch b;
    b.Put("b", "acknowledged");
    ASSERT_TRUE((*db)->Write(b).ok());
  }
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::string v;
  ASSERT_TRUE((*db)->Get("b", &v).ok());
  EXPECT_EQ(v, "acknowledged");
  EXPECT_TRUE((*db)->Get("a", &v).IsNotFound()) << "replayed: " << v;
}

// An iterator is a snapshot: writes, flushes, and full compactions issued
// after its creation must not change what it yields, even though compaction
// deletes the very files it is reading (the pinned handles keep them alive).
TEST(DBTest, IteratorSnapshotStableAcrossFlushAndCompact) {
  MemEnv env;
  auto db = DB::Open(&env, "/db", SmallOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*db)->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());

  auto it = (*db)->NewIterator();
  ASSERT_TRUE(it.ok());

  // Mutate heavily behind the snapshot: overwrites, new keys, deletes,
  // then force the tree through a full rewrite.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*db)->Put(Key(i), "CHANGED").ok());
  }
  for (int i = 500; i < 600; ++i) {
    ASSERT_TRUE((*db)->Put(Key(i), "NEW").ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*db)->Delete(Key(i)).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->CompactRange().ok());

  int count = 0;
  for (; it->Valid(); it->Next(), ++count) {
    ASSERT_EQ(it->key(), Key(count));
    ASSERT_EQ(it->value(), "v" + std::to_string(count))
        << "snapshot leaked a post-creation write at " << it->key();
  }
  EXPECT_EQ(count, 500) << "snapshot gained or lost keys";
}

// Regression: the per-DB table cache used to grow one entry per table file
// ever opened, leaking handles across long flush/compaction histories. It
// is now an LRU capped at Options::max_open_tables.
TEST(DBTest, OpenTableHandlesStayBounded) {
  MemEnv env;
  Options opts = SmallOptions();
  opts.memtable_bytes = 2 * 1024;  // frequent flushes
  opts.max_open_tables = 4;
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  for (int cycle = 0; cycle < 20; ++cycle) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          (*db)->Put(Key(i), std::string(64, static_cast<char>('a' + cycle % 26)))
              .ok());
    }
    ASSERT_TRUE((*db)->Flush().ok());
    EXPECT_LE((*db)->OpenTableCount(), opts.max_open_tables);
  }
  ASSERT_TRUE((*db)->CompactRange().ok());
  EXPECT_LE((*db)->OpenTableCount(), opts.max_open_tables);
  // Reads after heavy churn still bounded.
  std::string v;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*db)->Get(Key(i), &v).ok());
  }
  EXPECT_LE((*db)->OpenTableCount(), opts.max_open_tables);
}

// A full scan's resident block memory is capped by the cache budget, no
// matter how much state it covers.
TEST(DBTest, ScanBlockMemoryBoundedByCacheBudget) {
  MemEnv env;
  Options opts = SmallOptions();
  opts.block_cache = std::make_shared<BlockCache>(32 * 1024);
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  // ~1 MiB of state: far more than the 32 KiB budget.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*db)->Put(Key(i), std::string(512, 'x')).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());
  opts.block_cache->ResetStats();

  auto it = (*db)->NewIterator();
  ASSERT_TRUE(it.ok());
  int count = 0;
  for (; it->Valid(); it->Next()) ++count;
  EXPECT_EQ(count, 2000);
  EXPECT_LE(opts.block_cache->peak_usage_bytes(), 32u * 1024);
  EXPECT_GT(opts.block_cache->misses(), 0u);
}

// Warm point lookups are served from the block cache without re-reading
// the file.
TEST(DBTest, PointGetsWarmTheBlockCache) {
  MemEnv env;
  Options opts = SmallOptions();
  opts.block_cache = std::make_shared<BlockCache>(1024 * 1024);
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*db)->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());
  opts.block_cache->Clear();
  opts.block_cache->ResetStats();

  std::string v;
  ASSERT_TRUE((*db)->Get(Key(123), &v).ok());
  uint64_t cold_misses = opts.block_cache->misses();
  EXPECT_GT(cold_misses, 0u);
  ASSERT_TRUE((*db)->Get(Key(123), &v).ok());
  EXPECT_EQ(opts.block_cache->misses(), cold_misses)
      << "second read of the same block should hit the cache";
  EXPECT_GT(opts.block_cache->hits(), 0u);
}

// Property sweep: random workload against an in-memory reference model.
class DBFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DBFuzzTest, MatchesReferenceModel) {
  MemEnv env;
  Options opts = SmallOptions();
  opts.memtable_bytes = 4 * 1024;  // force frequent flushes
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  std::map<std::string, std::string> model;
  Random rng(GetParam());
  for (int op = 0; op < 3000; ++op) {
    std::string key = Key(static_cast<int>(rng.Uniform(300)));
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {  // put
        std::string value = "v" + std::to_string(rng.Next() % 1000);
        ASSERT_TRUE((*db)->Put(key, value).ok());
        model[key] = value;
        break;
      }
      case 2: {  // delete
        ASSERT_TRUE((*db)->Delete(key).ok());
        model.erase(key);
        break;
      }
      case 3: {  // get
        std::string v;
        Status st = (*db)->Get(key, &v);
        auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_TRUE(st.IsNotFound()) << key;
        } else {
          ASSERT_TRUE(st.ok()) << key << " " << st.ToString();
          EXPECT_EQ(v, it->second);
        }
        break;
      }
    }
  }
  // Full-scan equivalence.
  auto it = (*db)->NewIterator();
  ASSERT_TRUE(it.ok());
  auto mit = model.begin();
  for (; it->Valid(); it->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it->key(), mit->first);
    EXPECT_EQ(it->value(), mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

// Ranged reads against a std::map model. Random puts, overwrites and
// deletes spread over the memtable shards and are flushed between rounds,
// so a range spans the active memtable and the tables; random [begin, end)
// ranges — an unbounded end, a begin between keys, a begin past the last
// key, an end before the begin — must yield exactly the model's slice.
TEST_P(DBFuzzTest, RangedReadsMatchReferenceModel) {
  MemEnv env;
  Options opts = SmallOptions();
  opts.memtable_bytes = 1 << 20;  // flush only between rounds
  auto db = DB::Open(&env, "/db", opts);
  ASSERT_TRUE(db.ok());
  ASSERT_GT(opts.memtable_shards, 1u);
  std::map<std::string, std::string> model;
  Random rng(GetParam());
  // One to four letters of "abcde": a random bound is a key or falls
  // between keys, and "f" is past every key.
  auto random_key = [&rng] {
    std::string key(1 + rng.Uniform(4), 'a');
    for (char& c : key) c = static_cast<char>('a' + rng.Uniform(5));
    return key;
  };
  for (int round = 0; round < 8; ++round) {
    if (round > 0) {
      ASSERT_TRUE((*db)->Flush().ok());
    }
    for (int op = 0; op < 150; ++op) {
      const uint64_t kind = rng.Uniform(4);
      std::string key = random_key();
      if (kind == 1 && !model.empty()) {  // overwrite a live key
        auto live = model.lower_bound(key);
        key = live == model.end() ? model.begin()->first : live->first;
      }
      if (kind == 3) {
        ASSERT_TRUE((*db)->Delete(key).ok());
        model.erase(key);
      } else {
        std::string value =
            "v" + std::to_string(round) + "." + std::to_string(op);
        ASSERT_TRUE((*db)->Put(key, value).ok());
        model[key] = value;
      }
    }
    for (int read = 0; read < 40; ++read) {
      std::string begin;
      switch (rng.Uniform(4)) {
        case 0:
          begin = random_key();
          break;
        case 1:
          begin = "f";
          break;
        case 2:
          break;  // from the first key
        case 3:
          if (!model.empty()) {
            begin = std::next(model.begin(),
                              static_cast<long>(rng.Uniform(model.size())))
                        ->first;
          }
          break;
      }
      const std::string end = rng.Uniform(3) == 0 ? "" : random_key();
      SCOPED_TRACE("round " + std::to_string(round) + " [" + begin + ", " +
                   end + ")");
      auto it = (*db)->NewIterator(begin, end);
      ASSERT_TRUE(it.ok());
      auto expected = model.lower_bound(begin);
      auto expected_end = end.empty() ? model.end() : model.lower_bound(end);
      if (!end.empty() && end <= begin) expected_end = expected;
      for (; it->Valid(); it->Next(), ++expected) {
        ASSERT_NE(expected, expected_end) << "extra key " << it->key();
        EXPECT_EQ(it->key(), expected->first);
        EXPECT_EQ(it->value(), expected->second);
      }
      EXPECT_EQ(expected, expected_end) << "missing keys";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DBFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 101, 202, 303));

}  // namespace
}  // namespace rhino::lsm
