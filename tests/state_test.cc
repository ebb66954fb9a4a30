#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/serde.h"
#include "dataflow/operator_host.h"
#include "lsm/env.h"
#include "lsm/fault_env.h"
#include "state/lsm_state_backend.h"
#include "state/modeled_state_backend.h"

namespace rhino::state {
namespace {

TEST(DeltaFilesTest, ComputesNewFilesOnly) {
  std::vector<StateFile> prev = {{"a", 10}, {"b", 20}};
  std::vector<StateFile> cur = {{"a", 10}, {"b", 20}, {"c", 30}};
  auto delta = DeltaFiles(prev, cur);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].name, "c");
  EXPECT_EQ(delta[0].bytes, 30u);
}

TEST(DeltaFilesTest, EmptyPreviousMeansFullDelta) {
  std::vector<StateFile> cur = {{"a", 1}, {"b", 2}};
  EXPECT_EQ(DeltaFiles({}, cur).size(), 2u);
}

TEST(CheckpointDescriptorTest, ByteTotals) {
  CheckpointDescriptor desc;
  desc.files = {{"a", 100}, {"b", 50}};
  desc.delta_files = {{"b", 50}};
  EXPECT_EQ(desc.TotalBytes(), 150u);
  EXPECT_EQ(desc.DeltaBytes(), 50u);
}

// -------------------------------------------------------- LsmStateBackend

/// One-write commits through the backend's only write, ApplyBatch.
Status Put(StateBackend* backend, uint32_t vnode, std::string key,
           std::string value, uint64_t nominal_bytes) {
  return backend->ApplyBatch(
      {{vnode, false, std::move(key), std::move(value), nominal_bytes}});
}

Status Delete(StateBackend* backend, uint32_t vnode, std::string key,
              uint64_t nominal_bytes) {
  return backend->ApplyBatch(
      {{vnode, true, std::move(key), "", nominal_bytes}});
}

/// A whole image of `vnode` at size `bytes` whose run is `entries`.
VnodeImage Image(uint32_t vnode, uint64_t bytes, std::string entries = "") {
  VnodeImage image;
  image.vnode = vnode;
  image.bytes = bytes;
  image.entries = std::move(entries);
  return image;
}

/// The entry run of `v` (what whole images and whole chain records carry).
std::string EntryRun(StateBackend* backend, uint32_t v) {
  std::string run;
  EXPECT_TRUE(backend->ReadVnodeEntries(v, &run).ok());
  return run;
}

/// The whole image of `v`, its size and run (the replica's unit of state).
VnodeImage WholeImage(StateBackend* backend, uint32_t v) {
  return Image(v, backend->VnodeBytes(v), EntryRun(backend, v));
}

class LsmBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto backend = LsmStateBackend::Open(&env_, "/state/op-0", "op", 0);
    ASSERT_TRUE(backend.ok());
    backend_ = std::move(backend).MoveValue();
  }
  lsm::MemEnv env_;
  std::unique_ptr<LsmStateBackend> backend_;
};

TEST_F(LsmBackendTest, PutGetScopedByVnode) {
  ASSERT_TRUE(Put(backend_.get(), 1, "k", "v1", 10).ok());
  ASSERT_TRUE(Put(backend_.get(), 2, "k", "v2", 10).ok());
  std::string v;
  ASSERT_TRUE(backend_->Get(1, "k", &v).ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(backend_->Get(2, "k", &v).ok());
  EXPECT_EQ(v, "v2");
  EXPECT_TRUE(backend_->Get(3, "k", &v).IsNotFound());
}

TEST_F(LsmBackendTest, VnodeByteAccounting) {
  ASSERT_TRUE(Put(backend_.get(), 5, "a", "x", 100).ok());
  ASSERT_TRUE(Put(backend_.get(), 5, "b", "y", 50).ok());
  ASSERT_TRUE(Put(backend_.get(), 6, "a", "z", 25).ok());
  EXPECT_EQ(backend_->VnodeBytes(5), 150u);
  EXPECT_EQ(backend_->VnodeBytes(6), 25u);
  EXPECT_EQ(backend_->SizeBytes(), 175u);
  ASSERT_TRUE(Delete(backend_.get(), 5, "a", 100).ok());
  EXPECT_EQ(backend_->VnodeBytes(5), 50u);
}

TEST_F(LsmBackendTest, ScanVnodeReturnsOnlyItsKeys) {
  ASSERT_TRUE(Put(backend_.get(), 1, "a", "1", 1).ok());
  ASSERT_TRUE(Put(backend_.get(), 1, "b", "2", 1).ok());
  ASSERT_TRUE(Put(backend_.get(), 2, "c", "3", 1).ok());
  auto entries = backend_->ScanPrefix(1, "");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].first, "a");
  EXPECT_EQ((*entries)[1].first, "b");
}

TEST_F(LsmBackendTest, ScanPrefixFiltersWithinVnode) {
  ASSERT_TRUE(Put(backend_.get(), 1, "aa1", "1", 1).ok());
  ASSERT_TRUE(Put(backend_.get(), 1, "aa2", "2", 1).ok());
  ASSERT_TRUE(Put(backend_.get(), 1, "ab1", "3", 1).ok());
  auto entries = backend_->ScanPrefix(1, "aa");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(LsmBackendTest, CheckpointDescribesFilesAndDeltas) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        Put(backend_.get(), 1, "key" + std::to_string(i), "value", 32).ok());
  }
  auto c1 = backend_->Checkpoint(1);
  ASSERT_TRUE(c1.ok());
  EXPECT_FALSE(c1->files.empty());
  EXPECT_EQ(c1->delta_files.size(), c1->files.size())
      << "first checkpoint: everything is new";
  EXPECT_EQ(c1->vnode_bytes.at(1), 3200u);

  for (int i = 100; i < 120; ++i) {
    ASSERT_TRUE(
        Put(backend_.get(), 1, "key" + std::to_string(i), "value", 32).ok());
  }
  auto c2 = backend_->Checkpoint(2);
  ASSERT_TRUE(c2.ok());
  EXPECT_LT(c2->DeltaBytes(), c2->TotalBytes());
  EXPECT_GT(c2->DeltaBytes(), 0u);
}

TEST_F(LsmBackendTest, ExtractIngestMovesVnodes) {
  ASSERT_TRUE(Put(backend_.get(), 3, "a", "va", 10).ok());
  ASSERT_TRUE(Put(backend_.get(), 3, "b", "vb", 10).ok());
  ASSERT_TRUE(Put(backend_.get(), 4, "c", "vc", 10).ok());

  const VnodeImage image = WholeImage(backend_.get(), 3);
  auto other = LsmStateBackend::Open(&env_, "/state/op-1", "op", 1);
  ASSERT_TRUE(other.ok());
  const uint64_t appends = (*other)->db()->wal_appends();
  ASSERT_TRUE((*other)->IngestImages({image}, false).ok());
  EXPECT_EQ((*other)->db()->wal_appends(), appends + 1) << "one write";
  std::string v;
  ASSERT_TRUE((*other)->Get(3, "a", &v).ok());
  EXPECT_EQ(v, "va");
  ASSERT_TRUE((*other)->Get(3, "b", &v).ok());
  EXPECT_EQ(v, "vb");
  EXPECT_TRUE((*other)->Get(4, "c", &v).IsNotFound());
  EXPECT_EQ((*other)->VnodeBytes(3), 20u);

  ASSERT_TRUE(backend_->DropVnodes({3}).ok());
  EXPECT_TRUE(backend_->Get(3, "a", &v).IsNotFound());
  EXPECT_EQ(backend_->VnodeBytes(3), 0u);
  ASSERT_TRUE(backend_->Get(4, "c", &v).ok()) << "vnode 4 untouched";
}

TEST_F(LsmBackendTest, ApplyBatchGroupCommitsMixedRun) {
  std::vector<StateWrite> writes;
  writes.push_back({1, false, "a", "va", 10});
  writes.push_back({1, false, "b", "vb", 10});
  writes.push_back({2, false, "c", "vc", 5});
  writes.push_back({1, true, "a", "", 10});  // delete within the same run
  uint64_t appends_before = backend_->db()->wal_appends();
  ASSERT_TRUE(backend_->ApplyBatch(writes).ok());
  EXPECT_EQ(backend_->db()->wal_appends(), appends_before + 1)
      << "the whole run must be one group commit";
  std::string v;
  EXPECT_TRUE(backend_->Get(1, "a", &v).IsNotFound());
  ASSERT_TRUE(backend_->Get(1, "b", &v).ok());
  EXPECT_EQ(v, "vb");
  ASSERT_TRUE(backend_->Get(2, "c", &v).ok());
  EXPECT_EQ(v, "vc");
  EXPECT_EQ(backend_->VnodeBytes(1), 10u);
  EXPECT_EQ(backend_->VnodeBytes(2), 5u);
}

// ------------------------------------------- a host's batch commits

/// Big-endian u64: the prefix of the counter's and the join's store keys.
std::string U64Key(uint64_t key) {
  std::string out(8, '\0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<size_t>(i)] = static_cast<char>(key & 0xff);
    key >>= 8;
  }
  return out;
}

/// The counter's stored value: exactly one varint.
uint64_t DecodeCount(std::string_view value) {
  BinaryReader reader(value);
  uint64_t count = 0;
  EXPECT_TRUE(reader.GetVarint(&count).ok());
  EXPECT_TRUE(reader.AtEnd());
  return count;
}

/// A record batch of input `source` at `offset`, one record per key.
dataflow::Batch KeyedBatch(int source, uint64_t offset,
                           const std::vector<uint64_t>& keys,
                           const std::string& payload_prefix) {
  dataflow::Batch batch;
  batch.source_id = source;
  batch.source_offset = offset;
  for (uint64_t key : keys) {
    dataflow::Record r;
    r.key = key;
    r.payload = payload_prefix + std::to_string(key);
    r.size = static_cast<uint32_t>(r.payload.size());
    batch.count += 1;
    batch.bytes += r.size;
    batch.records.push_back(std::move(r));
  }
  return batch;
}

/// A host of `kind` over `backend`; key k routes to vnode k % 4.
std::unique_ptr<dataflow::OperatorHost> MakeHost(
    dataflow::OperatorKind kind, std::unique_ptr<StateBackend> backend) {
  dataflow::OperatorSpec spec;
  spec.kind = kind;
  spec.name = "op";
  spec.num_vnodes = 4;
  spec.input_arity =
      kind == dataflow::OperatorKind::kSymmetricHashJoin ? 2 : 1;
  auto host = dataflow::OperatorHost::Create(
      spec, std::move(backend),
      [](uint64_t key) { return static_cast<uint32_t>(key % 4); }, 0);
  EXPECT_TRUE(host.ok()) << host.status().ToString();
  return std::move(host).MoveValue();
}

/// The (key, value) entries of a TakeChanges run, in run order.
std::vector<std::pair<std::string, std::string>> RunEntries(
    std::string_view run) {
  std::vector<std::pair<std::string, std::string>> entries;
  EntryReader reader(run);
  while (!reader.AtEnd()) {
    EXPECT_TRUE(reader.Next().ok());
    entries.emplace_back(reader.key(), reader.value());
  }
  return entries;
}

// A counter batch is one commit: each record emits its key's running
// count, the state gets one write per distinct key with its final count
// (16 nominal bytes per key new to the state), both capture readers see
// that final value once, and the WAL takes one append per applied batch
// and none for a fully deduplicated resend.
TEST_F(LsmBackendTest, CounterBatchCommitsOnceWithFinalCountPerKey) {
  LsmStateBackend* lsm = backend_.get();
  lsm->SetChangeCapture(ChangeReader::kStream, true);
  lsm->SetChangeCapture(ChangeReader::kCheckpoint, true);
  auto host =
      MakeHost(dataflow::OperatorKind::kKeyedCounter, std::move(backend_));

  // Keys 8 and 12 route to vnode 0, key 9 to vnode 1.
  dataflow::Batch first = KeyedBatch(0, 0, {8, 9, 8, 12, 8, 9}, "");
  const uint64_t appends = lsm->db()->wal_appends();
  dataflow::Batch out;
  auto applied = host->Apply(0, first, 0, &out, false);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->applied, 6u);
  std::vector<std::string> counts;
  for (const dataflow::Record& r : out.records) counts.push_back(r.payload);
  EXPECT_EQ(counts,
            (std::vector<std::string>{"1", "1", "2", "1", "3", "2"}));
  EXPECT_EQ(lsm->db()->wal_appends(), appends + 1);
  EXPECT_EQ(lsm->SizeBytes(), 3u * 16) << "16 nominal bytes per key";
  EXPECT_EQ(host->Query(8)->count, 3u);
  EXPECT_EQ(host->Query(9)->count, 2u);
  EXPECT_EQ(host->Query(12)->count, 1u);
  for (ChangeReader reader :
       {ChangeReader::kStream, ChangeReader::kCheckpoint}) {
    std::string run;
    ASSERT_EQ(lsm->TakeChanges(reader, 0, &run), 2u);
    auto entries = RunEntries(run);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].first, U64Key(8));
    EXPECT_EQ(DecodeCount(entries[0].second), 3u);
    EXPECT_EQ(entries[1].first, U64Key(12));
    EXPECT_EQ(DecodeCount(entries[1].second), 1u);
  }

  // The next batch extends the running counts; only key 13 is new.
  dataflow::Batch second = KeyedBatch(0, 1, {8, 13, 13}, "");
  out = dataflow::Batch();
  ASSERT_TRUE(host->Apply(0, second, 0, &out, false).ok());
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records[0].payload, "4");
  EXPECT_EQ(out.records[2].payload, "2");
  EXPECT_EQ(lsm->db()->wal_appends(), appends + 2);
  EXPECT_EQ(lsm->SizeBytes(), 4u * 16);

  // A resend of a batch the state already holds commits nothing.
  dataflow::Batch resent = KeyedBatch(0, 1, {8, 13, 13}, "");
  out = dataflow::Batch();
  auto deduped = host->Apply(0, resent, 0, &out, false);
  ASSERT_TRUE(deduped.ok());
  EXPECT_TRUE(deduped->fully_deduped);
  EXPECT_EQ(lsm->db()->wal_appends(), appends + 2);
  EXPECT_EQ(host->Query(8)->count, 4u);
  EXPECT_EQ(host->Query(13)->count, 2u);
  EXPECT_EQ(lsm->SizeBytes(), 4u * 16);
}

// The fault sweep: every write budget from 0 to 2N+2 over an N-record
// batch, on the counter and on the join's probe side. The batch commits
// or it does not; a failed apply changes neither the state nor the
// replay watermarks, so the driver's resend of the same (source, offset)
// counts every record, and stores every join row, exactly once.
TEST(HostCommitFaultTest, ResendAfterAFailedCommitAppliesTheBatchOnce) {
  constexpr int kRecords = 20;
  constexpr uint64_t kKeys = 7;
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < kRecords; ++i) keys.push_back(i % kKeys);
  std::map<uint64_t, uint64_t> occurrences;
  for (uint64_t key : keys) ++occurrences[key];

  for (auto kind : {dataflow::OperatorKind::kKeyedCounter,
                    dataflow::OperatorKind::kSymmetricHashJoin}) {
    const bool join = kind == dataflow::OperatorKind::kSymmetricHashJoin;
    for (int budget = 0; budget <= 2 * kRecords + 2; ++budget) {
      SCOPED_TRACE(std::string(join ? "join" : "counter") +
                   " budget=" + std::to_string(budget));
      lsm::MemEnv base;
      lsm::FaultEnv env(&base);
      env.SetTornAppends(false);
      auto backend = LsmStateBackend::Open(&env, "/state/op", "op", 0);
      ASSERT_TRUE(backend.ok());
      LsmStateBackend* lsm = backend->get();
      auto host = MakeHost(kind, std::move(backend).MoveValue());
      if (join) {
        // One build row per key on side 1, committed on a healthy disk.
        std::vector<uint64_t> build;
        for (uint64_t key = 0; key < kKeys; ++key) build.push_back(key);
        dataflow::Batch rows = KeyedBatch(1, 0, build, "r");
        dataflow::Batch ignored;
        ASSERT_TRUE(host->Apply(1, rows, 0, &ignored, false).ok());
      }
      const uint64_t bytes_before = lsm->SizeBytes();

      // Input 0 feeds the counter, and the join's probe side.
      env.SetWriteBudget(budget);
      dataflow::Batch first = KeyedBatch(0, 0, keys, "l");
      dataflow::Batch first_out;
      auto applied = host->Apply(0, first, 0, &first_out, false);
      env.Heal();
      if (!applied.ok()) {
        // Neither the state nor the replay watermarks moved.
        EXPECT_EQ(lsm->SizeBytes(), bytes_before);
        for (const auto& [vnode, sources] :
             host->GetWatermarks({0, 1, 2, 3})) {
          EXPECT_EQ(sources.count(0), 0u) << "vnode " << vnode;
        }
      }

      // The driver resends the same (source, offset).
      dataflow::Batch resent = KeyedBatch(0, 0, keys, "l");
      dataflow::Batch resent_out;
      auto again = host->Apply(0, resent, 0, &resent_out, false);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again->fully_deduped, applied.ok());
      const dataflow::Batch& outputs = applied.ok() ? first_out : resent_out;
      EXPECT_EQ(outputs.records.size(), static_cast<size_t>(kRecords))
          << "one output per record: its count, or its one match";

      for (const auto& [key, n] : occurrences) {
        auto stored = host->Query(key);
        ASSERT_TRUE(stored.ok());
        if (join) {
          EXPECT_EQ(stored->left, n) << "key " << key;
          EXPECT_EQ(stored->right, 1u) << "key " << key;
        } else {
          EXPECT_EQ(stored->count, n) << "key " << key;
        }
      }
    }
  }
}

// An ingest writes each image's run as one batch, tombstones included,
// and sets each vnode's size rather than adding to it; an empty run (a
// held copy taken over) writes nothing. A malformed run fails the ingest
// with the vnodes before it written and nothing of its own.
TEST_F(LsmBackendTest, IngestImagesWritesEachRunAndSetsEachSize) {
  ASSERT_TRUE(Put(backend_.get(), 1, "gone", "x", 3).ok());
  std::string run;
  EntryWriter writer(&run);
  writer.Put("a", "1");
  writer.Delete("gone");
  const uint64_t appends = backend_->db()->wal_appends();
  ASSERT_TRUE(
      backend_->IngestImages({Image(1, 40, run), Image(2, 7)}, false).ok());
  EXPECT_EQ(backend_->db()->wal_appends(), appends + 1)
      << "one write per non-empty run";
  EXPECT_EQ(backend_->VnodeBytes(1), 40u) << "set, not added";
  EXPECT_EQ(backend_->VnodeBytes(2), 7u);
  EXPECT_EQ(RunEntries(EntryRun(backend_.get(), 1)),
            (std::vector<std::pair<std::string, std::string>>{{"a", "1"}}));
}

// Extracting one vnode reads that vnode's blocks, not the store's. The
// block cache is too small to hold the store, so every block a scan needs
// is a read: one vnode's extraction must cost about its share of the
// extraction of all sixteen.
TEST_F(LsmBackendTest, OneVnodeExtractionReadsOnlyItsBlocks) {
  constexpr uint32_t kVnodes = 16;
  lsm::Options options;
  options.block_cache = std::make_shared<lsm::BlockCache>(4 * 4096);
  auto opened =
      LsmStateBackend::Open(&env_, "/state/blocks", "op", 0, options);
  ASSERT_TRUE(opened.ok());
  LsmStateBackend* backend = opened->get();
  std::vector<uint32_t> all;
  for (uint32_t v = 0; v < kVnodes; ++v) {
    std::vector<StateWrite> writes;
    for (int i = 0; i < 200; ++i) {
      writes.push_back(
          {v, false, "k" + std::to_string(i), std::string(100, 'x'), 1});
    }
    ASSERT_TRUE(backend->ApplyBatch(writes).ok());
    all.push_back(v);
  }
  ASSERT_TRUE(backend->db()->Flush().ok());
  std::string value;
  ASSERT_TRUE(backend->Get(0, "k0", &value).ok()) << "opens the table";

  auto blocks_read_by = [&](const std::vector<uint32_t>& vnodes) {
    const uint64_t before = backend->db()->sst_blocks_read();
    std::string run;
    for (uint32_t v : vnodes) {
      EXPECT_TRUE(backend->ReadVnodeEntries(v, &run).ok());
    }
    return backend->db()->sst_blocks_read() - before;
  };
  const uint64_t all_blocks = blocks_read_by(all);
  const uint64_t one_block_count = blocks_read_by({7});
  EXPECT_GT(all_blocks, 4u * kVnodes) << "the store spans many blocks";
  EXPECT_LE(one_block_count * kVnodes, 2 * all_blocks)
      << "one vnode read " << one_block_count << " of " << all_blocks
      << " blocks";
}

// ------------------------------------------------------ change capture

/// The image of `vnode` in a fresh replica backend that held rows were
/// written into: `runs` in order, then taken over at the size `nominal`.
/// A replica fed a vnode's run and then every run taken since equals the
/// vnode.
VnodeImage HeldImage(lsm::Env* env, uint32_t vnode,
                     const std::vector<std::string_view>& runs,
                     uint64_t nominal) {
  static int replicas = 0;
  auto replica = LsmStateBackend::Open(
      env, "/state/replica-" + std::to_string(replicas++), "op", 9);
  EXPECT_TRUE(replica.ok());
  if (!replica.ok()) return VnodeImage();
  for (std::string_view run : runs) {
    EXPECT_TRUE((*replica)->WriteVnodeEntries(vnode, run).ok());
  }
  EXPECT_TRUE((*replica)->IngestImages({Image(vnode, nominal)}, false).ok());
  return WholeImage(replica->get(), vnode);
}

// ReadVnodeEntries replaces the run with the vnode's live keys only, and
// the run writes back as the vnode.
TEST_F(LsmBackendTest, ReadVnodeEntriesReadsLiveKeysAndWritesBack) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(Put(backend_.get(), 2, "k" + std::to_string(i),
                    std::string(i, 'v'), 8)
                    .ok());
  }
  ASSERT_TRUE(Delete(backend_.get(), 2, "k7", 8).ok());
  ASSERT_TRUE(Put(backend_.get(), 3, "other", "x", 1).ok());
  std::string run = "stale";  // replaced, not appended to
  ASSERT_TRUE(backend_->ReadVnodeEntries(5, &run).ok());
  EXPECT_TRUE(run.empty()) << "vnode 5 holds nothing";
  EXPECT_EQ(RunEntries(EntryRun(backend_.get(), 2)).size(), 19u);
  EXPECT_EQ(HeldImage(&env_, 2, {EntryRun(backend_.get(), 2)},
                      backend_->VnodeBytes(2)),
            WholeImage(backend_.get(), 2));
}

TEST_F(LsmBackendTest, ChangeCaptureIsOffByDefault) {
  ASSERT_TRUE(Put(backend_.get(), 1, "k", "v", 1).ok());
  std::string run;
  EXPECT_FALSE(
      backend_->TakeChanges(ChangeReader::kStream, 1, &run).has_value())
      << "writes made with capture off must ship the vnode whole";
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kStream), 0u);
}

TEST_F(LsmBackendTest, ChangeCaptureKeepsLatestValueAndTombstones) {
  for (const char* key : {"a", "c", "e"}) {
    ASSERT_TRUE(Put(backend_.get(), 1, key, std::string(key) + "0", 1).ok());
  }
  const std::string base = EntryRun(backend_.get(), 1);
  backend_->SetChangeCapture(ChangeReader::kStream, true);
  ASSERT_TRUE(Put(backend_.get(), 1, "b", "b1", 1).ok());
  ASSERT_TRUE(Put(backend_.get(), 1, "a", "a1", 1).ok());
  ASSERT_TRUE(Put(backend_.get(), 1, "b", "b2", 1).ok());
  ASSERT_TRUE(Delete(backend_.get(), 1, "c", 1).ok());
  std::vector<StateWrite> writes;
  writes.push_back({1, false, "d", "d1", 1});
  writes.push_back({1, true, "a", "", 1});
  writes.push_back({2, false, "z", "z1", 1});
  ASSERT_TRUE(backend_->ApplyBatch(writes).ok());
  // a b c d in 1, z in 2
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kStream), 5u);

  std::string run;
  ASSERT_EQ(backend_->TakeChanges(ChangeReader::kStream, 1, &run), 4u);
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kStream), 1u);
  // The run carries each key's latest write: applied to the vnode as it
  // was when capture began, it yields the vnode as it is now (a and c
  // erased, b = b2, d added, e untouched).
  EXPECT_EQ(HeldImage(&env_, 1, {base, run}, backend_->VnodeBytes(1)),
            WholeImage(backend_.get(), 1));
  ASSERT_EQ(backend_->TakeChanges(ChangeReader::kStream, 1, &run), 0u);
  EXPECT_TRUE(run.empty()) << "a take moves the changes out";
}

TEST_F(LsmBackendTest, ChangeCaptureIsBoundedByDistinctKeys) {
  const std::string base = EntryRun(backend_.get(), 3);
  backend_->SetChangeCapture(ChangeReader::kStream, true);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(Put(backend_.get(), 3, "k" + std::to_string(i % 10),
                    std::to_string(i), 1)
                    .ok());
  }
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kStream), 10u);
  std::string run;
  ASSERT_EQ(backend_->TakeChanges(ChangeReader::kStream, 3, &run), 10u);
  EXPECT_LT(run.size(), 10u * 16) << "one entry per key, not per write";
  EXPECT_EQ(HeldImage(&env_, 3, {base, run}, backend_->VnodeBytes(3)),
            WholeImage(backend_.get(), 3));
}

TEST_F(LsmBackendTest, IngestRecordsNothingAndDropDiscards) {
  ASSERT_TRUE(Put(backend_.get(), 6, "x", "1", 1).ok());
  auto other = LsmStateBackend::Open(&env_, "/state/op-1", "op", 1);
  ASSERT_TRUE(other.ok());
  (*other)->SetChangeCapture(ChangeReader::kStream, true);
  ASSERT_TRUE(
      (*other)->IngestImages({WholeImage(backend_.get(), 6)}, false).ok());
  EXPECT_EQ((*other)->CapturedKeys(ChangeReader::kStream), 0u)
      << "absorbed vnodes ship whole";

  ASSERT_TRUE(Put(other->get(), 6, "y", "2", 1).ok());
  ASSERT_TRUE(Put(other->get(), 7, "y", "2", 1).ok());
  ASSERT_TRUE((*other)->DropVnodes({6}).ok());
  EXPECT_EQ((*other)->CapturedKeys(ChangeReader::kStream), 1u)
      << "dropped vnodes ship as tombstones";
  (*other)->SetChangeCapture(ChangeReader::kStream, false);
  EXPECT_EQ((*other)->CapturedKeys(ChangeReader::kStream), 0u)
      << "turning capture off discards";
}

// Held rows are a peer's replica, not this backend's state: written with
// both readers capturing, they count toward no size and no captured
// delta; they read like any rows, an ingest of an image with an empty run
// takes them over without a write, and DropVnodes drops them.
TEST_F(LsmBackendTest, HeldRowsSkipAccountingAndCapture) {
  backend_->SetChangeCapture(ChangeReader::kStream, true);
  backend_->SetChangeCapture(ChangeReader::kCheckpoint, true);
  ASSERT_TRUE(Put(backend_.get(), 1, "own", "o", 5).ok());
  std::string run;
  EntryWriter writer(&run);
  writer.Put("a", "1");
  writer.Delete("b");
  writer.Put("c", "3");
  const uint64_t appends = backend_->db()->wal_appends();
  ASSERT_TRUE(backend_->WriteVnodeEntries(2, run).ok());
  EXPECT_EQ(backend_->db()->wal_appends(), appends + 1) << "one write";
  EXPECT_EQ(backend_->SizeBytes(), 5u);
  EXPECT_EQ(backend_->VnodeBytes(2), 0u);
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kStream), 1u);
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kCheckpoint), 1u);
  std::string value;
  ASSERT_TRUE(backend_->Get(2, "c", &value).ok());
  EXPECT_EQ(value, "3");
  EXPECT_TRUE(backend_->Get(2, "b", &value).IsNotFound());

  // Taking the vnode over writes nothing and copies no key.
  const uint64_t written = backend_->db()->user_bytes_written();
  ASSERT_TRUE(backend_->IngestImages({Image(2, 40)}, true).ok());
  EXPECT_EQ(backend_->db()->user_bytes_written(), written);
  EXPECT_EQ(backend_->SizeBytes(), 45u);
  auto rows = backend_->ScanPrefix(2, "");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<std::pair<std::string, std::string>>{
                       {"a", "1"}, {"c", "3"}}));

  ASSERT_TRUE(backend_->WriteVnodeEntries(3, run).ok());
  ASSERT_TRUE(backend_->DropVnodes({3}).ok());
  EXPECT_TRUE(backend_->ScanPrefix(3, "")->empty());
  EXPECT_EQ(backend_->SizeBytes(), 45u);
}

TEST_F(LsmBackendTest, WritingTakenChangesReproducesTheVnode) {
  for (const char* key : {"b", "d", "f"}) {
    ASSERT_TRUE(
        Put(backend_.get(), 4, key, std::string("old-") + key, 4).ok());
  }
  const std::string before = EntryRun(backend_.get(), 4);
  backend_->SetChangeCapture(ChangeReader::kStream, true);
  StateBackend* b = backend_.get();
  ASSERT_TRUE(Put(b, 4, "a", "new-a", 4).ok());  // before every entry
  ASSERT_TRUE(Put(b, 4, "d", "new-d", 0).ok());  // overwrite
  ASSERT_TRUE(Delete(b, 4, "b", 4).ok());        // erase
  ASSERT_TRUE(Put(b, 4, "e", "new-e", 4).ok());  // in between
  ASSERT_TRUE(Put(b, 4, "g", "new-g", 4).ok());  // after every entry
  ASSERT_TRUE(Delete(b, 4, "zz", 0).ok());       // absent key
  std::string run;
  ASSERT_EQ(backend_->TakeChanges(ChangeReader::kStream, 4, &run), 6u);
  EXPECT_EQ(
      HeldImage(&env_, 4, {before, run}, backend_->VnodeBytes(4)),
      WholeImage(backend_.get(), 4));

  // A malformed run is Corruption and writes nothing, never a crash:
  // every truncation of the run that cuts an entry.
  auto replica = LsmStateBackend::Open(&env_, "/state/truncated", "op", 9);
  ASSERT_TRUE(replica.ok());
  for (size_t len = 1; len < run.size(); ++len) {
    const Status st = (*replica)->WriteVnodeEntries(4, run.substr(0, len));
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << "run prefix " << len;
    }
  }
  ASSERT_TRUE((*replica)->DropVnodes({4}).ok());
}

TEST_F(LsmBackendTest, HeldRowsTrackRandomWritesRoundAfterRound) {
  // A replica that starts from one whole run and writes every round's
  // run must equal the live vnode after each round.
  backend_->SetChangeCapture(ChangeReader::kStream, true);
  auto replica = LsmStateBackend::Open(&env_, "/state/rounds", "op", 9);
  ASSERT_TRUE(replica.ok());
  ASSERT_TRUE(
      (*replica)->WriteVnodeEntries(9, EntryRun(backend_.get(), 9)).ok());
  uint64_t rng = 42;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  for (int round = 0; round < 30; ++round) {
    const int writes = static_cast<int>(next() % 60);
    for (int i = 0; i < writes; ++i) {
      const std::string key = "k" + std::to_string(next() % 200);
      if (next() % 4 == 0) {
        ASSERT_TRUE(Delete(backend_.get(), 9, key, 1).ok());
      } else {
        ASSERT_TRUE(
            Put(backend_.get(), 9, key, std::to_string(next()), 1).ok());
      }
    }
    std::string run;
    ASSERT_TRUE(
        backend_->TakeChanges(ChangeReader::kStream, 9, &run).has_value());
    ASSERT_TRUE(
        (*replica)
            ->IngestImages({Image(9, backend_->VnodeBytes(9), run)}, false)
            .ok());
    ASSERT_EQ(WholeImage(replica->get(), 9), WholeImage(backend_.get(), 9))
        << "round " << round;
  }
}

// The entry codec and the held-row write against a std::map model. Keys
// are built from pieces that share prefixes, prefix one another and hold
// 0x00 and 0xff bytes; the empty key and a piece long enough for a
// two-byte tag occur. Values run 0-7 bytes, both sides of the inline
// length limit, and now and then 200 bytes. Each round's changes, puts
// and tombstones (of absent keys too), are coded as one run and written
// into a replica's held rows, and the replica's whole image must be byte
// for byte the image of a backend holding the model's state, and decode
// to the model. The runs must hold keys as long as their predecessor and
// keys of another length, so both forms of `shared` occur.
TEST_F(LsmBackendTest, EntryCodecMatchesAMapModelOverRandomRuns) {
  constexpr uint32_t kVnode = 3;
  const std::string pieces[] = {"",  "a", "ab", "abc", std::string(1, '\0'),
                                std::string(2, '\0'), "\xff", "\xff\xff", "k",
                                "0123456789"};
  uint64_t rng = 7;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  auto random_key = [&] {
    std::string key;
    for (uint64_t i = 0, parts = next() % 4; i < parts; ++i) {
      key += pieces[next() % std::size(pieces)];
    }
    return key;
  };
  std::map<std::string, std::string> model;
  auto replica = LsmStateBackend::Open(&env_, "/state/held", "op", 9);
  ASSERT_TRUE(replica.ok());
  VnodeImage held;
  std::set<size_t> value_lengths;
  uint64_t same_length = 0, other_length = 0, tombstones = 0;
  for (int round = 0; round < 60; ++round) {
    std::map<std::string, std::optional<std::string>> changes;
    for (uint64_t i = 0, n = next() % 12; i < n; ++i) {
      std::string key = random_key();
      if (next() % 3 == 0) {
        changes[key] = std::nullopt;
      } else {
        changes[key] = std::string(next() % 10 == 0 ? 200 : next() % 8,
                                   static_cast<char>('a' + next() % 26));
      }
    }
    std::string run;
    EntryWriter writer(&run);
    std::vector<StateWrite> writes;
    size_t previous_length = 0;  // a run's first key follows the empty key
    for (const auto& [key, value] : changes) {
      if (value.has_value()) {
        writer.Put(key, *value);
        model[key] = *value;
        value_lengths.insert(value->size());
      } else {
        writer.Delete(key);
        model.erase(key);
        ++tombstones;
      }
      ++(key.size() == previous_length ? same_length : other_length);
      previous_length = key.size();
      writes.push_back({kVnode, !value.has_value(), key, value.value_or(""),
                        1});
    }
    ASSERT_TRUE(backend_->ApplyBatch(writes).ok());
    EXPECT_EQ(RunEntries(run).size(), changes.size());
    ASSERT_TRUE((*replica)
                    ->IngestImages(
                        {Image(kVnode, backend_->VnodeBytes(kVnode), run)},
                        false)
                    .ok())
        << "round " << round;
    held = WholeImage(replica->get(), kVnode);
    ASSERT_EQ(held, WholeImage(backend_.get(), kVnode)) << "round " << round;
    const auto entries = RunEntries(held.entries);
    const std::map<std::string, std::string> decoded(entries.begin(),
                                                     entries.end());
    ASSERT_EQ(decoded, model) << "round " << round;
  }
  ASSERT_GT(model.size(), 5u);
  EXPECT_EQ(value_lengths, (std::set<size_t>{0, 1, 2, 3, 4, 5, 6, 7, 200}));
  EXPECT_GT(same_length, 20u);
  EXPECT_GT(other_length, 20u);
  EXPECT_GT(tombstones, 20u);

  // A run cut at an entry boundary is a shorter run; cut anywhere else it
  // is Corruption, to the held-row write and to an ingest alike, and
  // neither leaves a trace in the held rows or the size.
  std::string run;
  EntryWriter writer(&run);
  std::set<size_t> boundaries = {0};
  for (const auto& [key, value] : model) {
    writer.Put(key, value + "!");
    boundaries.insert(run.size());
  }
  for (size_t len = 0; len <= run.size(); ++len) {
    if (boundaries.count(len) != 0) continue;
    const std::string cut = run.substr(0, len);
    EXPECT_EQ((*replica)->WriteVnodeEntries(kVnode, cut).code(),
              StatusCode::kCorruption)
        << "run prefix " << len;
    EXPECT_EQ((*replica)
                  ->IngestImages({Image(kVnode, held.bytes + 1, cut)}, false)
                  .code(),
              StatusCode::kCorruption)
        << "run prefix " << len;
    ASSERT_EQ(WholeImage(replica->get(), kVnode), held) << "run prefix " << len;
  }

  // Hand-built runs, one per malformed form. Each starts with the entry
  // "ab" -> "1" (an explicit shared 0 after the empty key).
  auto entry = [](std::string* out, uint64_t unshared, uint64_t vfield,
                  std::optional<uint64_t> shared, std::string_view suffix,
                  std::optional<uint64_t> value_length,
                  std::string_view value) {
    BinaryWriter w(out);
    w.PutVarint(unshared << 4 | vfield << 1 | (shared.has_value() ? 0 : 1));
    if (shared.has_value()) w.PutVarint(*shared);
    out->append(suffix);
    if (value_length.has_value()) w.PutVarint(*value_length);
    out->append(value);
  };
  std::string ab;
  entry(&ab, 2, 2, 0, "ab", std::nullopt, "1");
  ASSERT_EQ(RunEntries(ab),
            (std::vector<std::pair<std::string, std::string>>{{"ab", "1"}}));
  std::string implied = ab;  // same length as "ab", but 3 bytes unshared
  entry(&implied, 3, 2, std::nullopt, "xyz", std::nullopt, "1");
  std::string explicit_shared = ab;  // shares 3 bytes of a 2-byte key
  entry(&explicit_shared, 1, 2, 3, "c", std::nullopt, "1");
  std::string long_value = ab;  // a 10-byte value with 2 bytes left
  entry(&long_value, 1, 7, 2, "c", 10, "12");
  for (const std::string& bad : {implied, explicit_shared, long_value}) {
    EntryReader reader(bad);
    ASSERT_TRUE(reader.Next().ok());
    EXPECT_EQ(reader.Next().code(), StatusCode::kCorruption);
    EXPECT_EQ(reader.key(), "ab") << "a failed decode changes nothing";
    EXPECT_EQ(reader.position(), ab.size());
    EXPECT_EQ((*replica)->WriteVnodeEntries(kVnode, bad).code(),
              StatusCode::kCorruption);
    EXPECT_EQ((*replica)
                  ->IngestImages({Image(kVnode, held.bytes + 1, bad)}, false)
                  .code(),
              StatusCode::kCorruption);
    ASSERT_EQ(WholeImage(replica->get(), kVnode), held);
  }
}

// Bytes from the network and from chain files reach the decoder as they
// come: random strings, and valid runs with one byte changed, written as
// held rows and ingested as images. Each call is OK or Corruption, and a
// Corruption leaves the held rows and the size as they were. The
// sanitizer builds run this too, so a read past a run fails there.
TEST_F(LsmBackendTest, EntryDecoderSurvivesRandomAndMutatedRuns) {
  constexpr uint32_t kVnode = 6;
  uint64_t rng = 11;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  std::string valid;
  EntryWriter writer(&valid);
  for (uint64_t key = 0; key < 40; ++key) {
    if (key % 7 == 3) {
      writer.Delete(U64Key(key * 37));
    } else {
      writer.Put(U64Key(key * 37), std::string(key % 9, 'v'));
    }
  }
  std::vector<std::string> inputs;
  for (int i = 0; i < 300; ++i) {
    std::string random(next() % 40, '\0');
    for (char& c : random) c = static_cast<char>(next());
    inputs.push_back(std::move(random));
    std::string mutated = valid;
    mutated[next() % mutated.size()] ^= static_cast<char>(1 + next() % 255);
    inputs.push_back(std::move(mutated));
  }
  uint64_t corrupt = 0;
  VnodeImage held = WholeImage(backend_.get(), kVnode);
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::string& run = inputs[i];
    for (bool ingest : {false, true}) {
      Status st;
      if (ingest) {
        st = backend_->IngestImages({Image(kVnode, held.bytes + 1, run)},
                                    false);
      } else {
        st = backend_->WriteVnodeEntries(kVnode, run);
      }
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kCorruption)
          << "input " << i << ": " << st.ToString();
      if (st.ok()) {
        held = WholeImage(backend_.get(), kVnode);
      } else {
        ++corrupt;
        ASSERT_EQ(WholeImage(backend_.get(), kVnode), held) << "input " << i;
      }
    }
  }
  // Both outcomes occur: the inputs reach past the first check.
  EXPECT_GT(corrupt, 100u);
  EXPECT_LT(corrupt, 2 * inputs.size());
}

TEST_F(LsmBackendTest, IngestImagesIsAllOrNothing) {
  // A valid one-entry image of vnode 1 beside a cut image of vnode 2: the
  // cut run fails the call, and the valid one writes no row and sets no
  // size either.
  std::string valid, cut;
  EntryWriter valid_run(&valid);
  valid_run.Put("k", "value");
  EntryWriter cut_run(&cut);
  cut_run.Put("k", "value");
  cut.pop_back();
  Status st =
      backend_->IngestImages({Image(1, 10, valid), Image(2, 20, cut)}, false);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  std::string value;
  EXPECT_TRUE(backend_->Get(1, "k", &value).IsNotFound());
  EXPECT_TRUE(EntryRun(backend_.get(), 2).empty());
  EXPECT_EQ(backend_->VnodeBytes(1), 0u);
  EXPECT_EQ(backend_->VnodeBytes(2), 0u);
  EXPECT_EQ(backend_->SizeBytes(), 0u);
}

TEST_F(LsmBackendTest, CaptureReadersAreIndependent) {
  const std::string base = EntryRun(backend_.get(), 5);
  backend_->SetChangeCapture(ChangeReader::kStream, true);
  backend_->SetChangeCapture(ChangeReader::kCheckpoint, true);
  ASSERT_TRUE(Put(backend_.get(), 5, "a", "a1", 1).ok());
  ASSERT_TRUE(Put(backend_.get(), 5, "b", "b1", 1).ok());

  // A stream take leaves the checkpoint reader's changes in place...
  std::string run;
  ASSERT_EQ(backend_->TakeChanges(ChangeReader::kStream, 5, &run), 2u);
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kStream), 0u);
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kCheckpoint), 2u);
  ASSERT_TRUE(Put(backend_.get(), 5, "c", "c1", 1).ok());
  // ...and the reverse: each reader's run spans its own last take.
  std::string ckpt_run;
  ASSERT_EQ(backend_->TakeChanges(ChangeReader::kCheckpoint, 5, &ckpt_run),
            3u);
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kStream), 1u);
  EXPECT_EQ(
      HeldImage(&env_, 5, {base, ckpt_run}, backend_->VnodeBytes(5)),
      WholeImage(backend_.get(), 5));

  // Discarding one reader's changes leaves the other's.
  ASSERT_TRUE(Put(backend_.get(), 5, "d", "d1", 1).ok());
  backend_->DiscardChanges(ChangeReader::kCheckpoint, {5});
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kCheckpoint), 0u);
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kStream), 2u);

  // DropVnodes discards both readers' changes of the dropped vnode.
  ASSERT_TRUE(Put(backend_.get(), 5, "e", "e1", 1).ok());
  ASSERT_TRUE(Put(backend_.get(), 6, "e", "e1", 1).ok());
  ASSERT_TRUE(backend_->DropVnodes({5}).ok());
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kStream), 1u);
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kCheckpoint), 1u);

  // Turning one reader off keeps the other capturing.
  backend_->SetChangeCapture(ChangeReader::kStream, false);
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kStream), 0u);
  EXPECT_EQ(backend_->CapturedKeys(ChangeReader::kCheckpoint), 1u);
  ASSERT_TRUE(Put(backend_.get(), 6, "f", "f1", 1).ok());
  EXPECT_FALSE(
      backend_->TakeChanges(ChangeReader::kStream, 6, &run).has_value());
  EXPECT_EQ(backend_->TakeChanges(ChangeReader::kCheckpoint, 6, &run), 2u);
}

// ----------------------------------------------------- ModeledStateBackend

TEST(ModeledBackendTest, ByteAccounting) {
  ModeledStateBackend backend("op", 0);
  backend.AddBytes(1, 1000);
  backend.AddBytes(2, 500);
  backend.RemoveBytes(1, 300);
  EXPECT_EQ(backend.VnodeBytes(1), 700u);
  EXPECT_EQ(backend.SizeBytes(), 1200u);
}

TEST(ModeledBackendTest, RemoveClampsAtZero) {
  ModeledStateBackend backend("op", 0);
  backend.AddBytes(1, 100);
  backend.RemoveBytes(1, 1000);
  EXPECT_EQ(backend.VnodeBytes(1), 0u);
}

TEST(ModeledBackendTest, CheckpointsAreIncremental) {
  ModeledStateBackend backend("op", 0);
  backend.AddBytes(1, 10000);
  auto c1 = backend.Checkpoint(1);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1->TotalBytes(), 10000u);
  EXPECT_EQ(c1->DeltaBytes(), 10000u);

  backend.AddBytes(1, 2000);
  auto c2 = backend.Checkpoint(2);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2->TotalBytes(), 12000u);
  EXPECT_EQ(c2->DeltaBytes(), 2000u) << "only the new bytes are delta";

  // Nothing new: empty delta.
  auto c3 = backend.Checkpoint(3);
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ(c3->DeltaBytes(), 0u);
}

TEST(ModeledBackendTest, ExtractIngestMovesBytes) {
  ModeledStateBackend origin("op", 0);
  origin.AddBytes(1, 4000);
  origin.AddBytes(2, 6000);

  ModeledStateBackend target("op", 1);
  ASSERT_TRUE(target.IngestImages({WholeImage(&origin, 2)}, false).ok());
  EXPECT_EQ(target.VnodeBytes(2), 6000u);
  ASSERT_TRUE(origin.DropVnodes({2}).ok());
  EXPECT_EQ(origin.SizeBytes(), 4000u);
}

TEST(ModeledBackendTest, IngestSetsEachVnodesSize) {
  ModeledStateBackend backend("op", 0);
  backend.AddBytes(1, 4000);
  ASSERT_TRUE(
      backend.IngestImages({Image(1, 300), Image(9, 0)}, false)
          .ok());
  EXPECT_EQ(backend.VnodeBytes(1), 300u) << "set, not added";
  EXPECT_EQ(backend.VnodeBytes(9), 0u);
  EXPECT_EQ(backend.SizeBytes(), 300u);
}

TEST(ModeledBackendTest, IngestedBytesAppearInNextDelta) {
  ModeledStateBackend target("op", 1);
  ModeledStateBackend origin("op", 0);
  origin.AddBytes(1, 5000);
  ASSERT_TRUE(target.IngestImages({WholeImage(&origin, 1)}, false).ok());
  auto ckpt = target.Checkpoint(1);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt->DeltaBytes(), 5000u);
}

// A durable ingest (images out of a replicated checkpoint) adds one
// restored file per call, already durable, so the next delta is empty.
TEST(ModeledBackendTest, AdoptedCheckpointBytesAreNotReplicatedAgain) {
  ModeledStateBackend origin("op", 0);
  origin.AddBytes(7, 123456);
  origin.AddBytes(8, 1000);
  ASSERT_TRUE(origin.Checkpoint(1).ok());

  ModeledStateBackend target("op", 1);
  ASSERT_TRUE(
      target
          .IngestImages({WholeImage(&origin, 7), WholeImage(&origin, 8)}, true)
          .ok());
  EXPECT_EQ(target.VnodeBytes(7), 123456u);
  EXPECT_EQ(target.VnodeBytes(8), 1000u);
  auto next = target.Checkpoint(1);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->DeltaBytes(), 0u)
      << "adopted files are already durable; no new delta";
  EXPECT_EQ(next->files.size(), 1u) << "one restored file for the call";
  EXPECT_EQ(next->TotalBytes(), 124456u);
}

TEST(ModeledBackendTest, CannotCaptureChanges) {
  ModeledStateBackend backend("op", 0);
  backend.SetChangeCapture(ChangeReader::kStream, true);
  backend.AddBytes(1, 100);
  std::string run;
  EXPECT_FALSE(backend.TakeChanges(ChangeReader::kStream, 1, &run).has_value())
      << "its vnodes ship whole";
}

TEST(ModeledBackendTest, HeldVnodeIsItsSizeAlone) {
  ModeledStateBackend backend("op", 0);
  backend.AddBytes(4, 300);
  std::string run = "stale";
  ASSERT_TRUE(backend.ReadVnodeEntries(4, &run).ok());
  EXPECT_TRUE(run.empty()) << "a modeled vnode reads no entries";
  ASSERT_TRUE(backend.DropVnodes({4}).ok());
  ASSERT_TRUE(backend.WriteVnodeEntries(4, "anything").ok());
  EXPECT_EQ(backend.SizeBytes(), 0u);
  ASSERT_TRUE(backend.IngestImages({Image(4, 700, "anything")}, true).ok());
  EXPECT_EQ(backend.VnodeBytes(4), 700u);
  EXPECT_EQ(backend.SizeBytes(), 700u);
}

TEST(ModeledBackendTest, ValueOperationsAreNotSupported) {
  ModeledStateBackend backend("op", 0);
  std::string v;
  EXPECT_EQ(backend.Get(1, "k", &v).code(), StatusCode::kNotSupported);
  EXPECT_TRUE(backend.ScanPrefix(1, "")->empty());
}

}  // namespace
}  // namespace rhino::state
