// Crash-recovery battery for src/storage/ (DESIGN.md §16): every
// corruption the recovery protocol claims to handle is manufactured here
// on a real directory — a commit log truncated mid-record, a flipped bit
// in a data block, a deleted manifest — and must yield either a clean
// replay of the acknowledged prefix or a typed kDataLoss, never silent
// wrong rows. The soak test arms the `storage.commit` failpoint so a
// simulated crash can land at every write site, and asserts that what
// recovery reconstructs always equals the acknowledged (shadow) state.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "storage/storage_engine.h"
#include "types/value.h"

namespace cgq {
namespace storage {
namespace {

namespace fs = std::filesystem;

class StorageRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::DisarmAll();
    dir_ = (fs::temp_directory_path() /
            (std::string("cgq-recovery-test-") +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()))
               .string();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    Failpoints::DisarmAll();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  static Row MakeRow(int64_t i) {
    const std::string n = std::to_string(i);
    return {Value::Int64(i), Value::String("r" + n), Value::Double(i * 0.5)};
  }
  static std::vector<Row> MakeRows(int64_t n, int64_t base = 0) {
    std::vector<Row> rows;
    for (int64_t i = 0; i < n; ++i) rows.push_back(MakeRow(base + i));
    return rows;
  }

  // The single live commit-log path (there is exactly one wal-*.log
  // between checkpoints).
  std::string WalPath() const {
    for (const auto& entry : fs::directory_iterator(dir_)) {
      std::string name = entry.path().filename().string();
      if (name.rfind("wal-", 0) == 0) return entry.path().string();
    }
    ADD_FAILURE() << "no wal-*.log in " << dir_;
    return "";
  }

  std::vector<std::string> BlockPaths() const {
    std::vector<std::string> out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      std::string name = entry.path().filename().string();
      if (name.rfind("b", 0) == 0 &&
          name.find(".blk") != std::string::npos) {
        out.push_back(entry.path().string());
      }
    }
    return out;
  }

  std::string dir_;
};

// Cutting the commit log mid-record models a crash between the start of
// an append and its flush: that mutation was never acknowledged, so
// recovery must replay the intact prefix and drop the torn tail.
TEST_F(StorageRecoveryTest, TruncatedWalTailReplaysPrefix) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(40)).ok());
    ASSERT_TRUE(engine.Append(0, "t", MakeRows(10, 40)).ok());
  }
  std::string wal = WalPath();
  uintmax_t size = fs::file_size(wal);
  ASSERT_GT(size, 30u);
  fs::resize_file(wal, size - 13);  // cut into the last record

  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok()) << "torn tail must replay cleanly";
    auto n = engine.FragmentRows(0, "t");
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 40u) << "the torn append must be dropped whole";
    std::vector<Row> all;
    ASSERT_TRUE(engine.ReadAll(0, "t", &all).ok());
    ASSERT_EQ(all.size(), 40u);
    for (int64_t i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)));
    }
    // Replay truncated the torn record away, so new appends land on a
    // clean log...
    ASSERT_TRUE(engine.Append(0, "t", MakeRows(5, 40)).ok());
  }
  // ...and survive another restart.
  StorageEngine again;
  ASSERT_TRUE(again.Open(dir_).ok());
  auto n2 = again.FragmentRows(0, "t");
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 45u);
}

// A complete-but-corrupt record in the middle of the log is not a torn
// tail — the bytes after it prove the record was once whole — so it is
// data loss, not a clean stop.
TEST_F(StorageRecoveryTest, CorruptWalRecordIsDataLoss) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(40)).ok());
    ASSERT_TRUE(engine.Append(0, "t", MakeRows(10, 40)).ok());
  }
  std::string wal = WalPath();
  {
    std::fstream f(wal, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);  // inside the first record's payload
    char b = 0;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x20);
    f.seekp(40);
    f.write(&b, 1);
  }
  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDataLoss()) << s;
}

// A flipped bit in a checkpointed data block must surface as kDataLoss
// when the block is read — never as silently different rows.
TEST_F(StorageRecoveryTest, BitFlipInDataBlockIsDataLoss) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(100)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  std::vector<std::string> blocks = BlockPaths();
  ASSERT_FALSE(blocks.empty());
  {
    std::fstream f(blocks[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    uintmax_t size = fs::file_size(blocks[0]);
    std::streampos pos = static_cast<std::streamoff>(size / 2);
    char b = 0;
    f.seekg(pos);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x01);
    f.seekp(pos);
    f.write(&b, 1);
  }
  // Open succeeds (blocks are read lazily) but any read of the damaged
  // block is typed.
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  std::vector<Row> all;
  Status s = engine.ReadAll(0, "t", &all);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDataLoss()) << s;
}

// Deleting the manifest named by CURRENT orphans the live block set:
// recovery cannot tell what was live, so it must refuse with kDataLoss
// rather than guess.
TEST_F(StorageRecoveryTest, DeletedManifestIsDataLoss) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(10)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  bool removed = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("MANIFEST-", 0) == 0) {
      fs::remove(entry.path());
      removed = true;
    }
  }
  ASSERT_TRUE(removed);
  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDataLoss()) << s;
}

// ---------------------------------------------------------------------
// Randomized kill-point soak: the `storage.commit` failpoint sits at
// every commit site (each WAL append writes a torn prefix and fails;
// checkpoint dies between the new manifest and the CURRENT switch). A
// shadow map tracks exactly the acknowledged mutations; after every
// simulated crash, recovery must reconstruct the shadow byte-for-byte.
// ---------------------------------------------------------------------

using ShadowKey = std::pair<LocationId, std::string>;
using Shadow = std::map<ShadowKey, std::vector<Row>>;

void ExpectEngineEqualsShadow(StorageEngine& engine, const Shadow& shadow,
                              const std::string& context) {
  auto frags = engine.ListFragments();
  ASSERT_EQ(frags.size(), shadow.size()) << context;
  size_t i = 0;
  for (const auto& [key, want] : shadow) {
    ASSERT_LT(i, frags.size()) << context;
    EXPECT_EQ(frags[i].location, key.first) << context;
    EXPECT_EQ(frags[i].table, key.second) << context;
    ASSERT_EQ(frags[i].rows, want.size()) << context;
    std::vector<Row> got;
    ASSERT_TRUE(engine.ReadAll(key.first, key.second, &got).ok())
        << context;
    ASSERT_EQ(got.size(), want.size()) << context;
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_TRUE(RowsStructurallyEqual(got[r], want[r]))
          << context << " fragment " << key.first << "/" << key.second
          << " row " << r;
    }
    ++i;
  }
}

TEST_F(StorageRecoveryTest, KillPointSoakRecoversAcknowledgedState) {
  // Small blocks + aggressive auto-checkpoints so the soak exercises
  // flush and checkpoint paths, not just the log.
  StorageOptions options;
  options.block_target_bytes = 1024;
  options.wal_checkpoint_bytes = 4096;

  const std::vector<std::string> tables = {"alpha", "beta"};
  std::mt19937_64 rng(20260809);
  Shadow shadow;
  int crashes = 0;

  auto engine = std::make_unique<StorageEngine>();
  ASSERT_TRUE(engine->Open(dir_, options).ok());
  // Fire roughly every 7th commit-site evaluation, deterministically.
  Failpoints::ArmEveryN("storage.commit", 7);

  for (int op = 0; op < 400; ++op) {
    LocationId loc = static_cast<LocationId>(rng() % 2);
    const std::string& table = tables[rng() % tables.size()];
    int64_t n = static_cast<int64_t>(rng() % 30) + 1;  // single chunk
    int64_t base = static_cast<int64_t>(rng() % 1000);
    std::vector<Row> rows = MakeRows(n, base);

    Status s;
    int kind = static_cast<int>(rng() % 10);
    if (kind == 0) {
      s = engine->Checkpoint();  // logical no-op on success
    } else if (kind <= 3) {
      s = engine->Put(loc, table, rows);
      if (s.ok()) shadow[{loc, table}] = rows;
    } else {
      s = engine->Append(loc, table, rows);
      if (s.ok()) {
        auto& frag = shadow[{loc, table}];
        frag.insert(frag.end(), rows.begin(), rows.end());
      }
    }

    if (!s.ok()) {
      // The failpoint fired: the mutation was not acknowledged and the
      // writer is wounded, exactly like a crashed process. Recover.
      ++crashes;
      engine = std::make_unique<StorageEngine>();
      Failpoints::Disarm("storage.commit");
      ASSERT_TRUE(engine->Open(dir_, options).ok())
          << "recovery after crash #" << crashes << " (op " << op << ")";
      ExpectEngineEqualsShadow(*engine, shadow,
                               "after crash #" + std::to_string(crashes));
      Failpoints::ArmEveryN("storage.commit", 7);
    }
  }
  Failpoints::Disarm("storage.commit");
  EXPECT_GT(crashes, 10) << "the soak must actually exercise crashes";

  // Final clean restart: everything acknowledged survives end-to-end.
  engine = std::make_unique<StorageEngine>();
  ASSERT_TRUE(engine->Open(dir_, options).ok());
  ExpectEngineEqualsShadow(*engine, shadow, "final restart");
}

}  // namespace
}  // namespace storage
}  // namespace cgq
