#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "exec/spill_join.h"
#include "net/wire_protocol.h"
#include "storage/block.h"
#include "storage/format.h"
#include "storage/manifest.h"
#include "storage/wal.h"
#include "typed_batches.h"
#include "types/value.h"

namespace cgq {
namespace storage {
namespace {

namespace fs = std::filesystem;

class StorageEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("cgq-storage-test-" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "-" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()))
               .string();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  static Row MakeRow(int64_t i) {
    return {Value::Int64(i), Value::String("row-" + std::to_string(i)),
            Value::Double(i * 0.5)};
  }
  static std::vector<Row> MakeRows(int64_t n, int64_t base = 0) {
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) rows.push_back(MakeRow(base + i));
    return rows;
  }

  std::string dir_;
};

TEST_F(StorageEngineTest, BlockRoundTripColumnar) {
  std::vector<Row> rows = MakeRows(100);
  std::string bytes =
      EncodeBlockFile(vec::FromRows(rows.data(), rows.size(), 3))
          .ValueOrDie();
  auto back = DecodeBlockFile(bytes, "test block");
  ASSERT_TRUE(back.ok()) << back.status();
  std::vector<Row> got = vec::ToRowBatch(*back).rows;
  ASSERT_EQ(got.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(RowsStructurallyEqual(got[i], rows[i])) << i;
  }
}

std::vector<Row> RowsOf(const vec::ColumnBatch& batch) {
  return vec::ToRowBatch(batch).rows;
}

/// Bytes from a hex string (test fixtures).
std::string FromHex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Pins the block bytes. A 3-row block written by the encoder that
// predates the batch codec (format version 1, tagged values, FNV-1a)
// still decodes, with the tags FromRows infers — so stores written
// before the typed layout still open. Today's encoder writes the same
// rows as the pinned version-3 block: typed column arrays under
// Checksum64.
TEST_F(StorageEngineTest, GoldenBlockEncoding) {
  const std::string v1_hex =
      "43475142"            // magic "CGQB"
      "0100"                // format version 1
      "0100"                // kBlockColumnar
      "4a000000"            // payload length 74
      "2e453c406850318d"    // FNV-1a of the payload
      "03000000"            // 3 rows
      "03000000"            // 3 columns
      "010700000000000000"  // col 0: 7
      "00"                  //        NULL
      "01ffffffffffffffff"  //        -1
      "02000000000000e03f"  // col 1: 0.5
      "0200000000000002c0"  //        -2.25
      "02000000205fa00242"  //        1e10
      "03020000006162"      // col 2: "ab"
      "0300000000"          //        ""
      "030300000078797a";   //        "xyz"
  const std::string v1 = FromHex(v1_hex);
  ASSERT_EQ(v1.size(), kFrameHeaderSize + 74);

  const std::string v3_hex =
      "43475142"            // magic "CGQB"
      "0300"                // format version 3
      "0100"                // kBlockColumnar
      "57000000"            // payload length 87
      "08f1054161623304"    // Checksum64 of the payload
      "03000000"            // 3 rows
      "03000000"            // 3 columns
      "00"                  // col 0: int64
      "01"                  //        has NULLs
      "0200000000000000"    //        NULL word: row 1
      "0700000000000000"    //        7
      "0000000000000000"    //        NULL (zero)
      "ffffffffffffffff"    //        -1
      "01"                  // col 1: double
      "00"                  //        no NULLs
      "000000000000e03f"    //        0.5
      "00000000000002c0"    //        -2.25
      "000000205fa00242"    //        1e10
      "02"                  // col 2: string
      "00"                  //        no NULLs
      "020000000200000005000000"  // end offsets 2, 2, 5
      "616278797a";         //        "ab" "" "xyz"
  const std::string v3 = FromHex(v3_hex);
  ASSERT_EQ(v3.size(), kFrameHeaderSize + 87);

  const std::vector<Row> rows = {
      {Value::Int64(7), Value::Double(0.5), Value::String("ab")},
      {Value::Null(), Value::Double(-2.25), Value::String("")},
      {Value::Int64(-1), Value::Double(1e10), Value::String("xyz")},
  };
  std::string now =
      EncodeBlockFile(vec::FromRows(rows.data(), rows.size(), 3))
          .ValueOrDie();
  EXPECT_EQ(now, v3);

  for (const auto& [name, bytes] : {std::pair<const char*, std::string>{
                                        "v1 block", v1},
                                    {"v3 block", v3}}) {
    SCOPED_TRACE(name);
    auto back = DecodeBlockFile(bytes, name);
    ASSERT_TRUE(back.ok()) << back.status();
    ASSERT_EQ(back->NumColumns(), 3u);
    EXPECT_EQ(back->columns[0]->tag, vec::ColumnTag::kInt64);
    EXPECT_EQ(back->columns[0]->nulls.null_count(), 1);
    EXPECT_EQ(back->columns[1]->tag, vec::ColumnTag::kDouble);
    EXPECT_EQ(back->columns[2]->tag, vec::ColumnTag::kString);
    std::vector<Row> got = vec::ToRowBatch(*back).rows;
    ASSERT_EQ(got.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(RowsStructurallyEqual(got[i], rows[i])) << i;
    }
  }
}

// Format version 2 (tagged values under FNV-1a), pinned as the last
// release wrote it: one block, the manifest naming it and one
// commit-log record appended after the checkpoint.
const std::vector<Row>& V2BlockRows() {
  static const std::vector<Row> rows = {
      {Value::Int64(7), Value::Double(0.5), Value::String("ab")},
      {Value::Null(), Value::Double(-2.25), Value::String("")},
      {Value::Int64(-1), Value::Null(), Value::String("xyz")},
  };
  return rows;
}
const std::vector<Row>& V2WalRows() {
  static const std::vector<Row> rows = {
      {Value::Int64(8), Value::Double(1.5), Value::Null()},
  };
  return rows;
}
const char kV2BlockHex[] =
    "43475142" "0200" "0100" "42000000" "5b934adab95442d6"
    "03000000" "03000000"
    "010700000000000000" "00" "01ffffffffffffffff"        // col 0
    "02000000000000e03f" "0200000000000002c0" "00"        // col 1
    "03020000006162" "0300000000" "030300000078797a";    // col 2
const char kV2ManifestHex[] =
    "4347514d" "0200" "0000" "35000000" "b027d482add72f7c"
    "0200000000000000"  // manifest version 2
    "0200000000000000"  // commit log wal-2.log
    "0200000000000000"  // next block id 2
    "01000000"          // 1 fragment
    "02000000" "0100000074" "01000000"  // location 2, "t", 1 block
    "0100000000000000" "03000000";      // block 1, 3 rows
const char kV2WalHex[] =
    "4347514c" "0200" "0200" "24000000" "82093e1d695f7329"  // kAppend
    "02000000" "0100000074"                                 // location 2, "t"
    "01000000" "03000000"                                   // 1 row, 3 cols
    "010800000000000000" "02000000000000f83f" "00";         // 8, 1.5, NULL

// Each pinned version-2 frame decodes to the values it was written from.
TEST_F(StorageEngineTest, GoldenV2FramesDecode) {
  auto block = DecodeBlockFile(FromHex(kV2BlockHex), "v2 block");
  ASSERT_TRUE(block.ok()) << block.status();
  const std::vector<Row> block_rows = RowsOf(*block);
  ASSERT_EQ(block_rows.size(), V2BlockRows().size());
  for (size_t i = 0; i < block_rows.size(); ++i) {
    EXPECT_TRUE(RowsStructurallyEqual(block_rows[i], V2BlockRows()[i])) << i;
  }
  EXPECT_EQ(block->columns[1]->tag, vec::ColumnTag::kDouble);
  EXPECT_EQ(block->columns[1]->nulls.null_count(), 1);

  // A masked read decodes the legacy layout in full, then keeps the
  // marked columns.
  const vec::ColumnMask outer = {true, false, true};
  auto narrowed = DecodeBlockFile(FromHex(kV2BlockHex), "v2 block", &outer);
  ASSERT_TRUE(narrowed.ok()) << narrowed.status();
  ASSERT_EQ(narrowed->NumColumns(), 2u);
  ASSERT_EQ(narrowed->NumRows(), V2BlockRows().size());
  for (size_t i = 0; i < V2BlockRows().size(); ++i) {
    EXPECT_TRUE(RowsStructurallyEqual(
        RowsOf(*narrowed)[i], {V2BlockRows()[i][0], V2BlockRows()[i][2]}))
        << i;
  }

  auto manifest = Manifest::Decode(FromHex(kV2ManifestHex), "v2 manifest");
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->version, 2u);
  EXPECT_EQ(manifest->wal_version, 2u);
  EXPECT_EQ(manifest->next_block_id, 2u);
  ASSERT_EQ(manifest->fragments.size(), 1u);
  EXPECT_EQ(manifest->fragments[0].location, 2u);
  EXPECT_EQ(manifest->fragments[0].table, "t");
  ASSERT_EQ(manifest->fragments[0].blocks.size(), 1u);
  EXPECT_EQ(manifest->fragments[0].blocks[0].id, 1u);
  EXPECT_EQ(manifest->fragments[0].blocks[0].rows, 3u);

  fs::create_directories(dir_);
  const std::string wal_path = dir_ + "/wal-2.log";
  std::ofstream(wal_path, std::ios::binary) << FromHex(kV2WalHex);
  std::vector<WalRecord> records;
  auto replayed = ReplayWal(wal_path, [&](WalRecord rec) {
    records.push_back(std::move(rec));
    return Status::OK();
  });
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kAppend);
  EXPECT_EQ(records[0].location, 2u);
  EXPECT_EQ(records[0].table, "t");
  const std::vector<Row> wal_rows = RowsOf(records[0].batch);
  ASSERT_EQ(wal_rows.size(), 1u);
  EXPECT_TRUE(RowsStructurallyEqual(wal_rows[0], V2WalRows()[0]));
}

// A store directory the last release wrote (pinned version-2 files)
// reopens with every acknowledged row; scans equal the rows, and new
// writes land beside the old frames and survive another reopen.
TEST_F(StorageEngineTest, V2StoreReopens) {
  fs::create_directories(dir_);
  auto put = [&](const std::string& name, const std::string& bytes) {
    std::ofstream(dir_ + "/" + name, std::ios::binary) << bytes;
  };
  put("CURRENT", "MANIFEST-2\n");
  put("MANIFEST-2", FromHex(kV2ManifestHex));
  put("b1.blk", FromHex(kV2BlockHex));
  put("wal-2.log", FromHex(kV2WalHex));

  std::vector<Row> want = V2BlockRows();
  want.insert(want.end(), V2WalRows().begin(), V2WalRows().end());
  auto expect_rows = [&](const StorageEngine& engine) {
    std::vector<Row> all;
    ASSERT_TRUE(engine.ReadAll(2, "t", &all).ok());
    ASSERT_EQ(all.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(RowsStructurallyEqual(all[i], want[i])) << i;
    }
  };
  {
    StorageEngine engine;
    Status opened = engine.Open(dir_);
    ASSERT_TRUE(opened.ok()) << opened;
    EXPECT_EQ(engine.recovery_replays(), 1);
    expect_rows(engine);
    // A version-3 record after the version-2 one in the same log.
    const std::vector<Row> extra = {
        {Value::Int64(9), Value::Double(2.5), Value::String("new")}};
    ASSERT_TRUE(engine.Append(2, "t", extra).ok());
    want.push_back(extra[0]);
    expect_rows(engine);
  }
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  expect_rows(engine);
  ASSERT_TRUE(engine.Checkpoint().ok());
  expect_rows(engine);
}

// Ragged rows are stored as blocks of one width each: a Put of mixed
// widths round-trips through Checkpoint + ReadAll, and every block the
// engine wrote is a single-width columnar block.
TEST_F(StorageEngineTest, RaggedRowsRoundTripAsSingleWidthBlocks) {
  const std::vector<Row> rows = {{Value::Int64(1)},
                                 {Value::Int64(2), Value::String("x")},
                                 {Value::Int64(3), Value::String("y")},
                                 {},
                                 {},
                                 {Value::Double(4.5)}};
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", rows).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    EXPECT_EQ(engine.blocks_written(), 4);
    // The same rows in a fragment that lives only in the commit log.
    ASSERT_TRUE(engine.Put(1, "r", rows).ok());
  }
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() != ".blk") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GE(bytes.size(), kFrameHeaderSize);
    EXPECT_EQ(bytes[6], static_cast<char>(kBlockColumnar)) << entry.path();
  }

  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  for (auto [location, table] : {std::pair<LocationId, const char*>{0, "t"},
                                 {1, "r"}}) {
    std::vector<Row> all;
    ASSERT_TRUE(engine.ReadAll(location, table, &all).ok());
    ASSERT_EQ(all.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(RowsStructurallyEqual(all[i], rows[i])) << table << i;
    }
  }
}

// A commit log written before the batch codec (format version 1) held
// rows: Open refuses it with a typed error naming the file, instead of
// misparsing its records.
TEST_F(StorageEngineTest, V1CommitLogIsRefused) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(3)).ok());
  }
  const std::string wal = (fs::path(dir_) / "wal-1.log").string();
  {
    std::fstream f(wal, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(4);  // the first record's format version
    f.put(0x01);
  }
  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnsupported()) << s;
  EXPECT_NE(s.message().find("wal-1.log"), std::string::npos) << s;
}

// A block in the row-major form older stores wrote for ragged rows is
// refused with a typed error, never decoded into rows.
TEST_F(StorageEngineTest, RowMajorBlockIsRefused) {
  std::string bytes =
      EncodeFileFrame(kBlockMagic, /*type=*/0, std::string(4, '\0'))
          .ValueOrDie();
  auto back = DecodeBlockFile(bytes, "row-major block");
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsUnsupported()) << back.status();
}

TEST_F(StorageEngineTest, BlockChecksumMismatchIsDataLoss) {
  std::vector<Row> rows = MakeRows(10);
  std::string bytes =
      EncodeBlockFile(vec::FromRows(rows.data(), rows.size(), 3))
          .ValueOrDie();
  bytes[bytes.size() - 1] ^= 0x40;  // flip one payload bit
  auto back = DecodeBlockFile(bytes, "corrupt block");
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsDataLoss()) << back.status();
}

// What a decoder yielded: the rows of each frame it decoded.
using Records = std::vector<std::vector<Row>>;

/// One artifact of outside bytes and the decoder that reads it.
struct DecoderCase {
  std::string name;
  std::string bytes;    ///< the complete artifact
  std::string payload;  ///< its first frame's payload
  /// Frames a payload as `bytes` is framed, with a valid checksum.
  std::function<std::string(const std::string&)> reframe;
  std::function<Result<Records>(const std::string&)> decode;
  Records expected;
  /// A stream of frames: a cut between frames reads as fewer frames.
  bool stream = false;
};

/// Re-frames `payload` under the magic and type of file frame `frame`.
std::string ReframeFile(const std::string& frame, const std::string& payload) {
  wire::Reader r(frame);
  const uint32_t magic = r.U32().ValueOrDie();
  r.U16().ValueOrDie();  // version
  const uint16_t type = r.U16().ValueOrDie();
  return EncodeFileFrame(magic, type, payload).ValueOrDie();
}

/// A complete wire frame decoded as its receiver decodes it: the
/// expected type, the whole length present, the checksum, the payload.
Result<Records> DecodeWireFrame(wire::FrameType type,
                                const std::string& bytes) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  CGQ_ASSIGN_OR_RETURN(wire::FrameHeader header,
                       wire::DecodeFrameHeader(data, bytes.size()));
  if (header.type != static_cast<uint16_t>(type)) {
    return Status::InvalidArgument("unexpected frame type");
  }
  if (bytes.size() != wire::kHeaderSize + header.payload_len) {
    return Status::InvalidArgument("truncated frame");
  }
  CGQ_RETURN_NOT_OK(wire::VerifyPayload(header, data + wire::kHeaderSize));
  const std::string payload = bytes.substr(wire::kHeaderSize);
  if (type == wire::FrameType::kInputBatch) {
    CGQ_ASSIGN_OR_RETURN(wire::InputBatch in,
                         wire::InputBatch::Decode(payload));
    return Records{RowsOf(in.batch)};
  }
  if (type == wire::FrameType::kOutputBatch) {
    CGQ_ASSIGN_OR_RETURN(wire::OutputBatch out,
                         wire::OutputBatch::Decode(payload));
    return Records{RowsOf(out.batch)};
  }
  CGQ_ASSIGN_OR_RETURN(wire::LoadTable load, wire::LoadTable::Decode(payload));
  return Records{RowsOf(load.batch)};
}

bool SameRecords(const Records& got, const Records& want, size_t frames) {
  for (size_t f = 0; f < frames; ++f) {
    if (got[f].size() != want[f].size()) return false;
    for (size_t i = 0; i < got[f].size(); ++i) {
      if (!RowsStructurallyEqual(got[f][i], want[f][i])) return false;
    }
  }
  return true;
}

bool IsTypedError(const Status& s) {
  return s.IsDataLoss() || s.IsInvalidArgument() || s.IsUnsupported();
}

// Every decoder of bytes from outside the process — a block file, a
// commit-log file, a spill frame, complete InputBatch / OutputBatch /
// LoadTable wire frames, and each of their payloads — fails with a typed
// error on every strict prefix and on every bit flip inside a
// checksummed frame; none crashes or yields a batch. The exception is a
// stream of frames: a commit log cut anywhere replays its complete
// records and stops (its torn tail, DESIGN.md §16), a flipped length
// field reads like such a cut, and an empty spill file holds no frames.
// Such a read yields fewer frames than were written, each unchanged.
TEST_F(StorageEngineTest, ByteDecodersRefuseTruncationAndBitFlips) {
  // Every column form of the typed layout: int64 with a NULL, double,
  // string with an empty value, a mixed (value) column and an all-NULL
  // one.
  const std::vector<Row> rows = {
      {Value::Int64(7), Value::Double(0.5), Value::String("ab"),
       Value::Int64(1), Value::Null()},
      {Value::Null(), Value::Double(-2.25), Value::String(""),
       Value::String("m"), Value::Null()},
  };
  const vec::ColumnBatch batch =
      vec::FromRows(RowLayout({1, 2, 3, 4, 5}), rows).ValueOrDie();
  ASSERT_EQ(batch.columns[3]->tag, vec::ColumnTag::kValue);
  fs::create_directories(dir_);
  const std::string scratch = dir_ + "/bytes";
  auto write_scratch = [&](const std::string& bytes) {
    std::ofstream(scratch, std::ios::binary | std::ios::trunc) << bytes;
  };
  std::vector<DecoderCase> cases;

  DecoderCase block;
  block.name = "block file";
  block.bytes = EncodeBlockFile(batch).ValueOrDie();
  block.decode = [](const std::string& bytes) -> Result<Records> {
    CGQ_ASSIGN_OR_RETURN(vec::ColumnBatch b, DecodeBlockFile(bytes, "block"));
    return Records{RowsOf(b)};
  };
  block.expected = {rows};
  cases.push_back(block);

  WalRecord put;
  put.location = 1;
  put.table = "t";
  put.batch = batch;
  WalRecord append = put;
  append.type = WalRecordType::kAppend;
  DecoderCase wal;
  wal.name = "commit-log file";
  const std::string first_record = EncodeWalRecord(put).ValueOrDie();
  wal.bytes = first_record + EncodeWalRecord(append).ValueOrDie();
  wal.payload = first_record.substr(kFrameHeaderSize);
  wal.reframe = [first_record](const std::string& payload) {
    return ReframeFile(first_record, payload);
  };
  wal.decode = [&](const std::string& bytes) -> Result<Records> {
    write_scratch(bytes);
    Records out;
    auto replay = [&](WalRecord rec) {
      out.push_back(RowsOf(rec.batch));
      return Status::OK();
    };
    CGQ_RETURN_NOT_OK(ReplayWal(scratch, replay).status());
    return out;
  };
  wal.expected = {rows, rows};
  wal.stream = true;
  cases.push_back(wal);

  // A probe frame: the batch plus each row's probe ordinal.
  std::vector<Row> probe = rows;
  probe[0].push_back(Value::Int64(5));
  probe[1].push_back(Value::Int64(9));
  DecoderCase spill;
  spill.name = "spill frame";
  spill.bytes =
      exec_internal::EncodeSpillFrame(vec::FromRows(probe.data(), 2, 6))
          .ValueOrDie();
  spill.decode = [&](const std::string& bytes) -> Result<Records> {
    write_scratch(bytes);
    Records out;
    auto collect = [&](vec::ColumnBatch b) {
      out.push_back(RowsOf(b));
      return Status::OK();
    };
    CGQ_RETURN_NOT_OK(exec_internal::ForEachSpillFrame(scratch, collect));
    return out;
  };
  spill.expected = {probe};
  spill.stream = true;
  cases.push_back(spill);

  wire::InputBatch in;
  in.channel = 3;
  in.batch = batch;
  wire::OutputBatch out;
  out.batch = batch;
  wire::LoadTable load;
  load.location = 1;
  load.table = "t";
  load.batch = batch;
  const std::pair<wire::FrameType, std::string> frames[] = {
      {wire::FrameType::kInputBatch, in.Encode()},
      {wire::FrameType::kOutputBatch, out.Encode()},
      {wire::FrameType::kLoadTable, load.Encode()},
  };
  for (const auto& [type, payload] : frames) {
    DecoderCase c;
    c.name = std::string(wire::FrameTypeToString(type)) + " frame";
    c.bytes = wire::EncodeFrame(type, payload);
    c.payload = payload;
    c.reframe = [type = type](const std::string& p) {
      return wire::EncodeFrame(type, p);
    };
    c.decode = [type = type](const std::string& bytes) {
      return DecodeWireFrame(type, bytes);
    };
    c.expected = {rows};
    cases.push_back(c);
  }

  for (DecoderCase& c : cases) {
    SCOPED_TRACE(c.name);
    if (c.payload.empty()) c.payload = c.bytes.substr(kFrameHeaderSize);
    if (!c.reframe) {
      const std::string frame = c.bytes;
      c.reframe = [frame](const std::string& payload) {
        return ReframeFile(frame, payload);
      };
    }
    Result<Records> full = c.decode(c.bytes);
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_EQ(full->size(), c.expected.size());
    ASSERT_TRUE(SameRecords(*full, c.expected, c.expected.size()));

    auto refused = [&](const std::string& bytes, const std::string& what) {
      Result<Records> got = c.decode(bytes);
      if (!got.ok()) {
        EXPECT_TRUE(IsTypedError(got.status())) << what << ": "
                                                << got.status();
        return;
      }
      ASSERT_TRUE(c.stream) << what << " decoded";
      ASSERT_LT(got->size(), c.expected.size()) << what;
      EXPECT_TRUE(SameRecords(*got, c.expected, got->size())) << what;
    };
    for (size_t cut = 0; cut < c.bytes.size(); ++cut) {
      refused(c.bytes.substr(0, cut), "prefix of " + std::to_string(cut));
    }
    for (size_t i = 0; i < c.bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = c.bytes;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        const std::string what = "bit " + std::to_string(bit);
        refused(flipped, what + " of byte " + std::to_string(i));
      }
    }
    // The payload decoder alone, on every strict prefix of the payload
    // in a frame whose checksum is valid.
    for (size_t cut = 0; cut < c.payload.size(); ++cut) {
      Result<Records> got = c.decode(c.reframe(c.payload.substr(0, cut)));
      ASSERT_FALSE(got.ok()) << "payload prefix of " << cut << " decoded";
      EXPECT_TRUE(IsTypedError(got.status())) << got.status();
    }
  }
}

// Typed-layout payloads under a valid checksum whose bodies are
// malformed are refused before anything is sized by them: kDataLoss
// from every file frame, kInvalidArgument from the wire.
TEST_F(StorageEngineTest, TypedLayoutRefusesMalformedBodies) {
  auto header = [](uint32_t rows, uint32_t cols) {
    wire::Writer w;
    w.PutU32(rows);
    w.PutU32(cols);
    return w;
  };
  std::vector<std::pair<std::string, std::string>> bodies;
  {
    wire::Writer w = header(2, 1);
    w.PutU8(4);  // no such tag
    w.PutU8(0);
    for (int i = 0; i < 16; ++i) w.PutU8(0);
    bodies.emplace_back("unknown tag", w.Take());
  }
  {
    wire::Writer w = header(2, 1);
    w.PutU8(0);
    w.PutU8(2);  // no such flag
    for (int i = 0; i < 16; ++i) w.PutU8(0);
    bodies.emplace_back("unknown flag", w.Take());
  }
  {
    wire::Writer w = header(2, 1);
    w.PutU8(3);  // value column
    w.PutU8(1);  // NULL words are inline in tagged values
    w.PutU64(0);
    w.PutValue(Value::Int64(1));
    w.PutValue(Value::Int64(2));
    bodies.emplace_back("value column with NULL words", w.Take());
  }
  {
    wire::Writer w = header(2, 1);
    w.PutU8(2);  // string
    w.PutU8(0);
    w.PutU32(3);
    w.PutU32(2);  // decreasing end offset
    for (char c : std::string("abc")) w.PutU8(static_cast<uint8_t>(c));
    bodies.emplace_back("decreasing string offsets", w.Take());
  }
  {
    wire::Writer w = header(2, 1);
    w.PutU8(2);
    w.PutU8(0);
    w.PutU32(1);
    w.PutU32(9);  // past the 3 string bytes
    for (char c : std::string("abc")) w.PutU8(static_cast<uint8_t>(c));
    bodies.emplace_back("string offset past the end", w.Take());
  }
  {
    wire::Writer w = header(2, 1);
    w.PutU8(0);
    w.PutU8(1);
    w.PutU64(uint64_t{1} << 5);  // row 5 of a 2-row column
    w.PutU64(0);
    w.PutU64(0);
    bodies.emplace_back("NULL bit past the rows", w.Take());
  }
  {
    wire::Writer w = header(2, 1);
    w.PutU8(1);  // double
    w.PutU8(0);
    w.PutU64(0);  // one of two values
    for (int i = 0; i < 4; ++i) w.PutU8(0);
    bodies.emplace_back("rows x 8 beyond the payload", w.Take());
  }
  {
    wire::Writer w = header(0xffffffffu, 1);
    w.PutU8(0);
    w.PutU8(0);
    w.PutU64(7);
    bodies.emplace_back("2^32-1 rows", w.Take());
  }
  fs::create_directories(dir_);
  const std::string scratch = dir_ + "/frames";
  for (const auto& [name, body] : bodies) {
    SCOPED_TRACE(name);
    wire::Reader r(body);
    Result<vec::ColumnBatch> wire_batch = r.ReadColumns();
    ASSERT_FALSE(wire_batch.ok());
    EXPECT_TRUE(wire_batch.status().IsInvalidArgument())
        << wire_batch.status();

    wire::Writer out;
    out.PutU32(1);  // 1 attr
    out.PutU32(7);
    const std::string out_payload = out.Take() + body;
    auto out_frame = wire::OutputBatch::Decode(out_payload);
    ASSERT_FALSE(out_frame.ok());
    EXPECT_TRUE(out_frame.status().IsInvalidArgument()) << out_frame.status();

    const std::string block_file =
        EncodeFileFrame(kBlockMagic, kBlockColumnar, body).ValueOrDie();
    auto block = DecodeBlockFile(block_file, "block");
    ASSERT_FALSE(block.ok());
    EXPECT_TRUE(block.status().IsDataLoss()) << block.status();
    // Refused alike when a mask skips the malformed column.
    for (const vec::ColumnMask& keep :
         {vec::ColumnMask{false}, vec::ColumnMask{true}}) {
      SCOPED_TRACE(keep[0] ? "kept" : "skipped");
      wire::Reader masked(body);
      Result<vec::ColumnBatch> masked_batch = masked.ReadColumns(&keep);
      ASSERT_FALSE(masked_batch.ok());
      EXPECT_TRUE(masked_batch.status().IsInvalidArgument())
          << masked_batch.status();
      auto masked_block = DecodeBlockFile(block_file, "block", &keep);
      ASSERT_FALSE(masked_block.ok());
      EXPECT_TRUE(masked_block.status().IsDataLoss()) << masked_block.status();
    }

    wire::Writer rec;
    rec.PutU32(1);
    rec.PutString("t");
    std::ofstream(scratch, std::ios::binary | std::ios::trunc)
        << EncodeFileFrame(kWalMagic,
                           static_cast<uint16_t>(WalRecordType::kPut),
                           rec.Take() + body)
               .ValueOrDie();
    auto replayed =
        ReplayWal(scratch, [](WalRecord) { return Status::OK(); });
    ASSERT_FALSE(replayed.ok());
    EXPECT_TRUE(replayed.status().IsDataLoss()) << replayed.status();

    std::ofstream(scratch, std::ios::binary | std::ios::trunc)
        << EncodeFileFrame(kSpillMagic, /*type=*/1, body).ValueOrDie();
    Status spilled = exec_internal::ForEachSpillFrame(
        scratch, [](vec::ColumnBatch) { return Status::OK(); });
    ASSERT_FALSE(spilled.ok());
    EXPECT_TRUE(spilled.IsDataLoss()) << spilled;
  }
}

// A masked decode returns exactly the kept columns of a full decode,
// cell for cell, over the seeded batches of every column form (dense
// and filtered; NULL, all-NULL, string and mixed columns): random masks
// plus the empty and the full one. Keeping no column keeps the rows.
TEST_F(StorageEngineTest, MaskedDecodeKeepsExactlyTheMarkedColumns) {
  int masks = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    const SeededBatch seeded = MakeSeededBatch(seed);
    const size_t num_cols = seeded.kinds.size();
    const std::string file = EncodeBlockFile(seeded.batch).ValueOrDie();
    auto full = DecodeBlockFile(file, "block");
    ASSERT_TRUE(full.ok()) << "seed " << seed << ": " << full.status();
    ASSERT_EQ(full->NumColumns(), num_cols);

    std::mt19937_64 rng(seed * 7919);
    std::vector<vec::ColumnMask> keeps = {vec::ColumnMask(num_cols, false),
                                          vec::ColumnMask(num_cols, true)};
    for (int k = 0; k < 4; ++k) {
      vec::ColumnMask keep(num_cols);
      for (size_t c = 0; c < num_cols; ++c) keep[c] = rng() % 2 == 0;
      keeps.push_back(std::move(keep));
    }
    for (const vec::ColumnMask& keep : keeps) {
      std::string name = "seed " + std::to_string(seed) + " mask ";
      for (bool b : keep) name += b ? '1' : '0';
      SCOPED_TRACE(name);
      wire::Writer w;
      w.PutColumns(seeded.batch);
      wire::Reader r(w.buffer());
      auto read = r.ReadColumns(&keep);
      ASSERT_TRUE(read.ok()) << read.status();
      EXPECT_TRUE(r.AtEnd());
      auto block = DecodeBlockFile(file, "block", &keep);
      ASSERT_TRUE(block.ok()) << block.status();
      for (const vec::ColumnBatch* got : {&*read, &*block}) {
        EXPECT_EQ(got->NumRows(), seeded.want.NumRows());
        size_t k = 0;
        for (size_t c = 0; c < num_cols; ++c) {
          if (!keep[c]) continue;
          ASSERT_LT(k, got->NumColumns());
          ExpectSameColumn(*got->columns[k++], *full->columns[c],
                           "col " + std::to_string(c));
        }
        EXPECT_EQ(k, got->NumColumns());
      }
      ++masks;
    }
  }
  EXPECT_EQ(masks, 120 * 6);
}

// A mask wider or narrower than the stored batch is refused, never
// applied to the wrong columns: by the reader, by the block decoder in
// both layouts (kInvalidArgument, not kDataLoss: the bytes are intact),
// and by a cursor over blocks and over the unflushed tail.
TEST_F(StorageEngineTest, MaskOfAnotherWidthIsRefused) {
  const std::vector<Row> rows = MakeRows(10);
  const vec::ColumnBatch batch = vec::FromRows(rows.data(), rows.size(), 3);
  const std::string v3_file = EncodeBlockFile(batch).ValueOrDie();
  for (const vec::ColumnMask& keep :
       {vec::ColumnMask{true, true}, vec::ColumnMask{true, false, true, true},
        vec::ColumnMask{}}) {
    SCOPED_TRACE(std::to_string(keep.size()) + " columns");
    wire::Writer w;
    w.PutColumns(batch);
    wire::Reader r(w.buffer());
    auto read = r.ReadColumns(&keep);
    ASSERT_FALSE(read.ok());
    EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status();
    for (const std::string& file : {v3_file, FromHex(kV2BlockHex)}) {
      auto block = DecodeBlockFile(file, "block", &keep);
      ASSERT_FALSE(block.ok());
      EXPECT_TRUE(block.status().IsInvalidArgument()) << block.status();
    }
  }

  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  ASSERT_TRUE(engine.Put(0, "t", rows).ok());
  ASSERT_TRUE(engine.Checkpoint().ok());      // one block ...
  ASSERT_TRUE(engine.Append(0, "t", rows).ok());  // ... then a tail run
  const vec::ColumnMask wide = {true, false, true, false};
  auto cursor = engine.Scan(0, "t", &wide);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  vec::ColumnBatch chunk;
  auto from_block = cursor->Next(&chunk);
  ASSERT_FALSE(from_block.ok());
  EXPECT_TRUE(from_block.status().IsInvalidArgument()) << from_block.status();
  auto from_tail = cursor->Next(&chunk);
  ASSERT_FALSE(from_tail.ok());
  EXPECT_TRUE(from_tail.status().IsInvalidArgument()) << from_tail.status();
}

// A masked cursor yields the marked columns of every block and of the
// unflushed tail, with the rows and block count of a full scan.
TEST_F(StorageEngineTest, MaskedScanNarrowsBlocksAndTail) {
  StorageOptions options;
  options.block_target_bytes = 256;  // force many blocks
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_, options).ok());
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(200)).ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  ASSERT_TRUE(engine.Append(0, "t", MakeRows(20, 200)).ok());

  const vec::ColumnMask keep = {false, true, true};
  auto cursor = engine.Scan(0, "t", &keep);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  std::vector<Row> all;
  vec::ColumnBatch chunk;
  while (true) {
    auto more = cursor->Next(&chunk);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    ASSERT_EQ(chunk.NumColumns(), 2u);
    for (Row& r : vec::ToRowBatch(chunk).rows) all.push_back(std::move(r));
  }
  EXPECT_EQ(cursor->blocks_read(), engine.blocks_written());
  ASSERT_EQ(all.size(), 220u);
  for (int64_t i = 0; i < 220; ++i) {
    const Row full = MakeRow(i);
    EXPECT_TRUE(RowsStructurallyEqual(all[static_cast<size_t>(i)],
                                      {full[1], full[2]}))
        << i;
  }
}

TEST_F(StorageEngineTest, ManifestRoundTrip) {
  Manifest m;
  m.version = 7;
  m.wal_version = 9;
  m.next_block_id = 42;
  m.fragments.push_back(
      ManifestFragment{2, "orders", {{1, 100}, {5, 23}}});
  m.fragments.push_back(ManifestFragment{3, "customer", {}});
  auto back = Manifest::Decode(m.Encode().ValueOrDie(), "test manifest");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->version, 7u);
  EXPECT_EQ(back->wal_version, 9u);
  EXPECT_EQ(back->next_block_id, 42u);
  ASSERT_EQ(back->fragments.size(), 2u);
  EXPECT_EQ(back->fragments[0].table, "orders");
  ASSERT_EQ(back->fragments[0].blocks.size(), 2u);
  EXPECT_EQ(back->fragments[0].blocks[1].id, 5u);
  EXPECT_EQ(back->fragments[0].blocks[1].rows, 23u);
}

TEST_F(StorageEngineTest, PutAppendScanRoundTrip) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(50)).ok());
  ASSERT_TRUE(engine.Append(0, "t", MakeRows(25, 50)).ok());
  auto n = engine.FragmentRows(0, "t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 75u);

  std::vector<Row> all;
  ASSERT_TRUE(engine.ReadAll(0, "t", &all).ok());
  ASSERT_EQ(all.size(), 75u);
  for (int64_t i = 0; i < 75; ++i) {
    EXPECT_TRUE(
        RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)))
        << i;
  }
}

TEST_F(StorageEngineTest, RecoveryAfterCleanClose) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(1, "a", MakeRows(30)).ok());
    ASSERT_TRUE(engine.Put(2, "b", MakeRows(10, 100)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    // Mutations after the checkpoint live only in the commit log.
    ASSERT_TRUE(engine.Append(1, "a", MakeRows(5, 30)).ok());
  }
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  EXPECT_GT(engine.recovery_replays(), 0);
  auto frags = engine.ListFragments();
  ASSERT_EQ(frags.size(), 2u);
  EXPECT_EQ(frags[0].table, "a");
  EXPECT_EQ(frags[0].rows, 35u);
  EXPECT_EQ(frags[1].rows, 10u);
  std::vector<Row> all;
  ASSERT_TRUE(engine.ReadAll(1, "a", &all).ok());
  ASSERT_EQ(all.size(), 35u);
  for (int64_t i = 0; i < 35; ++i) {
    EXPECT_TRUE(
        RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)));
  }
}

TEST_F(StorageEngineTest, PutReplacesAcrossRestart) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(40)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(3, 1000)).ok());
  }
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  std::vector<Row> all;
  ASSERT_TRUE(engine.ReadAll(0, "t", &all).ok());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_TRUE(RowsStructurallyEqual(all[0], MakeRow(1000)));
}

TEST_F(StorageEngineTest, SmallBlocksStreamThroughCursor) {
  StorageOptions options;
  options.block_target_bytes = 256;  // force many blocks
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_, options).ok());
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(200)).ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  EXPECT_GT(engine.blocks_written(), 1);

  auto cursor = engine.Scan(0, "t");
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  std::vector<Row> all;
  vec::ColumnBatch chunk;
  while (true) {
    auto more = cursor->Next(&chunk);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    for (Row& r : vec::ToRowBatch(chunk).rows) all.push_back(std::move(r));
  }
  EXPECT_GT(cursor->blocks_read(), 1);
  ASSERT_EQ(all.size(), 200u);
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(
        RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)));
  }
}

TEST_F(StorageEngineTest, AutoCheckpointRotatesLog) {
  StorageOptions options;
  options.block_target_bytes = 512;
  options.wal_checkpoint_bytes = 2048;  // checkpoint after ~2KB of log
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_, options).ok());
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.Append(0, "t", MakeRows(10, i * 10)).ok());
  }
  // At least one automatic checkpoint must have rotated the commit log.
  bool found_later_wal = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name != "wal-1.log") {
      found_later_wal = true;
    }
  }
  EXPECT_TRUE(found_later_wal);
  auto n = engine.FragmentRows(0, "t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 200u);
}

TEST_F(StorageEngineTest, MissingCurrentOverLiveBlocksIsDataLoss) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(10)).ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  fs::remove(fs::path(dir_) / "CURRENT");
  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDataLoss()) << s;
}

TEST_F(StorageEngineTest, PartialFlushFailureKeepsFragmentConsistent) {
  StorageOptions options;
  options.block_target_bytes = 256;  // a flush cuts many blocks
  options.wal_checkpoint_bytes = 0;  // no automatic checkpoints
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_, options).ok());
  // The flush's second block write fails mid-way: the flushed prefix is
  // in blocks, the remainder must still be intact in the tail — and the
  // Put stays acknowledged (its rows are in the commit log).
  Failpoints::ArmEveryN("storage.flush", 2);
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(200)).ok());
  Failpoints::DisarmAll();

  auto n = engine.FragmentRows(0, "t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 200u);
  std::vector<Row> all;
  ASSERT_TRUE(engine.ReadAll(0, "t", &all).ok());
  ASSERT_EQ(all.size(), 200u);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)))
        << i;
  }

  // A later successful checkpoint persists exactly these rows.
  ASSERT_TRUE(engine.Checkpoint().ok());
  StorageEngine reopened;
  ASSERT_TRUE(reopened.Open(dir_, options).ok());
  ASSERT_TRUE(reopened.ReadAll(0, "t", &all).ok());
  ASSERT_EQ(all.size(), 200u);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        RowsStructurallyEqual(all[static_cast<size_t>(i)], MakeRow(i)))
        << i;
  }
}

TEST_F(StorageEngineTest, InterruptedFreshInitIsRestartable) {
  // A kill between a fresh store's first manifest / commit-log writes
  // and the CURRENT pointer leaves only benign leftovers; Open must
  // restart the init instead of typing the empty store as data loss.
  std::error_code ec;
  fs::create_directories(dir_, ec);
  Manifest fresh;
  fresh.version = 1;
  fresh.wal_version = 1;
  std::ofstream(fs::path(dir_) / "MANIFEST-1", std::ios::binary)
      << fresh.Encode().ValueOrDie();
  std::ofstream(fs::path(dir_) / "wal-1.log", std::ios::binary);  // empty

  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_TRUE(engine.Put(0, "t", MakeRows(5)).ok());
  auto n = engine.FragmentRows(0, "t");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
}

TEST_F(StorageEngineTest, MissingCurrentOverNonEmptyLogIsDataLoss) {
  {
    StorageEngine engine;
    ASSERT_TRUE(engine.Open(dir_).ok());
    // No checkpoint: the rows live only in the commit log.
    ASSERT_TRUE(engine.Put(0, "t", MakeRows(10)).ok());
  }
  fs::remove(fs::path(dir_) / "CURRENT");
  StorageEngine engine;
  Status s = engine.Open(dir_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDataLoss()) << s;
}

TEST_F(StorageEngineTest, ScanOfMissingFragmentIsNotFound) {
  StorageEngine engine;
  ASSERT_TRUE(engine.Open(dir_).ok());
  auto cursor = engine.Scan(0, "nope");
  ASSERT_FALSE(cursor.ok());
  EXPECT_TRUE(cursor.status().IsNotFound());
}

}  // namespace
}  // namespace storage
}  // namespace cgq
