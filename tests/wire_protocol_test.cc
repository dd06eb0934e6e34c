// Unit tests of the deployment layer's wire protocol (src/net): frame
// round-trips of every type, rejection of truncated / oversized /
// corrupted frames with typed errors, the version-mismatch handshake
// refusal, and endianness-stable golden byte encodings that pin the
// on-wire format across platforms and releases.

#include "net/wire_protocol.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "exec/fragmenter.h"
#include "exec/vector/column_batch.h"
#include "gtest/gtest.h"
#include "plan/plan_node.h"
#include "typed_batches.h"

namespace cgq {
namespace wire {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

const uint8_t* Data(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

Result<FrameHeader> Header(const std::string& frame) {
  return DecodeFrameHeader(Data(frame), frame.size());
}

TEST(WireFrame, GoldenHelloFrame) {
  std::string frame = EncodeFrame(FrameType::kHello, Hello().Encode());
  ASSERT_EQ(frame.size(), kHeaderSize + 2);
  const std::vector<uint8_t> expected = {
      'C',  'G',  'Q',  'W',                           // magic 0x57514743
      0x06, 0x00,                                      // version 6
      0x01, 0x00,                                      // type kHello
      0x02, 0x00, 0x00, 0x00,                          // payload length 2
      0x19, 0xdc, 0xdc, 0xec, 0x4b, 0x8a, 0x8e, 0x35,  // Checksum64
      0x06, 0x00,                                      // payload: v6
  };
  EXPECT_EQ(Bytes(frame), expected);
  const uint8_t payload[] = {0x06, 0x00};
  EXPECT_EQ(Checksum64(payload, 2), 0x358e8a4becdcdc19ull);
}

/// A 2-column batch over 4 rows narrowed to rows {0, 2, 3}: an int64
/// column with a NULL and a string column with a NULL.
vec::ColumnBatch FilteredBatch() {
  std::vector<Row> rows = {
      {Value::Int64(5), Value::String("a")},
      {Value::Int64(6), Value::String("zz")},
      {Value::Null(), Value::String("bc")},
      {Value::Int64(-1), Value::Null()},
  };
  vec::ColumnBatch b = vec::FromRows(RowLayout({7, 9}), rows).ValueOrDie();
  b.sel = {0, 2, 3};
  return b;
}

TEST(WireFrame, GoldenBatchEncoding) {
  Writer w;
  w.PutBatch(FilteredBatch());
  // The attrs, then the batch codec: per column its tag, its NULL words
  // and its typed array, over the selected rows only (row 1 is not
  // encoded).
  const std::vector<uint8_t> expected = {
      0x02, 0x00, 0x00, 0x00,                          // 2 attrs
      0x07, 0x00, 0x00, 0x00,                          // attr 7
      0x09, 0x00, 0x00, 0x00,                          // attr 9
      0x03, 0x00, 0x00, 0x00,                          // 3 rows
      0x02, 0x00, 0x00, 0x00,                          // 2 columns
      0x00, 0x01,                                      // col 0: int64, NULLs
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   NULL word: row 1
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   NULL
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //   -1
      0x02, 0x01,                                      // col 1: string, NULLs
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   NULL word: row 2
      0x01, 0x00, 0x00, 0x00,                          //   ends: 1,
      0x03, 0x00, 0x00, 0x00,                          //         3,
      0x03, 0x00, 0x00, 0x00,                          //         3 (NULL)
      'a',  'b',  'c',                                 //   "a" "bc"
  };
  EXPECT_EQ(Bytes(w.buffer()), expected);

  // Decoding yields the dense batch of the selected rows, with the
  // column tags FromRows infers.
  Reader r(w.buffer());
  auto decoded = r.ReadBatch();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->layout.attrs(), (std::vector<AttrId>{7, 9}));
  EXPECT_EQ(decoded->sel, vec::RangeSel(0, 3));
  EXPECT_EQ(decoded->columns[0]->tag, vec::ColumnTag::kInt64);
  EXPECT_EQ(decoded->columns[1]->tag, vec::ColumnTag::kString);
  RowBatch want = vec::ToRowBatch(FilteredBatch());
  RowBatch got = vec::ToRowBatch(*decoded);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t i = 0; i < want.rows.size(); ++i) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_TRUE(got.rows[i][c].StructurallyEquals(want.rows[i][c]))
          << "row " << i << " col " << c;
    }
  }
}

// A row count the payload cannot hold (every value is at least its tag
// byte) is refused before anything is allocated for it.
TEST(WireFrame, OversizedRowCountRejected) {
  Writer w;
  w.PutU32(1);            // 1 attr
  w.PutU32(7);            // attr 7
  w.PutU32(0xffffffffu);  // 4G rows
  w.PutU32(1);            // 1 column
  w.PutValue(Value::Int64(1));
  Reader r(w.buffer());
  auto decoded = r.ReadBatch();
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());

  // A zero-width batch carries no values; its row count is capped at
  // what fits the payload limit, and a small one round-trips.
  Writer zero;
  zero.PutU32(0);            // no attrs
  zero.PutU32(0xffffffffu);  // 4G rows
  zero.PutU32(0);            // no columns
  Reader rz(zero.buffer());
  auto huge = rz.ReadBatch();
  ASSERT_FALSE(huge.ok());
  EXPECT_TRUE(huge.status().IsInvalidArgument());

  vec::ColumnBatch empty_width;
  empty_width.sel = vec::RangeSel(0, 5);
  Writer small;
  small.PutBatch(empty_width);
  Reader rs(small.buffer());
  auto five = rs.ReadBatch();
  ASSERT_TRUE(five.ok()) << five.status();
  EXPECT_EQ(five->NumRows(), 5u);
  EXPECT_EQ(five->NumColumns(), 0u);

  // A zero-row batch has no values either: a column count whose
  // columns would outgrow the payload limit is refused the same way.
  Writer wide;
  wide.PutU32(0);            // no rows
  wide.PutU32(0xffffffffu);  // 4G columns
  Reader rw(wide.buffer());
  auto too_wide = rw.ReadColumns();
  ASSERT_FALSE(too_wide.ok());
  EXPECT_TRUE(too_wide.status().IsInvalidArgument());
}

// A SHIP batch whose codec carries a column count other than its attr
// count is refused, not decoded into a batch its layout does not fit.
TEST(WireFrame, ColumnCountMustMatchAttrs) {
  Writer w;
  w.PutU32(1);                    // 1 attr
  w.PutU32(7);                    // attr 7
  w.PutColumns(FilteredBatch());  // 2 columns
  Reader r(w.buffer());
  auto decoded = r.ReadBatch();
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
}

// The codec types each column from its values as FromRows does: an
// all-NULL prefix takes the first non-null value's tag, a mixed column
// falls back to kValue, and both round-trip value for value.
TEST(WireFrame, CodecInfersTagsLikeFromRows) {
  std::vector<Row> rows = {
      {Value::Null(), Value::Int64(1), Value::Null()},
      {Value::Double(2.5), Value::String("x"), Value::Null()},
      {Value::Null(), Value::Double(3.5), Value::Null()},
  };
  vec::ColumnBatch batch =
      vec::FromRows(RowLayout({1, 2, 3}), rows).ValueOrDie();
  Writer w;
  w.PutColumns(batch);
  Reader r(w.buffer());
  auto decoded = r.ReadColumns();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(decoded->NumColumns(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(decoded->columns[c]->tag, batch.columns[c]->tag) << c;
  }
  EXPECT_EQ(decoded->columns[0]->tag, vec::ColumnTag::kDouble);
  EXPECT_EQ(decoded->columns[1]->tag, vec::ColumnTag::kValue);
  RowBatch got = vec::ToRowBatch(*decoded);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(RowsStructurallyEqual(got.rows[i], rows[i])) << i;
  }
}

// Differential check of the typed layout: seeded random batches of every
// column form, dense and filtered, decode to exactly the columns FromRows
// builds from the selected rows (tags, NULL words and counts, payloads).
TEST(WireFrame, TypedLayoutRoundTripsLikeFromRows) {
  int batches = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    const SeededBatch seeded = MakeSeededBatch(seed);
    Writer w;
    w.PutBatch(seeded.batch);
    Reader r(w.buffer());
    auto got = r.ReadBatch();
    ASSERT_TRUE(got.ok()) << "seed " << seed << ": " << got.status();
    EXPECT_TRUE(r.AtEnd()) << "seed " << seed;
    EXPECT_EQ(got->layout.attrs(), seeded.batch.layout.attrs())
        << "seed " << seed;
    EXPECT_EQ(got->sel, vec::RangeSel(0, seeded.want.NumRows()))
        << "seed " << seed;
    ASSERT_EQ(got->NumColumns(), seeded.kinds.size());
    for (size_t c = 0; c < seeded.kinds.size(); ++c) {
      ExpectSameColumn(*got->columns[c], *seeded.want.columns[c],
                       "seed " + std::to_string(seed) + " col " +
                           std::to_string(c) + " kind " +
                           std::to_string(seeded.kinds[c]));
    }
    ++batches;
  }
  EXPECT_EQ(batches, 120);

  // A selection that keeps only the NULLs of a double column types the
  // column as FromRows does: all-NULL int64.
  std::vector<Row> rows = {{Value::Null()}, {Value::Double(1.5)}};
  vec::ColumnBatch batch = vec::FromRows(RowLayout({1}), rows).ValueOrDie();
  ASSERT_EQ(batch.columns[0]->tag, vec::ColumnTag::kDouble);
  batch.sel = {0};
  Writer w;
  w.PutBatch(batch);
  Reader r(w.buffer());
  auto got = r.ReadBatch();
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectSameColumn(*got->columns[0],
                   *vec::FromRows(RowLayout({1}), {rows[0]})
                        .ValueOrDie()
                        .columns[0],
                   "all-NULL selection");
  EXPECT_EQ(got->columns[0]->tag, vec::ColumnTag::kInt64);
}

TEST(WireFrame, GoldenValueEncodings) {
  Writer w;
  w.PutValue(Value::Null());
  w.PutValue(Value::Int64(-2));
  w.PutValue(Value::Double(1.5));
  w.PutValue(Value::String("ab"));
  const std::vector<uint8_t> expected = {
      0x00,                                            // NULL
      0x01, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // -2
      0xff,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8,  // 1.5 = 0x3FF8...
      0x3f,
      0x03, 0x02, 0x00, 0x00, 0x00, 'a', 'b',          // "ab"
  };
  EXPECT_EQ(Bytes(w.buffer()), expected);
}

// Checksum64 is pinned (frames on disk and on the wire carry it), sees
// the length (a zero tail byte is not padding) and every single-bit
// flip, whichever lane, leftover word or tail byte it lands in.
TEST(WireFrame, Checksum64VectorsAndBitFlips) {
  auto sum = [](const std::string& s) {
    return Checksum64(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  };
  EXPECT_EQ(sum(""), 0xd11f82d4d5b4ac60ull);
  EXPECT_EQ(sum("a"), 0x5e42a967a4135844ull);
  EXPECT_EQ(sum("abcdefgh"), 0xe1ca5affefa83851ull);
  EXPECT_EQ(sum("0123456789abcdef0123456789abcdef0123456789"),
            0x1052ae9d83ee300bull);
  EXPECT_NE(sum("a"), sum(std::string("a\0", 2)));
  EXPECT_NE(sum(""), sum(std::string(1, '\0')));

  std::string buf;
  for (int i = 0; i < 77; ++i) buf.push_back(static_cast<char>(i * 37));
  const uint64_t base = sum(buf);
  for (size_t i = 0; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = buf;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(sum(flipped), base) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(WireFrame, KnownFnv1aVector) {
  // FNV-1a("a") is a published test vector.
  const uint8_t a[] = {'a'};
  EXPECT_EQ(Fnv1a(a, 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a(nullptr, 0), 14695981039346656037ull);
}

TEST(WireFrame, HeaderRejectsBadMagic) {
  std::string frame = EncodeFrame(FrameType::kHello, Hello().Encode());
  frame[0] = 'X';
  auto h = Header(frame);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsInvalidArgument());
}

TEST(WireFrame, HeaderRejectsTruncation) {
  std::string frame = EncodeFrame(FrameType::kHello, Hello().Encode());
  auto h = DecodeFrameHeader(Data(frame), kHeaderSize - 1);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsInvalidArgument());
}

TEST(WireFrame, HeaderRejectsVersionMismatchAsUnsupported) {
  std::string frame = EncodeFrame(FrameType::kHello, Hello().Encode());
  frame[4] = 0x63;  // version 99
  frame[5] = 0x00;
  auto h = Header(frame);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsUnsupported());
  EXPECT_NE(h.status().message().find("version mismatch"), std::string::npos);
}

TEST(WireFrame, HeaderRejectsOversizedPayload) {
  std::string frame = EncodeFrame(FrameType::kHello, Hello().Encode());
  uint32_t huge = kMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i) {
    frame[8 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  auto h = Header(frame);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsInvalidArgument());
  EXPECT_NE(h.status().message().find("oversized"), std::string::npos);
}

TEST(WireFrame, ChecksumMismatchRejected) {
  std::string payload = Hello().Encode();
  std::string frame = EncodeFrame(FrameType::kHello, payload);
  auto h = Header(frame);
  ASSERT_TRUE(h.ok());
  payload[0] ^= 0x40;  // flip a payload bit
  Status s = VerifyPayload(*h, Data(payload));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("checksum"), std::string::npos);
}

/// Every strict prefix of `payload` fails Msg::Decode as truncated.
template <typename Msg>
void ExpectPrefixesRejected(const std::string& payload) {
  ASSERT_TRUE(Msg::Decode(payload).ok());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto r = Msg::Decode(payload.substr(0, cut));
    ASSERT_FALSE(r.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_TRUE(r.status().IsInvalidArgument());
  }
}

TEST(WireFrame, TruncatedPayloadRejectedByReader) {
  InputBatch in;
  in.channel = 3;
  in.batch = FilteredBatch();
  ExpectPrefixesRejected<InputBatch>(in.Encode());
  OutputBatch out;
  out.batch = FilteredBatch();
  ExpectPrefixesRejected<OutputBatch>(out.Encode());
  LoadTable load;
  load.location = 1;
  load.table = "t";
  load.batch = FilteredBatch();
  ExpectPrefixesRejected<LoadTable>(load.Encode());
}

TEST(WireRoundTrip, Hello) {
  auto h = Hello::Decode(Hello().Encode());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->version, kVersion);
}

TEST(WireRoundTrip, HelloAck) {
  HelloAck ack;
  ack.locations = {0, 3, 4};
  auto r = HelloAck::Decode(ack.Encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->version, kVersion);
  EXPECT_EQ(r->locations, ack.locations);
}

TEST(WireRoundTrip, LoadTableAndAck) {
  LoadTable load;
  load.location = 2;
  load.table = "customer";
  load.replace = false;
  const std::vector<Row> rows = {
      {Value::Int64(7), Value::Null(), Value::Double(0.25)},
      {Value::String("s"), Value::Int64(-1), Value::Null()},
  };
  load.batch = vec::FromRows(RowLayout({0, 1, 2}), rows).ValueOrDie();
  auto r = LoadTable::Decode(load.Encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->location, 2u);
  EXPECT_EQ(r->table, "customer");
  EXPECT_FALSE(r->replace);
  // Stored rows travel positionally: the decoded batch has no layout.
  EXPECT_EQ(r->batch.layout.size(), 0u);
  std::vector<Row> got = vec::ToRowBatch(r->batch).rows;
  ASSERT_EQ(got.size(), 2u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(RowsStructurallyEqual(got[i], rows[i])) << i;
  }

  LoadAck ack;
  ack.fragment_rows = 12345;
  auto a = LoadAck::Decode(ack.Encode());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->fragment_rows, 12345);
}

TEST(WireRoundTrip, InputFramesAndOutputFrames) {
  InputBatch in;
  in.channel = 1;
  in.batch = vec::FromRows(RowLayout({65536, 65537}),
                           {{Value::Int64(10), Value::String("hi")}})
                 .ValueOrDie();
  auto rin = InputBatch::Decode(in.Encode());
  ASSERT_TRUE(rin.ok());
  EXPECT_EQ(rin->channel, 1);
  EXPECT_EQ(rin->batch.layout.attrs(), in.batch.layout.attrs());
  ASSERT_EQ(rin->batch.NumRows(), 1u);
  EXPECT_TRUE(rin->batch.columns[1]->GetValue(rin->batch.sel[0])
                  .StructurallyEquals(Value::String("hi")));

  InputEnd end;
  end.channel = 4;
  auto rend = InputEnd::Decode(end.Encode());
  ASSERT_TRUE(rend.ok());
  EXPECT_EQ(rend->channel, 4);

  OutputBatch out;
  out.batch = in.batch;
  auto rout = OutputBatch::Decode(out.Encode());
  ASSERT_TRUE(rout.ok());
  EXPECT_EQ(rout->batch.NumRows(), 1u);

  OutputEnd oend;
  oend.rows_out = 42;
  oend.rows_scanned = 1000;
  oend.blocks_read = 17;
  oend.spill_partitions = 8;
  oend.spill_bytes = 1ll << 33;
  auto roend = OutputEnd::Decode(oend.Encode());
  ASSERT_TRUE(roend.ok());
  EXPECT_EQ(roend->rows_out, 42);
  EXPECT_EQ(roend->rows_scanned, 1000);
  EXPECT_EQ(roend->blocks_read, 17);
  EXPECT_EQ(roend->spill_partitions, 8);
  EXPECT_EQ(roend->spill_bytes, 1ll << 33);
}

TEST(WireRoundTrip, ErrorCarriesTypedStatus) {
  ErrorMsg err = ErrorMsg::FromStatus(Status::Unavailable("link down"));
  auto r = ErrorMsg::Decode(err.Encode());
  ASSERT_TRUE(r.ok());
  Status s = r->ToStatus();
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(s.message(), "link down");

  // Out-of-range codes degrade to kInternal instead of trusting the peer.
  ErrorMsg bogus;
  bogus.code = 999;
  bogus.message = "???";
  EXPECT_TRUE(bogus.ToStatus().IsInternal());
  ErrorMsg okish;
  okish.code = 0;
  EXPECT_TRUE(okish.ToStatus().IsInternal());
}

TEST(WireRoundTrip, ExpressionTree) {
  // (c.acctbal > 100 AND c.mktsegment IN ('A', 'B')) with a NOT thrown in.
  ExprPtr col = Expr::BoundColumn(65536, "c", "acctbal", "customer",
                                  DataType::kDouble);
  ExprPtr cmp = Expr::Binary(ExprOp::kGt, col, Expr::Literal(Value::Int64(100)));
  ExprPtr seg = Expr::BoundColumn(65537, "c", "mktsegment", "customer",
                                  DataType::kString);
  ExprPtr in = Expr::InList(
      seg, {Value::String("A"), Value::String("B")});
  ExprPtr pred =
      Expr::Binary(ExprOp::kAnd, cmp, Expr::Unary(ExprOp::kNot, in));

  Writer w;
  w.PutExpr(*pred);
  Reader r(w.buffer());
  auto decoded = r.ReadExpr();
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE((*decoded)->Equals(*pred));
}

// `nots` NOTs over a literal, encoded tag by tag so that building the
// payload needs neither a deep Expr nor the recursive encoder.
std::string NotChainBytes(int nots) {
  Writer w;
  for (int i = 0; i < nots; ++i) {
    w.PutU8(2);
    w.PutU8(static_cast<uint8_t>(ExprOp::kNot));
  }
  w.PutExpr(*Expr::Literal(Value::Int64(1)));
  return w.buffer();
}

ExprPtr NotChain(int nots) {
  ExprPtr e = Expr::Literal(Value::Int64(1));
  for (int i = 0; i < nots; ++i) e = Expr::Unary(ExprOp::kNot, e);
  return e;
}

void ExpectTooDeep(const Status& status) {
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find("nests deeper than"), std::string::npos)
      << status;
}

// ReadExpr's recursion is bounded by kMaxDecodeDepth: a tree of exactly
// that many levels decodes, one level more is refused with a typed
// kInvalidArgument, and so is 10,000 levels in a 20 KB payload, which
// would otherwise overflow the stack.
TEST(WireRoundTrip, ExpressionNestingBounded) {
  const std::string at_bound = NotChainBytes(kMaxDecodeDepth - 1);
  Reader r(at_bound);
  auto decoded = r.ReadExpr();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ((*decoded)->depth(), kMaxDecodeDepth);

  for (int nots : {kMaxDecodeDepth, 10000}) {
    const std::string bytes = NotChainBytes(nots);
    Reader past(bytes);
    auto refused = past.ReadExpr();
    ASSERT_FALSE(refused.ok());
    ExpectTooDeep(refused.status());
  }
}

// ReadPlan shares the bound, counting plan operators and expression
// levels along one path: a Filter (one level) over a scan whose
// conjunct nests kMaxDecodeDepth - 1 levels decodes; one more level
// does not, nor does a chain of kMaxDecodeDepth + 1 operators.
TEST(WireRoundTrip, PlanNestingBounded) {
  auto scan = std::make_shared<PlanNode>(PlanKind::kScan);
  scan->table = "t";
  scan->outputs = {{1, "a", DataType::kInt64}};
  auto filter_over = [&](int conjunct_depth) {
    auto filter = std::make_shared<PlanNode>(PlanKind::kFilter);
    filter->outputs = scan->outputs;
    filter->conjuncts = {NotChain(conjunct_depth - 1)};
    filter->children().push_back(scan);
    StartFragment start;
    start.root = filter;
    return start.Encode({});
  };
  auto payload = filter_over(kMaxDecodeDepth - 1);
  ASSERT_TRUE(payload.ok());
  auto decoded = StartFragment::Decode(*payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->root->conjuncts[0]->depth(), kMaxDecodeDepth - 1);

  payload = filter_over(kMaxDecodeDepth);
  ASSERT_TRUE(payload.ok());
  ExpectTooDeep(StartFragment::Decode(*payload).status());

  PlanNodePtr chain = scan;
  for (int i = 0; i < kMaxDecodeDepth; ++i) {
    auto node = std::make_shared<PlanNode>(PlanKind::kUnion);
    node->outputs = scan->outputs;
    node->children().push_back(chain);
    chain = node;
  }
  StartFragment start;
  start.root = chain;
  payload = start.Encode({});
  ASSERT_TRUE(payload.ok());
  ExpectTooDeep(StartFragment::Decode(*payload).status());
}

TEST(WireRoundTrip, PlanFragmentWithShipLeaf) {
  // Scan(customer@l1) -> Filter -> SHIP(l1 -> l0) feeding
  // Join at l0 against Scan(orders@l0): serialize the *top* fragment,
  // whose subtree contains the SHIP as a childless input leaf.
  auto scan_c = std::make_shared<PlanNode>(PlanKind::kScan);
  scan_c->table = "customer";
  scan_c->scan_location = 1;
  scan_c->outputs = {{65536, "custkey", DataType::kInt64},
                     {65537, "name", DataType::kString}};
  auto ship = std::make_shared<PlanNode>(PlanKind::kShip);
  ship->ship_from = 1;
  ship->ship_to = 0;
  ship->ship_trait = LocationSet(0b11);
  ship->outputs = scan_c->outputs;
  ship->children().push_back(scan_c);

  auto scan_o = std::make_shared<PlanNode>(PlanKind::kScan);
  scan_o->table = "orders";
  scan_o->scan_location = 0;
  scan_o->outputs = {{131072, "custkey", DataType::kInt64},
                     {131073, "total", DataType::kDouble}};

  auto join = std::make_shared<PlanNode>(PlanKind::kJoin);
  join->join_method = JoinMethod::kHash;
  join->conjuncts.push_back(Expr::Binary(
      ExprOp::kEq,
      Expr::BoundColumn(65536, "c", "custkey", "customer", DataType::kInt64),
      Expr::BoundColumn(131072, "o", "custkey", "orders",
                        DataType::kInt64)));
  join->exec_trait = LocationSet(0b1);
  join->location = 0;
  join->outputs = {{65537, "name", DataType::kString},
                   {131073, "total", DataType::kDouble}};
  join->children().push_back(ship);
  join->children().push_back(scan_o);

  std::unordered_map<const PlanNode*, int> channel_of_ship;
  channel_of_ship[ship.get()] = 0;

  StartFragment start;
  start.fragment_id = 1;
  start.site = 0;
  start.batch_size = 512;
  start.memory_budget_bytes = (1ull << 40) + 3;
  start.root = join;
  auto payload = start.Encode(channel_of_ship);
  ASSERT_TRUE(payload.ok());

  auto decoded = StartFragment::Decode(*payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->fragment_id, 1);
  EXPECT_EQ(decoded->site, 0u);
  EXPECT_EQ(decoded->batch_size, 512u);
  EXPECT_EQ(decoded->memory_budget_bytes, (1ull << 40) + 3);
  ASSERT_EQ(decoded->input_channels.size(), 1u);
  EXPECT_EQ(decoded->input_channels[0], 0);

  const PlanNode& droot = *decoded->root;
  ASSERT_EQ(droot.kind(), PlanKind::kJoin);
  EXPECT_EQ(droot.exec_trait.bits(), join->exec_trait.bits());
  ASSERT_EQ(droot.children().size(), 2u);
  const PlanNode& dship = *droot.child(0);
  ASSERT_EQ(dship.kind(), PlanKind::kShip);
  // The SHIP leaf decodes childless, carrying the channel id and its
  // producer's output layout.
  EXPECT_TRUE(dship.children().empty());
  EXPECT_EQ(dship.fragment_ordinal, 0);
  EXPECT_EQ(dship.ship_from, 1u);
  EXPECT_EQ(dship.ship_to, 0u);
  EXPECT_EQ(dship.ship_trait.bits(), ship->ship_trait.bits());
  ASSERT_EQ(dship.outputs.size(), 2u);
  EXPECT_EQ(dship.outputs[0].id, 65536u);
  EXPECT_EQ(dship.outputs[1].name, "name");
  EXPECT_EQ(dship.outputs[1].type, DataType::kString);
  ASSERT_EQ(droot.conjuncts.size(), 1u);
  EXPECT_TRUE(droot.conjuncts[0]->Equals(*join->conjuncts[0]));
  const PlanNode& dscan = *droot.child(1);
  EXPECT_EQ(dscan.kind(), PlanKind::kScan);
  EXPECT_EQ(dscan.table, "orders");
  EXPECT_EQ(dscan.scan_location, 0u);

  // The decoded placement facts feed the receiving-end compliance
  // re-check (fragment #1 runs at l0, inside its execution trait).
  EXPECT_TRUE(
      CheckFragmentPlacement(decoded->fragment_id, decoded->site,
                             droot.exec_trait, nullptr)
          .ok());
  // A tampered site outside the trait is refused.
  EXPECT_FALSE(
      CheckFragmentPlacement(decoded->fragment_id, /*site=*/3,
                             droot.exec_trait, nullptr)
          .ok());
}

// The join method travels as one byte; 2 is past the last method
// (kNestedLoop = 1), and a plan carrying it is refused.
TEST(WireRoundTrip, UnknownJoinMethodRefused) {
  auto scan = [](const char* table, AttrId id) {
    auto node = std::make_shared<PlanNode>(PlanKind::kScan);
    node->table = table;
    node->outputs = {{id, "a", DataType::kInt64}};
    return node;
  };
  auto join = std::make_shared<PlanNode>(PlanKind::kJoin);
  join->outputs = {{1, "a", DataType::kInt64}, {2, "a", DataType::kInt64}};
  join->children().push_back(scan("l", 1));
  join->children().push_back(scan("r", 2));
  StartFragment start;
  start.root = join;

  join->join_method = JoinMethod::kNestedLoop;
  auto payload = start.Encode({});
  ASSERT_TRUE(payload.ok());
  auto decoded = StartFragment::Decode(*payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->root->join_method, JoinMethod::kNestedLoop);

  join->join_method = static_cast<JoinMethod>(2);
  payload = start.Encode({});
  ASSERT_TRUE(payload.ok());
  decoded = StartFragment::Decode(*payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
  EXPECT_NE(decoded.status().message().find("bad join method 2"),
            std::string::npos)
      << decoded.status();
}

// An aggregate call's count-merge flag travels with the plan: a merged
// COUNT must still finish 0 over no rows on the server.
TEST(WireRoundTrip, CountMergeFlagTravels) {
  auto scan = std::make_shared<PlanNode>(PlanKind::kScan);
  scan->table = "t";
  scan->outputs = {{1, "cnt", DataType::kInt64}};
  auto agg = std::make_shared<PlanNode>(PlanKind::kAggregate);
  const ExprPtr cnt = Expr::BoundColumn(1, "", "cnt", "", DataType::kInt64);
  agg->agg_calls = {AggCall{AggFn::kSum, cnt, /*merges_counts=*/true},
                    AggCall{AggFn::kSum, cnt}};
  agg->agg_out_ids = {2, 3};
  agg->outputs = {{2, "n", DataType::kInt64}, {3, "s", DataType::kInt64}};
  agg->children().push_back(scan);
  StartFragment start;
  start.root = agg;
  auto payload = start.Encode({});
  ASSERT_TRUE(payload.ok());
  auto decoded = StartFragment::Decode(*payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->root->agg_calls.size(), 2u);
  EXPECT_TRUE(decoded->root->agg_calls[0].merges_counts);
  EXPECT_FALSE(decoded->root->agg_calls[1].merges_counts);
  EXPECT_TRUE(decoded->root->agg_calls[0].Equals(agg->agg_calls[0]));
}

TEST(WireRoundTrip, EveryFrameTypeHasAName) {
  for (uint16_t t = 1; t <= 12; ++t) {
    EXPECT_STRNE(FrameTypeToString(static_cast<FrameType>(t)), "UNKNOWN");
  }
  EXPECT_STREQ(FrameTypeToString(static_cast<FrameType>(99)), "UNKNOWN");
}

}  // namespace
}  // namespace wire
}  // namespace cgq
