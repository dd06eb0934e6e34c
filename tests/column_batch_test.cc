#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "exec/vector/column_batch.h"
#include "exec/vector/kernels.h"
#include "typed_batches.h"

namespace cgq {
namespace vec {
namespace {

// Structural (representation-level) equality: NULL == NULL, but
// Int64(1) != Double(1.0). This is the "byte-for-byte" notion the
// columnar fragment runtime is validated under.
void ExpectSameValue(const Value& a, const Value& b,
                     const std::string& where) {
  EXPECT_TRUE(a.StructurallyEquals(b))
      << where << ": " << a.ToString() << " vs " << b.ToString();
}

RowBatch MixedBatch() {
  RowBatch b;
  b.layout = RowLayout({1, 2, 3, 4});
  // col 1: int64 with a NULL; col 2: double; col 3: string with NULLs;
  // col 4: all-NULL.
  b.rows = {
      {Value::Int64(7), Value::Double(1.5), Value::Null(), Value::Null()},
      {Value::Null(), Value::Double(-0.25), Value::String("x"),
       Value::Null()},
      {Value::Int64(-3), Value::Double(1e18), Value::String(""),
       Value::Null()},
  };
  return b;
}

TEST(NullBitmapTest, AppendAndQueryAcrossWordBoundaries) {
  NullBitmap bits;
  for (int i = 0; i < 130; ++i) bits.AppendBit(i % 3 == 0);
  ASSERT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.null_count(), 44);
  EXPECT_TRUE(bits.AnyNull());
  EXPECT_FALSE(bits.AllNull());
  for (int i = 0; i < 130; ++i) {
    EXPECT_EQ(bits.IsNull(i), i % 3 == 0) << i;
  }
}

TEST(NullBitmapTest, AllNullRequiresRows) {
  NullBitmap empty;
  EXPECT_FALSE(empty.AllNull());
  NullBitmap two;
  two.AppendBit(true);
  two.AppendBit(true);
  EXPECT_TRUE(two.AllNull());
}

TEST(ColumnVectorTest, FirstValueCommitsTheTag) {
  ColumnVector c;
  c.AppendValue(Value::Double(2.5));
  EXPECT_EQ(c.tag, ColumnTag::kDouble);
  ColumnVector s;
  s.AppendValue(Value::String("a"));
  EXPECT_EQ(s.tag, ColumnTag::kString);
}

TEST(ColumnVectorTest, LeadingNullsRetagOnFirstNonNull) {
  ColumnVector c;
  c.AppendValue(Value::Null());
  c.AppendValue(Value::Null());
  EXPECT_EQ(c.tag, ColumnTag::kInt64);  // provisional
  c.AppendValue(Value::String("late"));
  EXPECT_EQ(c.tag, ColumnTag::kString);
  ExpectSameValue(c.GetValue(0), Value::Null(), "row 0");
  ExpectSameValue(c.GetValue(1), Value::Null(), "row 1");
  ExpectSameValue(c.GetValue(2), Value::String("late"), "row 2");
}

TEST(ColumnVectorTest, MixedTypesFallBackToValuesLosslessly) {
  ColumnVector c;
  c.AppendValue(Value::Int64(1));
  c.AppendValue(Value::Double(2.0));  // int column sees a double
  EXPECT_EQ(c.tag, ColumnTag::kValue);
  ExpectSameValue(c.GetValue(0), Value::Int64(1), "row 0");
  ExpectSameValue(c.GetValue(1), Value::Double(2.0), "row 1");
  c.AppendValue(Value::Null());
  ExpectSameValue(c.GetValue(2), Value::Null(), "row 2");
}

TEST(ColumnVectorTest, AppendFromPreservesValuesAcrossTags) {
  ColumnVector src;
  src.AppendValue(Value::Int64(5));
  src.AppendValue(Value::Null());
  ColumnVector same_tag;
  same_tag.AppendValue(Value::Int64(9));
  same_tag.AppendFrom(src, 0);
  same_tag.AppendFrom(src, 1);
  ExpectSameValue(same_tag.GetValue(1), Value::Int64(5), "same tag");
  ExpectSameValue(same_tag.GetValue(2), Value::Null(), "same tag null");

  ColumnVector other_tag;
  other_tag.AppendValue(Value::String("s"));
  other_tag.AppendFrom(src, 0);  // int into string column
  EXPECT_EQ(other_tag.tag, ColumnTag::kValue);
  ExpectSameValue(other_tag.GetValue(1), Value::Int64(5), "cross tag");
}

TEST(ColumnVectorTest, GatherReordersAndRepeatsWithNulls) {
  ColumnVector c;
  for (int i = 0; i < 100; ++i) {
    c.AppendValue(i % 7 == 0 ? Value::Null() : Value::Int64(i));
  }
  std::vector<uint32_t> sel = {99, 0, 7, 7, 42, 13};
  ColumnVector g = c.Gather(sel);
  ASSERT_EQ(g.size(), sel.size());
  for (size_t k = 0; k < sel.size(); ++k) {
    ExpectSameValue(g.GetValue(k), c.GetValue(sel[k]),
                    "gather row " + std::to_string(k));
  }
}

TEST(ColumnBatchTest, RoundTripIsByteIdentical) {
  RowBatch in = MixedBatch();
  auto cb = FromRowBatch(in);
  ASSERT_TRUE(cb.ok()) << cb.status();
  EXPECT_EQ(cb->NumRows(), in.rows.size());
  EXPECT_EQ(cb->NumColumns(), in.layout.size());
  // The all-null column stays provisional int64, one bit per row.
  EXPECT_EQ(cb->columns[3]->tag, ColumnTag::kInt64);
  EXPECT_TRUE(cb->columns[3]->nulls.AllNull());

  RowBatch out = ToRowBatch(*cb);
  ASSERT_EQ(out.rows.size(), in.rows.size());
  EXPECT_EQ(out.layout.attrs(), in.layout.attrs());
  for (size_t r = 0; r < in.rows.size(); ++r) {
    for (size_t c = 0; c < in.layout.size(); ++c) {
      ExpectSameValue(out.rows[r][c], in.rows[r][c],
                      "row " + std::to_string(r) + " col " +
                          std::to_string(c));
    }
  }
}

TEST(ColumnBatchTest, FromRowsRejectsWidthMismatch) {
  RowLayout layout({1, 2});
  std::vector<Row> rows = {{Value::Int64(1), Value::Int64(2)},
                           {Value::Int64(3)}};
  auto cb = FromRows(layout, rows);
  EXPECT_FALSE(cb.ok());
}

TEST(ColumnBatchTest, GatherSelectionStraddlingChunkBoundaries) {
  // A selection whose indices cross several 64-row bitmap words and a
  // 1024-row chunk boundary must still address the full batch.
  RowLayout layout({1});
  std::vector<Row> rows;
  for (int i = 0; i < 2500; ++i) {
    rows.emplace_back(1, i % 5 == 0 ? Value::Null() : Value::Int64(i));
  }
  auto cb = FromRows(layout, rows);
  ASSERT_TRUE(cb.ok());
  std::vector<uint32_t> sel = {0, 63, 64, 1023, 1024, 2047, 2048, 2499};
  ColumnBatch g = cb->Gather(sel);
  ASSERT_EQ(g.NumRows(), sel.size());
  for (size_t k = 0; k < sel.size(); ++k) {
    ExpectSameValue(g.columns[0]->GetValue(k),
                    cb->columns[0]->GetValue(sel[k]),
                    "sel " + std::to_string(sel[k]));
  }
}

TEST(ColumnBatchTest, SharedColumnsSurviveSourceBatchDestruction) {
  ColumnPtr kept;
  {
    auto cb = FromRows(RowLayout({1}), {{Value::Int64(42)}});
    ASSERT_TRUE(cb.ok());
    kept = cb->columns[0];
  }
  ExpectSameValue(kept->GetValue(0), Value::Int64(42), "shared column");
}

// AppendSelected (the bulk copy behind the fragment runtime's
// AppendRows) must build exactly the column per-cell AppendFrom builds:
// sources of every RandomValue kind (every tag, NULLs, kValue), windows
// at every bit offset and sparse selections, into fresh, all-NULL,
// committed and kValue destinations, appended to more than once.
TEST(ColumnVectorTest, BulkAppendEqualsPerCellAppend) {
  std::mt19937_64 rng(20261020);
  auto column = [&](int kind, size_t n) {
    ColumnVector col;
    if (kind == 7) col.tag = ColumnTag::kDouble;  // typed, all NULL
    if (kind == 8) col.tag = ColumnTag::kValue;
    for (size_t i = 0; i < n; ++i) {
      col.AppendValue(kind >= 7 ? Value::Null() : RandomValue(kind, &rng));
    }
    return col;
  };
  int cases = 0;
  for (int src_kind = 0; src_kind < 9; ++src_kind) {
    for (int dst_kind = 0; dst_kind < 9; ++dst_kind) {
      for (size_t dst_rows : {size_t{0}, size_t{3}, size_t{64}, size_t{70}}) {
        const ColumnVector src = column(src_kind, 200);
        ColumnVector bulk = column(dst_kind, dst_rows);
        ColumnVector cells = bulk;
        const std::string what = "src kind " + std::to_string(src_kind) +
                                 " dst kind " + std::to_string(dst_kind) +
                                 " dst rows " + std::to_string(dst_rows);
        // A window at a random bit offset, a sparse selection, a window.
        for (int round = 0; round < 3; ++round) {
          SelVec sel;
          if (round == 1) {
            for (uint32_t i = 0; i < 200; ++i) {
              if (rng() % 3 != 0) sel.push_back(i);
            }
          } else {
            const size_t begin = rng() % 100;
            sel = RangeSel(begin, begin + rng() % 100);
          }
          bulk.AppendSelected(src, sel.data(), sel.size());
          for (uint32_t i : sel) cells.AppendFrom(src, i);
          ExpectSameColumn(bulk, cells, what + " round " +
                                            std::to_string(round));
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 9 * 9 * 4 * 3);
}

}  // namespace
}  // namespace vec
}  // namespace cgq
