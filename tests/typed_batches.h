// Seeded random column batches of every form the typed batch layout
// encodes, and a slot-for-slot column comparison, shared by the codec
// tests (wire_protocol_test, storage_engine_test).

#ifndef CGQ_TESTS_TYPED_BATCHES_H_
#define CGQ_TESTS_TYPED_BATCHES_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "exec/vector/column_batch.h"
#include "types/value.h"

namespace cgq {

/// `got` equals `want` slot for slot: tag, NULL words, NULL count and
/// every payload (doubles by bit pattern).
inline void ExpectSameColumn(const vec::ColumnVector& got,
                             const vec::ColumnVector& want,
                             const std::string& what) {
  EXPECT_EQ(got.tag, want.tag) << what;
  EXPECT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(got.nulls.null_count(), want.nulls.null_count()) << what;
  EXPECT_EQ(got.nulls.words(), want.nulls.words()) << what;
  EXPECT_EQ(got.i64, want.i64) << what;
  EXPECT_EQ(got.str, want.str) << what;
  ASSERT_EQ(got.f64.size(), want.f64.size()) << what;
  for (size_t i = 0; i < got.f64.size(); ++i) {
    uint64_t a, b;
    std::memcpy(&a, &got.f64[i], 8);
    std::memcpy(&b, &want.f64[i], 8);
    EXPECT_EQ(a, b) << what << " row " << i;
  }
  ASSERT_EQ(got.vals.size(), want.vals.size()) << what;
  for (size_t i = 0; i < got.vals.size(); ++i) {
    EXPECT_TRUE(got.vals[i].StructurallyEquals(want.vals[i]))
        << what << " row " << i;
  }
}

/// One random value of column kind `kind`.
inline Value RandomValue(int kind, std::mt19937_64* rng) {
  std::uniform_int_distribution<int> pct(0, 99);
  const int p = pct(*rng);
  switch (kind) {
    case 0:  // int64, a few NULLs
      if (p < 5) return Value::Null();
      if (p < 10) return Value::Int64(std::numeric_limits<int64_t>::min());
      return Value::Int64(static_cast<int64_t>((*rng)()));
    case 1:  // date
      return Value::Date(static_cast<int64_t>((*rng)() % 20000));
    case 2:  // double, -0.0 and extremes included
      if (p < 5) return Value::Null();
      if (p < 10) return Value::Double(-0.0);
      if (p < 15) return Value::Double(1e300);
      return Value::Double(static_cast<double>(static_cast<int64_t>(
                               (*rng)() % 2000001) - 1000000) / 64.0);
    case 3: {  // string, empty ones included
      if (p < 5) return Value::Null();
      std::string v((*rng)() % (p < 30 ? 1 : 24), 'a');
      for (char& c : v) c = static_cast<char>('a' + (*rng)() % 26);
      return Value::String(std::move(v));
    }
    case 4:  // NULL-heavy double
      return p < 90 ? Value::Null() : Value::Double(p * 0.25);
    case 5:  // all NULL
      return Value::Null();
    default:  // mixed: the value fallback
      if (p < 10) return Value::Null();
      if (p < 40) return Value::Int64(p);
      if (p < 70) return Value::Double(p * 0.5);
      return Value::String(std::string(p % 5, 'x'));
  }
}

/// One seeded batch: random row and column counts (0 included), a
/// random column kind per column (RandomValue), and on even seeds a
/// filtered selection. `want` is what FromRows builds from the selected
/// rows, i.e. what decoding the encoded batch must reproduce.
struct SeededBatch {
  std::vector<int> kinds;  ///< RandomValue kind per column
  vec::ColumnBatch batch;  ///< attrs 1..n
  vec::ColumnBatch want;
};

inline SeededBatch MakeSeededBatch(uint64_t seed) {
  const size_t kRowCounts[] = {0, 1, 2, 63, 64, 65, 130};
  std::mt19937_64 rng(seed);
  const size_t num_rows = kRowCounts[rng() % std::size(kRowCounts)];
  const size_t num_cols = rng() % 7;  // 0 columns included
  SeededBatch out;
  out.kinds.resize(num_cols);
  std::vector<AttrId> attrs(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    out.kinds[c] = static_cast<int>(rng() % 7);
    attrs[c] = static_cast<AttrId>(c + 1);
  }
  std::vector<Row> rows(num_rows);
  for (Row& row : rows) {
    for (size_t c = 0; c < num_cols; ++c) {
      row.push_back(RandomValue(out.kinds[c], &rng));
    }
  }
  const RowLayout layout(attrs);
  out.batch = vec::FromRows(layout, rows).ValueOrDie();
  std::vector<Row> selected = rows;
  if (seed % 2 == 0 && num_rows > 0) {
    // A filtered batch: a non-identity selection, gathered as encoded.
    out.batch.sel.clear();
    selected.clear();
    for (uint32_t i = 0; i < num_rows; ++i) {
      if (rng() % 3 == 0) continue;
      out.batch.sel.push_back(i);
      selected.push_back(rows[i]);
    }
  }
  out.want = vec::FromRows(layout, selected).ValueOrDie();
  return out;
}

}  // namespace cgq

#endif  // CGQ_TESTS_TYPED_BATCHES_H_
