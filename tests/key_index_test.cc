// Differential test of the columnar core's KeyIndex against the row
// oracle's RowKey semantics. Random batches mix int64, double, string and
// kValue columns, with one logical value stored under different tags in
// different batches, NULLs, -0.0 beside 0.0, NaN, and one to six key
// columns. Group ids must equal the ids a std::unordered_map<RowKey, ...>
// assigns in first-seen order, the stored keys must be the first-seen
// cells, and ColumnJoinTable's matches must equal JoinHashTable's, in
// order.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "exec/exec_internal.h"

namespace cgq {
namespace exec_internal {
namespace {

enum class Family { kInt64, kDouble, kString, kMixed };

Value RandomValue(Family family, Rng* rng) {
  if (rng->Bernoulli(0.1)) return Value::Null();
  switch (family) {
    case Family::kInt64:
      return Value::Int64(rng->Uniform(-2, 3));
    case Family::kDouble: {
      static const double kPool[] = {
          0.0, -0.0, 1.0, 1.5, -2.25, std::numeric_limits<double>::quiet_NaN()};
      return Value::Double(kPool[rng->Uniform(0, 5)]);
    }
    case Family::kString: {
      static const char* kPool[] = {"", "a", "b", "ab", "ba"};
      return Value::String(kPool[rng->Uniform(0, 4)]);
    }
    case Family::kMixed:
      return RandomValue(static_cast<Family>(rng->Uniform(0, 2)), rng);
  }
  return Value::Null();
}

/// A column holding `values`: typed when they allow it, or forced to the
/// kValue representation.
vec::ColumnVector MakeColumn(const std::vector<Value>& values,
                             bool as_values) {
  vec::ColumnVector col;
  if (as_values) col.tag = vec::ColumnTag::kValue;
  for (const Value& v : values) col.AppendValue(v);
  return col;
}

/// `rows` as a batch whose column c is typed or kValue per `as_values`,
/// selecting `sel`.
vec::ColumnBatch MakeBatch(const std::vector<Row>& rows, size_t width,
                           const std::vector<bool>& as_values,
                           vec::SelVec sel) {
  vec::ColumnBatch batch;
  std::vector<AttrId> ids;
  for (size_t c = 0; c < width; ++c) {
    std::vector<Value> values;
    for (const Row& row : rows) values.push_back(row[c]);
    batch.columns.push_back(
        vec::MakeColumn(MakeColumn(values, as_values[c])));
    ids.push_back(static_cast<AttrId>(c));
  }
  batch.layout = RowLayout(std::move(ids));
  batch.sel = std::move(sel);
  return batch;
}

struct Shape {
  std::vector<Family> families;  // per key column
  std::vector<size_t> keys;      // key column positions
};

Shape RandomShape(Rng* rng) {
  Shape shape;
  const size_t width = static_cast<size_t>(rng->Uniform(1, 7));
  for (size_t c = 0; c < width; ++c) {
    shape.families.push_back(static_cast<Family>(rng->Uniform(0, 3)));
  }
  const size_t num_keys = static_cast<size_t>(
      rng->Uniform(1, std::min<int64_t>(6, static_cast<int64_t>(width))));
  for (size_t c = 0; c < num_keys; ++c) {
    shape.keys.push_back(static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(width) - 1)));
  }
  return shape;
}

std::vector<Row> RandomRows(const Shape& shape, size_t n, Rng* rng) {
  std::vector<Row> rows(n);
  for (Row& row : rows) {
    for (Family f : shape.families) row.push_back(RandomValue(f, rng));
  }
  return rows;
}

/// Per column: kValue for mixed families, else a coin flip, so one
/// logical value travels under both tags across batches.
std::vector<bool> RandomTags(const Shape& shape, Rng* rng) {
  std::vector<bool> as_values;
  for (Family f : shape.families) {
    as_values.push_back(f == Family::kMixed || rng->Bernoulli(0.5));
  }
  return as_values;
}

vec::SelVec RandomSel(size_t n, Rng* rng) {
  vec::SelVec sel;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(0.8)) sel.push_back(i);
  }
  return sel;
}

TEST(KeyIndexTest, GroupIdsMatchRowKeysInFirstSeenOrder) {
  Rng rng(0x6b1d);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Shape shape = RandomShape(&rng);
    KeyIndex index;
    std::unordered_map<RowKey, uint32_t, RowKeyHash> expected;
    std::vector<Row> first_seen;
    std::vector<uint32_t> ids, found;
    for (int b = 0; b < 4; ++b) {
      const std::vector<Row> rows =
          RandomRows(shape, static_cast<size_t>(rng.Uniform(0, 60)), &rng);
      const vec::ColumnBatch batch =
          MakeBatch(rows, shape.families.size(), RandomTags(shape, &rng),
                    RandomSel(rows.size(), &rng));
      index.Lookup(batch, shape.keys, KeyIndex::Mode::kGroup, &ids);
      index.Lookup(batch, shape.keys, KeyIndex::Mode::kProbe, &found);
      ASSERT_EQ(ids.size(), batch.NumRows());
      ASSERT_EQ(found.size(), batch.NumRows());
      for (size_t k = 0; k < batch.NumRows(); ++k) {
        const uint32_t row = batch.sel[k];
        RowKey key;
        for (size_t c : shape.keys) key.values.push_back(rows[row][c]);
        auto it = expected.find(key);
        if (it == expected.end()) {
          first_seen.push_back(key.values);
          const uint32_t id = static_cast<uint32_t>(expected.size());
          it = expected.emplace(std::move(key), id).first;
        }
        ASSERT_EQ(ids[k], it->second) << "batch " << b << " row " << row;
        // A probe misses keys with a NULL cell, and keys with a NaN
        // cell, which equal no key, themselves included.
        bool miss = false;
        for (size_t c : shape.keys) {
          const Value& v = rows[row][c];
          miss |= v.is_null() || (v.is_double() && std::isnan(v.dbl()));
        }
        EXPECT_EQ(found[k], miss ? KeyIndex::kNone : it->second);
      }
    }
    ASSERT_EQ(index.size(), first_seen.size());
    const std::vector<vec::ColumnVector>& keys = index.keys();
    if (first_seen.empty()) continue;
    ASSERT_EQ(keys.size(), shape.keys.size());
    for (size_t id = 0; id < first_seen.size(); ++id) {
      for (size_t c = 0; c < keys.size(); ++c) {
        const Value got = keys[c].GetValue(id);
        const Value& want = first_seen[id][c];
        const bool both_nan = got.is_double() && want.is_double() &&
                              std::isnan(got.dbl()) && std::isnan(want.dbl());
        EXPECT_TRUE(both_nan || got.StructurallyEquals(want))
            << "id " << id << " column " << c;
      }
    }
  }
}

TEST(KeyIndexTest, JoinMatchesEqualJoinHashTable) {
  Rng rng(0x701e);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Build and probe sides share their key columns' families.
    const Shape shape = RandomShape(&rng);
    const size_t width = shape.families.size();
    const std::vector<Row> build =
        RandomRows(shape, static_cast<size_t>(rng.Uniform(0, 80)), &rng);
    const std::vector<Row> probe =
        RandomRows(shape, static_cast<size_t>(rng.Uniform(0, 80)), &rng);
    JoinSpec spec;
    for (size_t c : shape.keys) spec.key_positions.emplace_back(c, c);

    JoinHashTable rows_table;
    rows_table.Build(build, spec);
    ColumnJoinTable table;
    table.Build(MakeBatch(build, width, RandomTags(shape, &rng),
                          vec::RangeSel(0, build.size())),
                spec);
    const vec::ColumnBatch probe_batch = MakeBatch(
        probe, width, RandomTags(shape, &rng), RandomSel(probe.size(), &rng));
    vec::SelVec li, ri;
    ASSERT_TRUE(table.Probe(probe_batch, spec, nullptr, &li, &ri).ok());

    vec::SelVec want_li, want_ri;
    for (uint32_t r : probe_batch.sel) {
      ASSERT_TRUE(rows_table
                      .Probe(probe[r], spec,
                             [&](const Row& l) {
                               want_li.push_back(
                                   static_cast<uint32_t>(&l - build.data()));
                               want_ri.push_back(r);
                               return Status::OK();
                             })
                      .ok());
    }
    EXPECT_EQ(li, want_li);
    EXPECT_EQ(ri, want_ri);
  }
}

// The join built on its right input: FlippedMatches must return, per
// right batch, exactly the pairs of Build(left) then Probe(batch), in the
// same order. Keys repeat on both sides (a small value pool), carry
// NULLs, span one to three columns and mix tags across batches; the
// right batches select sparse subsets of their rows.
TEST(KeyIndexTest, FlippedMatchesEqualBuildThenProbe) {
  Rng rng(0xf11b);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Shape shape = RandomShape(&rng);
    shape.keys.resize(std::min<size_t>(shape.keys.size(),
                                       static_cast<size_t>(rng.Uniform(1, 3))));
    const size_t width = shape.families.size();
    JoinSpec spec;
    for (size_t c : shape.keys) spec.key_positions.emplace_back(c, c);
    const std::vector<Row> left_rows =
        RandomRows(shape, static_cast<size_t>(rng.Uniform(0, 80)), &rng);
    const vec::ColumnBatch left =
        MakeBatch(left_rows, width, RandomTags(shape, &rng),
                  vec::RangeSel(0, left_rows.size()));
    std::vector<vec::ColumnBatch> right;
    for (int64_t b = rng.Uniform(0, 4); b > 0; --b) {
      const std::vector<Row> rows =
          RandomRows(shape, static_cast<size_t>(rng.Uniform(0, 30)), &rng);
      vec::SelVec sel;
      for (uint32_t i = 0; i < rows.size(); ++i) {
        if (rng.Bernoulli(0.4)) sel.push_back(i);
      }
      right.push_back(
          MakeBatch(rows, width, RandomTags(shape, &rng), std::move(sel)));
    }

    ColumnJoinTable table;
    table.Build(left, spec);
    std::vector<vec::SelVec> li, ri;
    ASSERT_TRUE(ColumnJoinTable::FlippedMatches(left, right, spec, nullptr,
                                                &li, &ri)
                    .ok());
    ASSERT_EQ(li.size(), right.size());
    ASSERT_EQ(ri.size(), right.size());
    for (size_t b = 0; b < right.size(); ++b) {
      vec::SelVec want_li, want_ri;
      ASSERT_TRUE(table.Probe(right[b], spec, nullptr, &want_li, &want_ri)
                      .ok());
      EXPECT_EQ(li[b], want_li) << "batch " << b;
      EXPECT_EQ(ri[b], want_ri) << "batch " << b;
    }
  }
}

// The cells that RowKey keeps apart or together, one key column wide:
// an int64 never equals a double, -0.0 equals 0.0, NaN equals nothing
// (each NaN row is a group of its own) and NULL equals NULL.
TEST(KeyIndexTest, EdgeCellsFollowStructuralEquality) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Row> rows = {
      {Value::Int64(0)},     {Value::Double(0.0)}, {Value::Double(-0.0)},
      {Value::Double(nan)},  {Value::Double(nan)}, {Value::Null()},
      {Value::Null()},       {Value::String("0")}, {Value::Int64(0)},
  };
  const vec::ColumnBatch batch =
      MakeBatch(rows, 1, {true}, vec::RangeSel(0, rows.size()));
  std::vector<uint64_t> hashes;
  std::vector<bool> nulls;
  KeyIndex::HashRows(batch, {0}, &hashes, &nulls);
  EXPECT_EQ(hashes[1], hashes[2]);
  EXPECT_EQ(nulls, (std::vector<bool>{false, false, false, false, false,
                                      true, true, false, false}));
  std::vector<uint32_t> ids;
  KeyIndex groups;
  groups.Lookup(batch, {0}, KeyIndex::Mode::kGroup, &ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 1, 2, 3, 4, 4, 5, 0}));
  KeyIndex join_keys;
  join_keys.Lookup(batch, {0}, KeyIndex::Mode::kBuild, &ids);
  const uint32_t kNone = KeyIndex::kNone;
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 1, 2, 3, kNone, kNone, 4, 0}));
}

// The typed key paths against the cell path: one index is fed the same
// values as typed NULL-free columns, then as kValue columns, then as
// typed columns with NULLs, in batches; its ids and keys() must equal a
// first-seen RowKey map's all along.
TEST(KeyIndexTest, TypedValueAndNullBatchesShareOneNumbering) {
  Rng rng(0x7e9d);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Shape shape = RandomShape(&rng);
    for (Family& f : shape.families) {
      if (f == Family::kMixed) f = Family::kInt64;
    }
    const size_t width = shape.families.size();
    std::vector<Row> rows =
        RandomRows(shape, static_cast<size_t>(rng.Uniform(1, 50)), &rng);
    for (Row& row : rows) {
      for (size_t c = 0; c < width; ++c) {
        while (row[c].is_null()) row[c] = RandomValue(shape.families[c], &rng);
      }
    }
    std::vector<Row> with_nulls = rows;
    for (Row& row : with_nulls) {
      for (Value& v : row) {
        if (rng.Bernoulli(0.2)) v = Value::Null();
      }
    }
    KeyIndex index;
    std::unordered_map<RowKey, uint32_t, RowKeyHash> expected;
    std::vector<Row> first_seen;
    std::vector<uint32_t> ids;
    for (int round = 0; round < 3; ++round) {
      const std::vector<Row>& input = round == 2 ? with_nulls : rows;
      const vec::ColumnBatch batch = MakeBatch(
          input, width, std::vector<bool>(width, round == 1),
          RandomSel(input.size(), &rng));
      for (size_t c : shape.keys) {
        EXPECT_EQ(batch.columns[c]->tag == vec::ColumnTag::kValue,
                  round == 1);
      }
      index.Lookup(batch, shape.keys, KeyIndex::Mode::kGroup, &ids);
      for (size_t k = 0; k < batch.NumRows(); ++k) {
        RowKey key;
        for (size_t c : shape.keys) {
          key.values.push_back(input[batch.sel[k]][c]);
        }
        auto it = expected.find(key);
        if (it == expected.end()) {
          first_seen.push_back(key.values);
          const uint32_t id = static_cast<uint32_t>(expected.size());
          it = expected.emplace(std::move(key), id).first;
        }
        ASSERT_EQ(ids[k], it->second) << "round " << round << " row " << k;
      }
    }
    ASSERT_EQ(index.size(), first_seen.size());
    for (size_t id = 0; id < first_seen.size(); ++id) {
      for (size_t c = 0; c < shape.keys.size(); ++c) {
        const Value got = index.keys()[c].GetValue(id);
        const Value& want = first_seen[id][c];
        const bool both_nan = got.is_double() && want.is_double() &&
                              std::isnan(got.dbl()) && std::isnan(want.dbl());
        EXPECT_TRUE(both_nan || got.StructurallyEquals(want))
            << "id " << id << " column " << c;
      }
    }
  }
}

// HashRows' typed column passes give each row the hash of the per-cell
// formula: fold (h ^ cell) * golden, h ^ h >> 32 over the key cells,
// where a cell is an int64 as its bits, a double as its bits (-0.0 as
// 0.0), a string as std::hash of its bytes and NULL as the golden ratio.
// Spill partitions and table slots depend on these values.
TEST(KeyIndexTest, HashRowsEqualsThePerCellFormula) {
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  auto cell_hash = [&](const Value& v) -> uint64_t {
    if (v.is_null()) return kGolden;
    if (v.is_int64()) return static_cast<uint64_t>(v.int64());
    if (v.is_double()) {
      return std::bit_cast<uint64_t>(v.dbl() == 0 ? 0.0 : v.dbl());
    }
    return std::hash<std::string_view>()(v.str());
  };
  Rng rng(0x4a5b);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Shape shape = RandomShape(&rng);
    const std::vector<Row> rows =
        RandomRows(shape, static_cast<size_t>(rng.Uniform(0, 70)), &rng);
    const vec::ColumnBatch batch =
        MakeBatch(rows, shape.families.size(), RandomTags(shape, &rng),
                  RandomSel(rows.size(), &rng));
    std::vector<uint64_t> hashes;
    std::vector<bool> nulls;
    KeyIndex::HashRows(batch, shape.keys, &hashes, &nulls);
    ASSERT_EQ(hashes.size(), batch.NumRows());
    for (size_t k = 0; k < batch.NumRows(); ++k) {
      uint64_t h = 0;
      bool has_null = false;
      for (size_t c : shape.keys) {
        const Value& v = rows[batch.sel[k]][c];
        has_null |= v.is_null();
        h = (h ^ cell_hash(v)) * kGolden;
        h ^= h >> 32;
      }
      EXPECT_EQ(hashes[k], h) << "row " << k;
      EXPECT_EQ(nulls[k], has_null) << "row " << k;
    }
  }
}

}  // namespace
}  // namespace exec_internal
}  // namespace cgq
