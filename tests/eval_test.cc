#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "exec/vector/column_batch.h"
#include "exec/vector/kernels.h"
#include "expr/eval.h"
#include "sql/parser.h"

namespace cgq {
namespace {

// Evaluates `expr_sql` (parsed as a WHERE clause) against a row binding
// unbound columns a, b, s by name.
class EvalTest : public ::testing::Test {
 protected:
  // Layout with three attrs; we bind parser output (unbound refs) manually.
  Result<Value> Eval(const std::string& pred_sql, Value a, Value b,
                     Value s) {
    auto ast = ParseQuery("SELECT x FROM t WHERE " + pred_sql);
    if (!ast.ok()) return ast.status();
    ExprPtr bound = Bind(ast->where);
    Row row = {std::move(a), std::move(b), std::move(s)};
    return EvalExpr(*bound, row, layout_);
  }

  ExprPtr Bind(const ExprPtr& e) {
    if (e->op() == ExprOp::kColumnRef) {
      AttrId id = e->column() == "a" ? 0 : (e->column() == "b" ? 1 : 2);
      DataType t = id == 2 ? DataType::kString : DataType::kInt64;
      return Expr::BoundColumn(id, "t", e->column(), "t", t);
    }
    if (e->children().empty()) return e;
    std::vector<ExprPtr> kids;
    for (const ExprPtr& c : e->children()) kids.push_back(Bind(c));
    switch (e->op()) {
      case ExprOp::kNot:
        return Expr::Unary(ExprOp::kNot, kids[0]);
      case ExprOp::kIn:
        return Expr::InList(kids[0], e->in_list());
      default:
        return Expr::Binary(e->op(), kids[0], kids[1]);
    }
  }

  RowLayout layout_{std::vector<AttrId>{0, 1, 2}};
};

TEST_F(EvalTest, Comparisons) {
  EXPECT_EQ(Eval("a > 3", Value::Int64(5), Value::Null(), Value::Null())
                ->int64(),
            1);
  EXPECT_EQ(Eval("a > 3", Value::Int64(2), Value::Null(), Value::Null())
                ->int64(),
            0);
  EXPECT_EQ(
      Eval("a = b", Value::Int64(2), Value::Int64(2), Value::Null())->int64(),
      1);
}

TEST_F(EvalTest, NullComparisonsYieldNull) {
  EXPECT_TRUE(
      Eval("a > 3", Value::Null(), Value::Null(), Value::Null())->is_null());
  EXPECT_TRUE(
      Eval("a = b", Value::Int64(1), Value::Null(), Value::Null())->is_null());
}

TEST_F(EvalTest, KleeneAndOr) {
  // NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
  EXPECT_EQ(Eval("a > 3 AND b > 3", Value::Null(), Value::Int64(1),
                 Value::Null())
                ->int64(),
            0);
  EXPECT_TRUE(Eval("a > 3 AND b > 3", Value::Null(), Value::Int64(5),
                   Value::Null())
                  ->is_null());
  // NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
  EXPECT_EQ(Eval("a > 3 OR b > 3", Value::Null(), Value::Int64(5),
                 Value::Null())
                ->int64(),
            1);
  EXPECT_TRUE(Eval("a > 3 OR b > 3", Value::Null(), Value::Int64(1),
                   Value::Null())
                  ->is_null());
}

TEST_F(EvalTest, NotOfNull) {
  EXPECT_TRUE(
      Eval("NOT a > 3", Value::Null(), Value::Null(), Value::Null())
          ->is_null());
  EXPECT_EQ(Eval("NOT a > 3", Value::Int64(1), Value::Null(), Value::Null())
                ->int64(),
            1);
}

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(Eval("a + b = 7", Value::Int64(3), Value::Int64(4),
                 Value::Null())
                ->int64(),
            1);
  EXPECT_EQ(Eval("a * b = 12", Value::Int64(3), Value::Int64(4),
                 Value::Null())
                ->int64(),
            1);
  EXPECT_EQ(Eval("a - b = -1", Value::Int64(3), Value::Int64(4),
                 Value::Null())
                ->int64(),
            1);
}

TEST_F(EvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(Eval("a / b > 0", Value::Int64(3), Value::Int64(0),
                   Value::Null())
                  ->is_null());
}

TEST_F(EvalTest, DivisionProducesDouble) {
  EXPECT_EQ(Eval("a / b = 1.5", Value::Int64(3), Value::Int64(2),
                 Value::Null())
                ->int64(),
            1);
}

TEST_F(EvalTest, LikeOnRow) {
  EXPECT_EQ(Eval("s LIKE 'A%'", Value::Null(), Value::Null(),
                 Value::String("Anna"))
                ->int64(),
            1);
  EXPECT_EQ(Eval("s NOT LIKE 'A%'", Value::Null(), Value::Null(),
                 Value::String("Anna"))
                ->int64(),
            0);
  EXPECT_TRUE(
      Eval("s LIKE 'A%'", Value::Null(), Value::Null(), Value::Null())
          ->is_null());
}

TEST_F(EvalTest, InList) {
  EXPECT_EQ(Eval("a IN (1, 2, 3)", Value::Int64(2), Value::Null(),
                 Value::Null())
                ->int64(),
            1);
  EXPECT_EQ(Eval("a IN (1, 2, 3)", Value::Int64(9), Value::Null(),
                 Value::Null())
                ->int64(),
            0);
  EXPECT_TRUE(Eval("a IN (1, 2, 3)", Value::Null(), Value::Null(),
                   Value::Null())
                  ->is_null());
}

TEST_F(EvalTest, PredicateHelperRejectsNull) {
  auto ast = ParseQuery("SELECT x FROM t WHERE a > 3");
  ExprPtr bound = Bind(ast->where);
  Row row = {Value::Null(), Value::Null(), Value::Null()};
  auto r = EvalPredicate(*bound, row, layout_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // NULL predicate filters the row out
}

TEST(AggAccumulatorTest, SumIgnoresNulls) {
  AggAccumulator acc(AggFn::kSum);
  acc.Add(Value::Int64(2));
  acc.Add(Value::Null());
  acc.Add(Value::Int64(5));
  EXPECT_EQ(acc.Finish().int64(), 7);
}

TEST(AggAccumulatorTest, SumOfDoublesStaysDouble) {
  AggAccumulator acc(AggFn::kSum);
  acc.Add(Value::Double(1.5));
  acc.Add(Value::Int64(2));
  EXPECT_DOUBLE_EQ(acc.Finish().dbl(), 3.5);
}

TEST(AggAccumulatorTest, EmptySumIsNull) {
  AggAccumulator acc(AggFn::kSum);
  EXPECT_TRUE(acc.Finish().is_null());
}

TEST(AggAccumulatorTest, CountCountsNonNulls) {
  AggAccumulator acc(AggFn::kCount);
  acc.Add(Value::Int64(1));
  acc.Add(Value::Null());
  acc.Add(Value::String("x"));
  EXPECT_EQ(acc.Finish().int64(), 2);
}

TEST(AggAccumulatorTest, EmptyCountIsZero) {
  AggAccumulator acc(AggFn::kCount);
  EXPECT_EQ(acc.Finish().int64(), 0);
}

TEST(AggAccumulatorTest, Avg) {
  AggAccumulator acc(AggFn::kAvg);
  acc.Add(Value::Int64(2));
  acc.Add(Value::Int64(4));
  EXPECT_DOUBLE_EQ(acc.Finish().dbl(), 3.0);
}

TEST(AggAccumulatorTest, MinMax) {
  AggAccumulator mn(AggFn::kMin), mx(AggFn::kMax);
  for (int v : {5, 2, 9, 3}) {
    mn.Add(Value::Int64(v));
    mx.Add(Value::Int64(v));
  }
  EXPECT_EQ(mn.Finish().int64(), 2);
  EXPECT_EQ(mx.Finish().int64(), 9);
}

TEST(AggAccumulatorTest, MinMaxStrings) {
  AggAccumulator mn(AggFn::kMin);
  mn.Add(Value::String("pear"));
  mn.Add(Value::String("apple"));
  EXPECT_EQ(mn.Finish().str(), "apple");
}

constexpr int64_t kMaxInt = std::numeric_limits<int64_t>::max();
constexpr int64_t kMinInt = std::numeric_limits<int64_t>::min();
constexpr int64_t kTwo53 = int64_t{1} << 53;

bool IsOverflow(const Status& s) {
  return s.IsInvalidArgument() &&
         s.message().find("integer overflow") != std::string::npos;
}

TEST_F(EvalTest, IntegerOverflowIsAnError) {
  const std::vector<std::pair<const char*, int64_t>> cases = {
      {"a + b > 0", 1}, {"a - b > 0", -1}, {"a * b > 0", 2}};
  for (const auto& [sql, b] : cases) {
    auto r = Eval(sql, Value::Int64(kMaxInt), Value::Int64(b), Value::Null());
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(IsOverflow(r.status())) << sql << ": " << r.status();
  }
  auto min_minus = Eval("a - b > 0", Value::Int64(kMinInt), Value::Int64(1),
                        Value::Null());
  EXPECT_TRUE(!min_minus.ok() && IsOverflow(min_minus.status()));
  // The edges themselves are fine, and doubles never overflow.
  auto edge = EvalArithmeticValues(ExprOp::kAdd, Value::Int64(kMaxInt - 1),
                                   Value::Int64(1));
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge->int64(), kMaxInt);
  auto dbl = EvalArithmeticValues(ExprOp::kAdd, Value::Int64(kMaxInt),
                                  Value::Double(1));
  ASSERT_TRUE(dbl.ok());
  EXPECT_TRUE(dbl->is_double());
}

// The kernel's typed int64 path fails the same way as the scalar one.
TEST_F(EvalTest, KernelIntegerOverflowIsAnError) {
  vec::ColumnVector col;
  col.AppendInt64(1);
  col.AppendInt64(kMaxInt);
  vec::ColumnBatch batch = vec::DenseBatch(RowLayout({0}), {col}, 2);
  ExprPtr a = Expr::BoundColumn(0, "t", "a", "t", DataType::kInt64);
  for (ExprOp op : {ExprOp::kAdd, ExprOp::kMul}) {
    ExprPtr e = Expr::Binary(op, a, Expr::Literal(Value::Int64(2)));
    auto all = vec::EvalExprVec(*e, batch, batch.sel);
    ASSERT_FALSE(all.ok());
    EXPECT_TRUE(IsOverflow(all.status())) << all.status();
    auto first = vec::EvalExprVec(*e, batch, vec::SelVec{0});
    ASSERT_TRUE(first.ok()) << first.status();
  }
  ExprPtr neg = Expr::Binary(ExprOp::kSub, Expr::Literal(Value::Int64(-2)), a);
  auto r = vec::EvalExprVec(*neg, batch, batch.sel);
  EXPECT_TRUE(!r.ok() && IsOverflow(r.status()));
}

// FilterSel narrows the selection directly for typed comparisons; it
// must keep exactly the rows of the boolean-column path (EvalExprVec,
// then truthiness), and of the scalar evaluator.
TEST(FilterSelTest, DirectComparisonsKeepTheBooleanColumnRows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::mt19937_64 rng(7);
  const size_t n = 150;
  std::vector<Row> rows(n);
  for (Row& row : rows) {
    const int p = static_cast<int>(rng() % 100);
    const int64_t i = static_cast<int64_t>(rng() % 7) - 3;
    static const double kDoubles[] = {-3.0, -0.0, 0.0, 1.5, 2.0, nan};
    static const char* kStrings[] = {"", "a", "ab", "b"};
    row = {
        p < 10 ? Value::Null() : Value::Int64(i),                   // 1 int
        p % 11 == 0 ? Value::Null()                                 // 2 dbl
                    : Value::Double(kDoubles[rng() % 6]),
        p % 13 == 0 ? Value::Null()                                 // 3 str
                    : Value::String(kStrings[rng() % 4]),
        Value::Int64(i + 1),                                        // 4 int
        Value::Double(kDoubles[rng() % 5]),                         // 5 dbl
        p % 2 == 0 ? Value::Int64(i) : Value::Double(i * 0.5),      // 6 mixed
        Value::Null(),                                              // 7 null
    };
  }
  const RowLayout layout({1, 2, 3, 4, 5, 6, 7});
  vec::ColumnBatch batch = vec::FromRows(layout, rows).ValueOrDie();
  ASSERT_EQ(batch.columns[5]->tag, vec::ColumnTag::kValue);
  auto col = [](AttrId id) {
    const DataType t = id == 3 ? DataType::kString
                       : id == 2 || id == 5 || id == 6 ? DataType::kDouble
                                                       : DataType::kInt64;
    const std::string n = std::to_string(id);
    return Expr::BoundColumn(id, "t", "c" + n, "t", t);
  };
  auto lit = [](Value v) { return Expr::Literal(std::move(v)); };
  // Numeric operands: columns, constants of both types, NaN, -0.0, NULL
  // and an arithmetic (kernel-owned) column; strings likewise.
  const std::vector<ExprPtr> numeric = {
      col(1), col(2), col(4), col(5), col(6), col(7),
      lit(Value::Int64(0)), lit(Value::Int64(-1)), lit(Value::Double(0.0)),
      lit(Value::Double(-0.0)), lit(Value::Double(1.5)),
      lit(Value::Double(nan)),
      lit(Value::Null()),
      Expr::Binary(ExprOp::kAdd, col(1), lit(Value::Int64(1))),
      Expr::Binary(ExprOp::kMul, col(2), lit(Value::Double(2.0)))};
  const std::vector<ExprPtr> strings = {col(3), lit(Value::String("a")),
                                        lit(Value::String("")),
                                        lit(Value::Null())};
  const std::vector<vec::SelVec> sels = {
      vec::RangeSel(0, n), vec::RangeSel(5, 70),
      [&] {
        vec::SelVec s;
        for (uint32_t i = 0; i < n; i += 1 + rng() % 3) s.push_back(i);
        return s;
      }()};
  int checked = 0;
  for (ExprOp op : {ExprOp::kEq, ExprOp::kNe, ExprOp::kLt, ExprOp::kLe,
                    ExprOp::kGt, ExprOp::kGe}) {
    for (const auto* pool : {&numeric, &strings}) {
      for (const ExprPtr& l : *pool) {
        for (const ExprPtr& r : *pool) {
          const ExprPtr cmp = Expr::Binary(op, l, r);
          for (const vec::SelVec& sel : sels) {
            SCOPED_TRACE(cmp->ToString() + " over " +
                         std::to_string(sel.size()) + " rows");
            auto v = vec::EvalExprVec(*cmp, batch, sel);
            ASSERT_TRUE(v.ok()) << v.status();
            vec::SelVec want;
            for (size_t k = 0; k < sel.size(); ++k) {
              if (IsTruthyValue(v->At(sel, k))) want.push_back(sel[k]);
            }
            vec::SelVec scalar;
            for (uint32_t i : sel) {
              auto keep = EvalPredicate(*cmp, rows[i], layout);
              ASSERT_TRUE(keep.ok()) << keep.status();
              if (*keep) scalar.push_back(i);
            }
            vec::SelVec got = sel;
            ASSERT_TRUE(vec::FilterSel({cmp}, batch, &got).ok());
            EXPECT_EQ(got, want);
            EXPECT_EQ(got, scalar);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 6 * (15 * 15 + 4 * 4) * 3);
}

// A comparison of incomparable families still fails from FilterSel.
TEST(FilterSelTest, IncomparableFamiliesFail) {
  vec::ColumnBatch batch =
      vec::FromRows(RowLayout({1}), {{Value::String("x")}}).ValueOrDie();
  ExprPtr cmp = Expr::Binary(
      ExprOp::kEq, Expr::BoundColumn(1, "t", "s", "t", DataType::kString),
      Expr::Literal(Value::Int64(1)));
  vec::SelVec sel = batch.sel;
  Status s = vec::FilterSel({cmp}, batch, &sel);
  EXPECT_TRUE(s.IsInvalidArgument()) << s;
}

// Random predicate trees over typed, NULL-bearing and kValue columns,
// against the scalar evaluator row by row. The trees nest AND, OR, NOT,
// comparisons, IN, LIKE and arithmetic (booleans inside arithmetic too),
// with operands that overflow int64 (x * 2^62) or compare incomparable
// families on some rows. The row evaluator short-circuits AND and OR, so
// such an operand fails only where it is reached; the kernels must agree
// on whether evaluation fails, on every row's value, and on the rows
// FilterSel keeps.
class RandomTrees {
 public:
  explicit RandomTrees(uint64_t seed) : rng_(seed) {}

  ExprPtr Bool(int depth) {
    switch (Pick(depth > 0 ? 10 : 7) + (depth > 0 ? 0 : 3)) {
      case 0:
        return Expr::Binary(ExprOp::kAnd, Bool(depth - 1), Bool(depth - 1));
      case 1:
        return Expr::Binary(ExprOp::kOr, Bool(depth - 1), Bool(depth - 1));
      case 2:
        return Expr::Unary(ExprOp::kNot, Bool(depth - 1));
      case 3:
      case 4:
        return Expr::Binary(CompareOp(), Numeric(depth - 1),
                            Numeric(depth - 1));
      case 5:
        return Expr::Binary(CompareOp(), String(), String());
      case 6:  // family mixes fail on some rows
        return Expr::Binary(CompareOp(), Any(depth - 1), Any(depth - 1));
      case 7: {
        static const Value kPool[] = {
            Value::Null(),        Value::Int64(0),     Value::Int64(1),
            Value::Int64(-2),     Value::Double(1.5),  Value::Double(-0.0),
            Value::Double(kNaN),  Value::String("a"),  Value::String(""),
            Value::Int64(kTwo62)};
        std::vector<Value> list;
        for (int n = 1 + Pick(4); n > 0; --n) list.push_back(kPool[Pick(10)]);
        return Expr::InList(Any(depth - 1), std::move(list));
      }
      case 8: {
        static const char* kPatterns[] = {"a%", "%b", "_", ""};
        ExprPtr pattern = Lit(Value::String(kPatterns[Pick(4)]));
        if (Pick(4) == 0) pattern = Pick(2) ? Col(3) : Lit(Value::Null());
        ExprPtr value = Pick(6) == 0 ? Any(depth - 1) : String();
        return Expr::Binary(Pick(2) ? ExprOp::kLike : ExprOp::kNotLike,
                            std::move(value), std::move(pattern));
      }
      default:  // truthiness of a value
        return Pick(3) == 0 ? Col(3) : Numeric(depth - 1);
    }
  }

  ExprPtr Numeric(int depth) {
    if (depth > 0 && Pick(3) == 0) {
      if (Pick(4) == 0) return Bool(depth - 1);
      static const ExprOp kOps[] = {ExprOp::kAdd, ExprOp::kSub, ExprOp::kMul,
                                    ExprOp::kDiv};
      return Expr::Binary(kOps[Pick(4)], Numeric(depth - 1),
                          Numeric(depth - 1));
    }
    static const AttrId kCols[] = {1, 2, 4, 5, 7};
    static const Value kLits[] = {Value::Int64(0),      Value::Int64(1),
                                  Value::Int64(-2),     Value::Int64(kTwo62),
                                  Value::Double(1.5),   Value::Double(-0.0),
                                  Value::Double(kNaN),  Value::Null()};
    return Pick(2) ? Col(kCols[Pick(5)]) : Lit(kLits[Pick(8)]);
  }

  ExprPtr String() {
    static const char* kLits[] = {"a", "", "ab"};
    if (Pick(5) == 0) return Lit(Value::Null());
    return Pick(2) ? Col(3) : Lit(Value::String(kLits[Pick(3)]));
  }

  /// Any family: numeric, string, or the int/string column.
  ExprPtr Any(int depth) {
    switch (Pick(3)) {
      case 0:
        return Numeric(depth);
      case 1:
        return String();
      default:
        return Col(6);
    }
  }

  static constexpr int64_t kTwo62 = int64_t{1} << 62;
  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

 private:
  int Pick(int n) { return static_cast<int>(rng_() % uint64_t(n)); }
  ExprOp CompareOp() {
    static const ExprOp kOps[] = {ExprOp::kEq, ExprOp::kNe, ExprOp::kLt,
                                  ExprOp::kLe, ExprOp::kGt, ExprOp::kGe};
    return kOps[Pick(6)];
  }
  static ExprPtr Lit(Value v) { return Expr::Literal(std::move(v)); }
  static ExprPtr Col(AttrId id) {
    const DataType t = id == 3 ? DataType::kString
                       : id == 2 || id == 5 ? DataType::kDouble
                                            : DataType::kInt64;
    const std::string n = std::to_string(id);
    return Expr::BoundColumn(id, "t", "c" + n, "t", t);
  }

  std::mt19937_64 rng_;
};

bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double() && std::isnan(a.dbl())) {
    return std::isnan(b.dbl());
  }
  return a.StructurallyEquals(b);
}

TEST(FilterSelTest, RandomTreesMatchTheRowEvaluator) {
  std::mt19937_64 rng(28);
  const size_t n = 64;
  std::vector<Row> rows(n);
  for (Row& row : rows) {
    auto null = [&] { return rng() % 6 == 0; };
    static const double kDoubles[] = {-3.0, -0.0, 0.0, 1.5, 2.0,
                                      RandomTrees::kNaN};
    static const char* kStrings[] = {"", "a", "ab", "b", "ba"};
    const int64_t i = static_cast<int64_t>(rng() % 7) - 3;
    row = {
        null() ? Value::Null() : Value::Int64(i),                      // 1
        null() ? Value::Null() : Value::Double(kDoubles[rng() % 6]),   // 2
        null() ? Value::Null() : Value::String(kStrings[rng() % 5]),   // 3
        Value::Int64(static_cast<int64_t>(rng() % 8) - 2),             // 4
        null()          ? Value::Null()                                // 5
        : rng() % 2 == 0 ? Value::Int64(i)
                         : Value::Double(kDoubles[rng() % 6]),
        null()          ? Value::Null()                                // 6
        : rng() % 3 == 0 ? Value::String(kStrings[rng() % 5])
                         : Value::Int64(i),
        Value::Null(),                                                 // 7
    };
  }
  const RowLayout layout({1, 2, 3, 4, 5, 6, 7});
  const vec::ColumnBatch batch = vec::FromRows(layout, rows).ValueOrDie();
  ASSERT_EQ(batch.columns[1]->tag, vec::ColumnTag::kDouble);
  ASSERT_EQ(batch.columns[4]->tag, vec::ColumnTag::kValue);
  ASSERT_EQ(batch.columns[5]->tag, vec::ColumnTag::kValue);
  const std::vector<vec::SelVec> sels = {
      vec::RangeSel(0, n), vec::RangeSel(9, 40), vec::SelVec{},
      [&] {
        vec::SelVec s;
        for (uint32_t i = 0; i < n; i += 1 + rng() % 4) s.push_back(i);
        return s;
      }()};

  RandomTrees trees(0x5eed);
  int succeeded = 0, failed = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const ExprPtr tree = trees.Bool(1 + trial % 4);
    for (const vec::SelVec& sel : sels) {
      SCOPED_TRACE(tree->ToString() + " over " + std::to_string(sel.size()) +
                   " rows");
      bool scalar_fails = false;
      std::vector<Value> values;
      vec::SelVec kept;
      for (uint32_t i : sel) {
        auto v = EvalExpr(*tree, rows[i], layout);
        if (!v.ok()) {
          scalar_fails = true;
          break;
        }
        if (IsTruthyValue(*v)) kept.push_back(i);
        values.push_back(*std::move(v));
      }
      auto got = vec::EvalExprVec(*tree, batch, sel);
      vec::SelVec filtered = sel;
      const Status filter = vec::FilterSel({tree}, batch, &filtered);
      ASSERT_EQ(got.ok(), !scalar_fails) << got.status();
      ASSERT_EQ(filter.ok(), !scalar_fails) << filter;
      if (scalar_fails) {
        ++failed;
        continue;
      }
      ++succeeded;
      EXPECT_EQ(filtered, kept);
      for (size_t k = 0; k < sel.size(); ++k) {
        ASSERT_TRUE(SameValue(got->At(sel, k), values[k]))
            << "row " << sel[k] << ": " << got->At(sel, k).ToString()
            << " vs " << values[k].ToString();
      }
    }
  }
  // Both outcomes are common, so both directions are exercised.
  EXPECT_GT(succeeded, 4000);
  EXPECT_GT(failed, 1000);
}

TEST(AggAccumulatorTest, IntegralSumIsExact) {
  AggAccumulator sum(AggFn::kSum);
  ASSERT_TRUE(sum.Add(Value::Int64(kTwo53)).ok());
  ASSERT_TRUE(sum.Add(Value::Int64(1)).ok());
  EXPECT_TRUE(sum.Finish().StructurallyEquals(Value::Int64(kTwo53 + 1)));
  // AVG divides the exact sum: (2^53 + 1 + 2) / 2, not (2^53 + 2) / 2.
  AggAccumulator avg(AggFn::kAvg);
  ASSERT_TRUE(avg.Add(Value::Int64(kTwo53 + 1)).ok());
  ASSERT_TRUE(avg.Add(Value::Int64(2)).ok());
  EXPECT_EQ(avg.Finish().dbl(), static_cast<double>(kTwo53 + 3) / 2);
  // A double switches the sum to double from the exact prefix on.
  ASSERT_TRUE(sum.Add(Value::Double(0.5)).ok());
  EXPECT_TRUE(sum.Finish().StructurallyEquals(
      Value::Double(static_cast<double>(kTwo53 + 1) + 0.5)));
}

TEST(AggAccumulatorTest, IntegralSumOverflowIsAnError) {
  AggAccumulator sum(AggFn::kSum);
  ASSERT_TRUE(sum.Add(Value::Int64(kMaxInt)).ok());
  Status s = sum.Add(Value::Int64(kMaxInt));
  EXPECT_TRUE(IsOverflow(s)) << s;
  AggAccumulator low(AggFn::kSum);
  ASSERT_TRUE(low.Add(Value::Int64(kMinInt)).ok());
  EXPECT_FALSE(low.AddInt64(-1));
  // AVG's result is a double: it continues in double instead.
  AggAccumulator avg(AggFn::kAvg);
  ASSERT_TRUE(avg.Add(Value::Int64(kMaxInt)).ok());
  ASSERT_TRUE(avg.Add(Value::Int64(kMaxInt)).ok());
  EXPECT_EQ(avg.Finish().dbl(), static_cast<double>(kMaxInt));
}

/// The Value fold the typed one must equal: MIN/MAX through
/// Value::Compare, COUNT of non-NULLs, and a sum exact while integral
/// that continues in double, in input order, once a double arrives.
Value ReferenceFold(AggFn fn, const std::vector<Value>& in) {
  int64_t count = 0;
  __int128 exact = 0;
  bool integral = true;
  double sum = 0;
  Value extreme;
  for (const Value& v : in) {
    if (v.is_null()) continue;
    ++count;
    if (integral && v.is_int64()) {
      exact += v.int64();
    } else {
      if (integral) sum = static_cast<double>(static_cast<int64_t>(exact));
      integral = false;
      sum += v.AsDouble();
    }
    const int c = extreme.is_null() ? 0 : v.Compare(extreme);
    if (extreme.is_null() || (fn == AggFn::kMin ? c < 0 : c > 0)) {
      extreme = v;
    }
  }
  switch (fn) {
    case AggFn::kCount:
      return Value::Int64(count);
    case AggFn::kSum:
      if (count == 0) return Value::Null();
      return integral ? Value::Int64(static_cast<int64_t>(exact))
                      : Value::Double(sum);
    case AggFn::kAvg:
      if (count == 0) return Value::Null();
      return Value::Double(
          (integral ? static_cast<double>(static_cast<int64_t>(exact)) : sum) /
          static_cast<double>(count));
    default:
      return extreme;
  }
}

bool SameBits(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    uint64_t x, y;
    double da = a.dbl(), db = b.dbl();
    std::memcpy(&x, &da, 8);
    std::memcpy(&y, &db, 8);
    return x == y;
  }
  return a.StructurallyEquals(b);
}

// The typed fold (AddInt64 / AddDouble per cell) equals the reference
// Value fold, for MIN/MAX over NaN and -0.0 beside 0.0 too.
TEST(AggAccumulatorTest, TypedFoldEqualsValueFold) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Value> in(rng() % 12);
    const int shape = trial % 4;  // ints, doubles, ints then doubles, mixed
    for (size_t i = 0; i < in.size(); ++i) {
      const int p = static_cast<int>(rng() % 100);
      const bool as_int = shape == 0 || (shape == 2 && i < in.size() / 2) ||
                          (shape == 3 && p % 2 == 0);
      static const double kDoubles[] = {-0.0, 0.0, 1.5, -2.25, nan, 3.0};
      if (p < 10) {
        in[i] = Value::Null();
      } else if (as_int) {
        in[i] = Value::Int64(p % 3 == 0 ? kTwo53
                                        : static_cast<int64_t>(p) - 50);
      } else {
        in[i] = Value::Double(kDoubles[rng() % 6]);
      }
    }
    for (AggFn fn : {AggFn::kCount, AggFn::kSum, AggFn::kAvg, AggFn::kMin,
                     AggFn::kMax}) {
      AggAccumulator typed(fn);
      for (const Value& v : in) {
        if (v.is_int64()) {
          ASSERT_TRUE(typed.AddInt64(v.int64()));
        } else if (v.is_double()) {
          typed.AddDouble(v.dbl());
        }
      }
      const Value want = ReferenceFold(fn, in);
      EXPECT_TRUE(SameBits(typed.Finish(), want))
          << "trial " << trial << " fn " << static_cast<int>(fn) << ": "
          << typed.Finish().ToString() << " vs " << want.ToString();
    }
  }
}

}  // namespace
}  // namespace cgq
