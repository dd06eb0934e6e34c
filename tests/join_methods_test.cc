#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "tpch/tpch.h"
#include "exec/executor.h"

namespace cgq {
namespace {

// The optimizer labels each join with its physical method: hash when a
// usable equi-conjunct exists, nested loop otherwise.
class JoinMethodsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.scale_factor = 0.002;
    catalog_ = std::make_unique<Catalog>(*tpch::BuildCatalog(config_));
    policies_ = std::make_unique<PolicyCatalog>(catalog_.get());
    EXPECT_TRUE(tpch::InstallUnrestrictedPolicies(policies_.get()).ok());
    net_ = std::make_unique<NetworkModel>(NetworkModel::DefaultGeo(5));
  }

  static void CollectMethods(const PlanNode& n,
                             std::vector<JoinMethod>* out) {
    if (n.kind() == PlanKind::kJoin) out->push_back(n.join_method);
    for (const auto& c : n.children()) CollectMethods(*c, out);
  }

  /// Optimizes and runs `sql` over TPC-H data on `mode`.
  Result<QueryResult> Run(const std::string& sql, ExecMode mode,
                          const OptimizerOptions& opts = OptimizerOptions()) {
    if (store_ == nullptr) {
      store_ = std::make_unique<TableStore>();
      CGQ_CHECK(tpch::GenerateData(*catalog_, config_, store_.get()).ok());
    }
    QueryOptimizer optimizer(catalog_.get(), policies_.get(), net_.get(),
                             opts);
    CGQ_ASSIGN_OR_RETURN(OptimizedQuery q, optimizer.Optimize(sql));
    ExecutorOptions exec;
    exec.mode = mode;
    return Executor(store_.get(), net_.get(), exec).Execute(q);
  }

  /// The one value `sql` returns on `mode`.
  int64_t Count(const std::string& sql, ExecMode mode,
                const OptimizerOptions& opts = OptimizerOptions()) {
    auto r = Run(sql, mode, opts);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status();
    if (!r.ok() || r->rows.size() != 1 || !r->rows[0][0].is_int64()) {
      ADD_FAILURE() << sql << ": not one int64 value";
      return -1;
    }
    return r->rows[0][0].int64();
  }

  tpch::TpchConfig config_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<TableStore> store_;
  std::unique_ptr<PolicyCatalog> policies_;
  std::unique_ptr<NetworkModel> net_;
};

TEST_F(JoinMethodsTest, OptimizerLabelsEquiJoinsHashByDefault) {
  OptimizerOptions opts;
  QueryOptimizer optimizer(catalog_.get(), policies_.get(), net_.get(),
                           opts);
  auto plan = optimizer.Optimize(*tpch::Query(5));
  ASSERT_TRUE(plan.ok());
  std::vector<JoinMethod> methods;
  CollectMethods(*plan->plan, &methods);
  ASSERT_FALSE(methods.empty());
  for (JoinMethod m : methods) EXPECT_EQ(m, JoinMethod::kHash);
}

TEST_F(JoinMethodsTest, CrossJoinFallsBackToNestedLoop) {
  Catalog catalog;
  (void)*catalog.mutable_locations().AddLocation("z");
  for (const char* name : {"t1", "t2"}) {
    TableDef t;
    t.name = name;
    t.schema = Schema({{"a", DataType::kInt64}});
    t.fragments = {TableFragment{0, 1.0}};
    t.stats.row_count = 3;
    (void)catalog.AddTable(t);
  }
  Engine engine(std::move(catalog), NetworkModel::DefaultGeo(1));
  engine.store().Put(0, "t1",
                     {{Value::Int64(1)}, {Value::Int64(2)}});
  engine.store().Put(0, "t2", {{Value::Int64(7)}, {Value::Int64(8)}});
  auto plan = engine.Optimize("SELECT t1.a, t2.a AS b FROM t1, t2");
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<JoinMethod> methods;
  CollectMethods(*plan->plan, &methods);
  ASSERT_EQ(methods.size(), 1u);
  EXPECT_EQ(methods[0], JoinMethod::kNestedLoop);
  auto r = engine.Run("SELECT t1.a, t2.a AS b FROM t1, t2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 4u);  // cross product
}

// Hash keys match structurally (int64 0 != double 0.0) while `=`
// compares numerically, so an equality across type families is a
// residual: the join runs, and is labelled, as a nested loop.
TEST_F(JoinMethodsTest, CrossFamilyEqualityIsAResidual) {
  const std::string sql =
      "SELECT COUNT(*) FROM nation n, lineitem l "
      "WHERE n.nationkey = l.discount";
  QueryOptimizer optimizer(catalog_.get(), policies_.get(), net_.get(),
                           OptimizerOptions());
  auto plan = optimizer.Optimize(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<JoinMethod> methods;
  CollectMethods(*plan->plan, &methods);
  ASSERT_EQ(methods.size(), 1u);
  EXPECT_EQ(methods[0], JoinMethod::kNestedLoop);
  for (ExecMode mode : {ExecMode::kRow, ExecMode::kFragment}) {
    SCOPED_TRACE(mode == ExecMode::kRow ? "row" : "fragment");
    EXPECT_EQ(Count(sql, mode), 1093);
    EXPECT_EQ(Count("SELECT COUNT(*) FROM lineitem l WHERE l.discount = 0",
                    mode),
              1093);
    EXPECT_EQ(Count("SELECT COUNT(*) FROM nation n, lineitem l "
                    "WHERE n.nationkey <= l.discount "
                    "AND n.nationkey >= l.discount",
                    mode),
              1093);
  }
}

// An equality of incomparable families fails as it does in a filter.
TEST_F(JoinMethodsTest, IncomparableFamiliesFailInAJoin) {
  for (ExecMode mode : {ExecMode::kRow, ExecMode::kFragment}) {
    SCOPED_TRACE(mode == ExecMode::kRow ? "row" : "fragment");
    for (const char* sql :
         {"SELECT COUNT(*) FROM nation n, region r "
          "WHERE n.name = r.regionkey",
          "SELECT COUNT(*) FROM nation n WHERE n.name = n.regionkey"}) {
      auto r = Run(sql, mode);
      ASSERT_FALSE(r.ok()) << sql;
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
      EXPECT_NE(r.status().message().find(
                    "comparing incompatible value families"),
                std::string::npos)
          << r.status();
    }
  }
}

// AND and OR run their right operand only on the rows their left operand
// left undecided, as the row evaluator does: an operand that would
// overflow or compare incomparable families on a decided row fails
// neither backend. The answers are absolute.
TEST_F(JoinMethodsTest, DecidedRowsSkipTheRightOperand) {
  const std::string from = "SELECT COUNT(*) FROM lineitem l WHERE ";
  // 4611686018427387904 is 2^62: times a quantity of 2 or more it leaves
  // int64. Every lineitem quantity is at least 1; 252 rows have 1.
  const std::vector<std::pair<std::string, int64_t>> cases = {
      {"l.quantity >= 1 OR l.quantity * 4611686018427387904 > 0", 12014},
      {"(l.quantity < 0 AND l.quantity * 4611686018427387904 > 0) "
       "OR l.quantity = 3",
       248},
      {"l.quantity >= 1 OR l.shipmode > 3", 12014},
      {"NOT (l.quantity < 1 AND l.quantity * 4611686018427387904 > 0)",
       12014},
      {"NOT (l.quantity >= 1 OR l.shipmode > 3)", 0},
      {"l.quantity IN (1.0, 'x') AND l.quantity * 4611686018427387904 > 0",
       252},
      {"l.quantity > 1 OR l.quantity * 4611686018427387904 IN "
       "(4611686018427387904, 'x')",
       12014},
  };
  for (ExecMode mode : {ExecMode::kRow, ExecMode::kFragment}) {
    SCOPED_TRACE(mode == ExecMode::kRow ? "row" : "fragment");
    for (const auto& [where, want] : cases) {
      EXPECT_EQ(Count(from + where, mode), want) << where;
    }
  }
}

// Eager aggregation merges a pushed-down COUNT by summing the partial
// counts; over an empty join that sum is still COUNT's 0, not NULL.
TEST_F(JoinMethodsTest, CountOverAnEmptyJoinIsZero) {
  const std::string sql =
      "SELECT COUNT(*) FROM nation n, lineitem l "
      "WHERE n.nationkey = l.linenumber AND n.name = 'NOPE'";
  QueryOptimizer optimizer(catalog_.get(), policies_.get(), net_.get(),
                           OptimizerOptions());
  auto plan = optimizer.Optimize(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::string text = PlanToString(*plan->plan, nullptr);
  EXPECT_NE(text.find("Aggregate(partial)"), std::string::npos) << text;
  OptimizerOptions no_pushdown;
  no_pushdown.enable_agg_pushdown = false;
  for (ExecMode mode : {ExecMode::kRow, ExecMode::kFragment}) {
    SCOPED_TRACE(mode == ExecMode::kRow ? "row" : "fragment");
    EXPECT_EQ(Count(sql, mode), 0);
    EXPECT_EQ(Count(sql, mode, no_pushdown), 0);
  }
}

// Integral SUMs are exact in int64 (2^53 + 1 is not rounded, and AVG
// divides the exact sum); a SUM or an int64 `+ - *` that leaves int64
// fails kInvalidArgument "integer overflow" instead of wrapping. Both
// backends agree, through a join and GROUP BY as well.
TEST_F(JoinMethodsTest, IntegerSumsAreExactAndOverflowIsAnError) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Catalog catalog;
  (void)*catalog.mutable_locations().AddLocation("z");
  for (const char* name : {"big", "tags"}) {
    TableDef t;
    t.name = name;
    t.schema = Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
    t.fragments = {TableFragment{0, 1.0}};
    t.stats.row_count = 5;
    (void)catalog.AddTable(t);
  }
  Engine engine(std::move(catalog), NetworkModel::DefaultGeo(1));
  engine.store().Put(0, "big",
                     {{Value::Int64(1), Value::Int64(kTwo53)},
                      {Value::Int64(1), Value::Int64(1)},
                      {Value::Int64(1), Value::Int64(1)},
                      {Value::Int64(2), Value::Int64(kMax)},
                      {Value::Int64(2), Value::Int64(kMax)}});
  engine.store().Put(0, "tags", {{Value::Int64(1), Value::Int64(0)},
                                 {Value::Int64(2), Value::Int64(0)}});
  auto overflows = [](const Result<QueryResult>& r) {
    return !r.ok() && r.status().IsInvalidArgument() &&
           r.status().message().find("integer overflow") != std::string::npos;
  };
  for (ExecMode mode : {ExecMode::kRow, ExecMode::kFragment}) {
    SCOPED_TRACE(mode == ExecMode::kRow ? "row" : "fragment");
    engine.set_exec_mode(mode);
    auto sum = engine.Run("SELECT SUM(b.v) AS s FROM big b WHERE b.k = 1");
    ASSERT_TRUE(sum.ok()) << sum.status();
    ASSERT_EQ(sum->rows.size(), 1u);
    EXPECT_TRUE(sum->rows[0][0].StructurallyEquals(Value::Int64(kTwo53 + 2)))
        << sum->rows[0][0].ToString();
    auto avg = engine.Run("SELECT AVG(b.v) AS a FROM big b WHERE b.k = 1");
    ASSERT_TRUE(avg.ok()) << avg.status();
    ASSERT_EQ(avg->rows.size(), 1u);
    EXPECT_TRUE(avg->rows[0][0].StructurallyEquals(
        Value::Double(static_cast<double>(kTwo53 + 2) / 3)))
        << avg->rows[0][0].ToString();
    auto joined = engine.Run(
        "SELECT t.k, SUM(b.v) AS s FROM big b, tags t WHERE b.k = t.k "
        "AND t.k = 1 GROUP BY t.k");
    ASSERT_TRUE(joined.ok()) << joined.status();
    ASSERT_EQ(joined->rows.size(), 1u);
    EXPECT_TRUE(
        joined->rows[0][1].StructurallyEquals(Value::Int64(kTwo53 + 2)));
    EXPECT_TRUE(overflows(
        engine.Run("SELECT SUM(b.v) AS s FROM big b WHERE b.k = 2")));
    EXPECT_TRUE(overflows(
        engine.Run("SELECT b.k, SUM(b.v) AS s FROM big b GROUP BY b.k")));
    EXPECT_TRUE(overflows(engine.Run(
        "SELECT b.k FROM big b, tags t WHERE b.k = t.k AND b.v + t.k > 0")));
    EXPECT_TRUE(overflows(engine.Run(
        "SELECT SUM(b.v * t.k) AS s FROM big b, tags t WHERE b.k = t.k")));
    EXPECT_TRUE(overflows(
        engine.Run("SELECT b.k FROM big b WHERE b.v * 2 > 0")));
  }
}

}  // namespace
}  // namespace cgq
