#include <gtest/gtest.h>

#include <string>

#include "core/policy.h"
#include "core/policy_evaluator.h"
#include "plan/binder.h"
#include "plan/builder.h"
#include "plan/summary.h"
#include "sql/parser.h"

namespace cgq {
namespace {

// Every fixture below runs against both index modes: the flat walk and the
// hierarchical bucket index must reach identical decisions.
std::string ModeName(const ::testing::TestParamInfo<PolicyIndexMode>& info) {
  return info.param == PolicyIndexMode::kFlat ? "Flat" : "Hierarchical";
}

// Fixture replicating Table 1 of the paper: relation T(A..G) with policy
// expressions e1-e4 over locations l1-l4.
class Table1Test : public ::testing::TestWithParam<PolicyIndexMode> {
 protected:
  void SetUp() override {
    for (const char* l : {"l1", "l2", "l3", "l4"}) {
      ASSERT_TRUE(catalog_.mutable_locations().AddLocation(l).ok());
    }
    TableDef t;
    t.name = "t";
    std::vector<ColumnDef> cols;
    for (const char* c : {"a", "b", "c", "d", "e", "f", "g"}) {
      cols.push_back({c, DataType::kInt64});
    }
    t.schema = Schema(cols);
    t.fragments = {TableFragment{0, 1.0}};  // home: l1
    t.stats.row_count = 1000;
    ASSERT_TRUE(catalog_.AddTable(t).ok());

    policies_ = std::make_unique<PolicyCatalog>(&catalog_, GetParam());
    ASSERT_OK(policies_->AddPolicyText("l1", "ship a, b, c from t to l2, l3"));
    ASSERT_OK(policies_->AddPolicyText(
        "l1", "ship a, b from t to l1, l2, l3, l4"));
    ASSERT_OK(policies_->AddPolicyText(
        "l1", "ship a, d from t to l1, l3 where b > 10"));
    ASSERT_OK(policies_->AddPolicyText(
        "l1",
        "ship f, g as aggregates sum, avg from t to l1, l2 group by e, c"));
    evaluator_ = std::make_unique<PolicyEvaluator>(&catalog_, policies_.get());
  }

  static void ASSERT_OK(const Status& s) { ASSERT_TRUE(s.ok()) << s; }

  LocationSet Eval(const std::string& sql) {
    auto ast = ParseQuery(sql);
    EXPECT_TRUE(ast.ok()) << ast.status();
    PlannerContext ctx(&catalog_);
    auto bound = BindQuery(*ast, &ctx);
    EXPECT_TRUE(bound.ok()) << bound.status();
    auto plan = BuildLogicalPlan(*bound, &ctx);
    EXPECT_TRUE(plan.ok()) << plan.status();
    QuerySummary summary = SummarizePlan(*plan->root);
    EXPECT_TRUE(summary.IsSingleDatabaseBlock());
    return evaluator_->Evaluate(summary, 0);
  }

  LocationSet Locs(std::initializer_list<LocationId> ids) {
    LocationSet s;
    for (LocationId id : ids) s.Add(id);
    return s;
  }

  Catalog catalog_;
  std::unique_ptr<PolicyCatalog> policies_;
  std::unique_ptr<PolicyEvaluator> evaluator_;
};

TEST_P(Table1Test, Query1SelectProject) {
  // q1 = Π_{A,C,D}(σ_{B>15}(T))  =>  { l3 }
  EXPECT_EQ(Eval("SELECT a, c, d FROM t WHERE b > 15"), Locs({2}));
}

TEST_P(Table1Test, Query2Aggregate) {
  // q2 = Γ_{C; SUM(F*(1-G))}(T)  =>  { l1, l2 }  (§5 running text)
  EXPECT_EQ(Eval("SELECT c, SUM(f * (1 - g)) FROM t GROUP BY c"),
            Locs({0, 1}));
}

TEST_P(Table1Test, ImplicationFailureDropsExpression) {
  // Without b > 10 provable, e3 does not apply: D gets no locations.
  EXPECT_EQ(Eval("SELECT a, d FROM t WHERE b > 5"), LocationSet());
}

TEST_P(Table1Test, PredicateAttributesAreDisclosed) {
  // Filtering on D (only shippable to l1, l3 with b > 10) restricts the
  // result even when D is not projected.
  EXPECT_EQ(Eval("SELECT a FROM t WHERE d = 4 AND b > 10"), Locs({0, 2}));
}

TEST_P(Table1Test, AggregateFnMustBeAllowed) {
  // MIN is not among e4's aggregate functions.
  EXPECT_EQ(Eval("SELECT c, MIN(f) FROM t GROUP BY c"), LocationSet());
  // SUM is.
  EXPECT_EQ(Eval("SELECT c, SUM(f) FROM t GROUP BY c"), Locs({0, 1}));
}

TEST_P(Table1Test, GroupingMustBeSubset) {
  // Grouping by D is not allowed by e4.
  EXPECT_EQ(Eval("SELECT d, SUM(f) FROM t GROUP BY d"), LocationSet());
  // Grouping by E and C simultaneously is.
  EXPECT_EQ(Eval("SELECT e, c, SUM(f) FROM t GROUP BY e, c"), Locs({0, 1}));
  // Global aggregation (empty G_q) qualifies as the empty subset.
  EXPECT_EQ(Eval("SELECT SUM(g) FROM t"), Locs({0, 1}));
}

TEST_P(Table1Test, NonAggregatedAggAttrsNotShippable) {
  // F is only shippable in aggregated form.
  EXPECT_EQ(Eval("SELECT f FROM t"), LocationSet());
}

TEST_P(Table1Test, BasicExpressionCoversAggregatedQuery) {
  // Case 2 of Algorithm 1: basic expressions are "less aggregated" than
  // the query, so SUM(A) inherits A's basic permissions ({l2,l3} ∪ all
  // from e1/e2); C additionally picks up {l1,l2} as a grouping attribute
  // of e4 (exactly as in Table 1's L_C column).
  EXPECT_EQ(Eval("SELECT c, SUM(a) FROM t GROUP BY c"), Locs({0, 1, 2}));
}

TEST_P(Table1Test, EtaCounterAdvances) {
  evaluator_->ResetStats();
  Eval("SELECT a, c, d FROM t WHERE b > 15");
  if (GetParam() == PolicyIndexMode::kFlat) {
    // e1, e2, e3 all reach line 4 for q1; e4 does not match output attrs.
    EXPECT_EQ(evaluator_->stats().eta, 3);
  } else {
    // The unconditional e1 and e2 grant as the floor without a test; only
    // e3, whose d-grant lies outside the floor, reaches line 4.
    EXPECT_EQ(evaluator_->stats().eta, 1);
    EXPECT_EQ(evaluator_->stats().implication_tests, 1);
  }
  EXPECT_EQ(evaluator_->stats().evaluations, 1);
}

TEST_P(Table1Test, SelfJoinImplicationHoldsPerInstance) {
  // D is only shippable through e3 (b > 10), which must be implied by the
  // premise of EVERY instance of t — each instance's own conjuncts.
  EXPECT_EQ(Eval("SELECT t1.d FROM t t1, t t2 "
                 "WHERE t1.a = t2.a AND t1.b > 15 AND t2.b > 20"),
            Locs({0, 2}));
  // t2's premise is too weak: e3 does not apply, D goes nowhere.
  EXPECT_EQ(Eval("SELECT t1.d FROM t t1, t t2 "
                 "WHERE t1.a = t2.a AND t1.b > 15 AND t2.b > 5"),
            LocationSet());
  // t2 never constrains b at all (the hierarchical index prunes e3's
  // bucket before any test).
  EXPECT_EQ(Eval("SELECT t1.d FROM t t1, t t2 "
                 "WHERE t1.a = t2.a AND t1.b > 15 AND t2.c > 20"),
            LocationSet());
}

INSTANTIATE_TEST_SUITE_P(IndexModes, Table1Test,
                         ::testing::Values(PolicyIndexMode::kFlat,
                                           PolicyIndexMode::kHierarchical),
                         ModeName);

// The Section 2 / §3.1 CarCo policies.
class CarCoPolicyTest : public ::testing::TestWithParam<PolicyIndexMode> {
 protected:
  void SetUp() override {
    for (const char* l : {"n", "e", "a"}) {
      ASSERT_TRUE(catalog_.mutable_locations().AddLocation(l).ok());
    }
    TableDef c;
    c.name = "customer";
    c.schema = Schema({{"custkey", DataType::kInt64},
                       {"name", DataType::kString},
                       {"acctbal", DataType::kDouble},
                       {"mktseg", DataType::kString},
                       {"region", DataType::kString}});
    c.fragments = {TableFragment{0, 1.0}};
    c.stats.row_count = 1000;
    ASSERT_TRUE(catalog_.AddTable(c).ok());
    policies_ = std::make_unique<PolicyCatalog>(&catalog_, GetParam());
    // Example 1 of §4.1.
    ASSERT_TRUE(policies_
                    ->AddPolicyText(
                        "n", "ship custkey, name from customer to a, e")
                    .ok());
    ASSERT_TRUE(policies_
                    ->AddPolicyText("n",
                                    "ship mktseg, region from customer to e "
                                    "where mktseg = 'commercial'")
                    .ok());
    evaluator_ = std::make_unique<PolicyEvaluator>(&catalog_, policies_.get());
  }

  LocationSet Eval(const std::string& sql) {
    auto ast = ParseQuery(sql);
    EXPECT_TRUE(ast.ok()) << ast.status();
    PlannerContext ctx(&catalog_);
    auto bound = BindQuery(*ast, &ctx);
    EXPECT_TRUE(bound.ok()) << bound.status();
    auto plan = BuildLogicalPlan(*bound, &ctx);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return evaluator_->Evaluate(SummarizePlan(*plan->root), 0);
  }

  Catalog catalog_;
  std::unique_ptr<PolicyCatalog> policies_;
  std::unique_ptr<PolicyEvaluator> evaluator_;
};

TEST_P(CarCoPolicyTest, Example1NameOnly) {
  // Π_{c,n}(σ_{n LIKE 'A%'}(C)) may ship to Asia and Europe.
  LocationSet expected;
  expected.Add(1);  // e
  expected.Add(2);  // a
  EXPECT_EQ(Eval("SELECT custkey, name FROM customer WHERE name LIKE 'A%'"),
            expected);
}

TEST_P(CarCoPolicyTest, Example1RegionWithoutPredicate) {
  // Region without the commercial predicate: nowhere.
  EXPECT_EQ(Eval("SELECT custkey, name, region FROM customer "
                 "WHERE name LIKE 'A%'"),
            LocationSet());
}

TEST_P(CarCoPolicyTest, Example1RegionWithPredicate) {
  // With mktseg='commercial', region may ship to Europe only.
  LocationSet e_only;
  e_only.Add(1);
  EXPECT_EQ(Eval("SELECT custkey, name, region FROM customer "
                 "WHERE name LIKE 'A%' AND mktseg = 'commercial'"),
            e_only);
}

TEST_P(CarCoPolicyTest, AcctbalNeverLeaves) {
  EXPECT_EQ(Eval("SELECT custkey, acctbal FROM customer"), LocationSet());
}

INSTANTIATE_TEST_SUITE_P(IndexModes, CarCoPolicyTest,
                         ::testing::Values(PolicyIndexMode::kFlat,
                                           PolicyIndexMode::kHierarchical),
                         ModeName);

}  // namespace
}  // namespace cgq
