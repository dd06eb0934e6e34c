#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/policy.h"
#include "core/policy_evaluator.h"
#include "plan/binder.h"
#include "plan/builder.h"
#include "plan/summary.h"
#include "sql/parser.h"

namespace cgq {
namespace {

class PolicyCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* l : {"n", "e", "a"}) {
      ASSERT_TRUE(catalog_.mutable_locations().AddLocation(l).ok());
    }
    TableDef t;
    t.name = "cust";
    t.schema = Schema({{"id", DataType::kInt64},
                       {"name", DataType::kString},
                       {"bal", DataType::kDouble}});
    t.fragments = {TableFragment{0, 1.0}};
    t.stats.row_count = 10;
    ASSERT_TRUE(catalog_.AddTable(t).ok());
    policies_ = std::make_unique<PolicyCatalog>(&catalog_);
  }
  Catalog catalog_;
  std::unique_ptr<PolicyCatalog> policies_;
};

TEST_F(PolicyCatalogTest, ShipStarExpandsToAllColumns) {
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship * from cust to e").ok());
  const auto& exprs = policies_->For(0);
  ASSERT_EQ(exprs.size(), 1u);
  EXPECT_EQ(exprs[0].attributes,
            (std::vector<std::string>{"id", "name", "bal"}));
  EXPECT_EQ(exprs[0].to, LocationSet::Single(1));
  EXPECT_FALSE(exprs[0].is_aggregate());
}

TEST_F(PolicyCatalogTest, ToStarExpandsToAllLocations) {
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship id from cust to *").ok());
  EXPECT_EQ(policies_->For(0)[0].to, catalog_.locations().All());
}

TEST_F(PolicyCatalogTest, RejectsUnknownEntities) {
  EXPECT_FALSE(policies_->AddPolicyText("mars", "ship * from cust to *").ok());
  EXPECT_FALSE(policies_->AddPolicyText("n", "ship * from nosuch to *").ok());
  EXPECT_FALSE(
      policies_->AddPolicyText("n", "ship bogus from cust to *").ok());
  EXPECT_FALSE(
      policies_->AddPolicyText("n", "ship id from cust to mars").ok());
  EXPECT_FALSE(policies_
                   ->AddPolicyText(
                       "n", "ship bal as aggregates sum from cust to * "
                            "group by bogus")
                   .ok());
}

TEST_F(PolicyCatalogTest, GroupByRequiresAggregates) {
  EXPECT_FALSE(policies_
                   ->AddPolicyText("n",
                                   "ship id from cust to * group by name")
                   .ok());
}

TEST_F(PolicyCatalogTest, WherePredicateIsBoundToTable) {
  ASSERT_TRUE(policies_
                  ->AddPolicyText(
                      "n", "ship id from cust to e where bal > 100")
                  .ok());
  const PolicyExpression& e = policies_->For(0)[0];
  ASSERT_EQ(e.predicate.size(), 1u);
  std::vector<BaseAttr> bases;
  e.predicate[0]->CollectBaseAttrs(&bases);
  ASSERT_EQ(bases.size(), 1u);
  EXPECT_EQ(bases[0].table, "cust");
  EXPECT_EQ(bases[0].column, "bal");
}

TEST_F(PolicyCatalogTest, WhereRejectsForeignColumns) {
  EXPECT_FALSE(policies_
                   ->AddPolicyText(
                       "n", "ship id from cust to e where other.col = 1")
                   .ok());
}

TEST_F(PolicyCatalogTest, PerLocationIsolation) {
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship id from cust to e").ok());
  ASSERT_TRUE(policies_->AddPolicyText("e", "ship name from cust to a").ok());
  EXPECT_EQ(policies_->For(0).size(), 1u);
  EXPECT_EQ(policies_->For(1).size(), 1u);
  EXPECT_TRUE(policies_->For(2).empty());
  EXPECT_EQ(policies_->TotalCount(), 2u);
  policies_->Clear();
  EXPECT_EQ(policies_->TotalCount(), 0u);
}

TEST_F(PolicyCatalogTest, RoundTripToString) {
  ASSERT_TRUE(policies_
                  ->AddPolicyText(
                      "n",
                      "ship bal as aggregates sum, avg from cust to e, a "
                      "where id > 5 group by name")
                  .ok());
  std::string text = policies_->For(0)[0].ToString(catalog_.locations());
  EXPECT_NE(text.find("as aggregates sum, avg"), std::string::npos);
  EXPECT_NE(text.find("group by name"), std::string::npos);
  EXPECT_NE(text.find("where"), std::string::npos);
  // The rendered text parses back.
  PolicyCatalog round(&catalog_);
  EXPECT_TRUE(round.AddPolicyText("n", text).ok()) << text;
}

TEST_F(PolicyCatalogTest, AccessorHelpers) {
  ASSERT_TRUE(policies_
                  ->AddPolicyText("n",
                                  "ship bal as aggregates sum from cust "
                                  "to * group by name")
                  .ok());
  const PolicyExpression& e = policies_->For(0)[0];
  EXPECT_TRUE(e.is_aggregate());
  EXPECT_TRUE(e.HasShipAttribute("bal"));
  EXPECT_FALSE(e.HasShipAttribute("name"));
  EXPECT_TRUE(e.HasGroupAttribute("name"));
  EXPECT_TRUE(e.AllowsAggFn(AggFn::kSum));
  EXPECT_FALSE(e.AllowsAggFn(AggFn::kAvg));
}

// Metamorphic battery for the hierarchical index: operations that reshape
// the index without changing what the policy set grants — adding a
// subsumed policy, removing and re-adding a wide policy, permuting bucket
// order — must leave every compliance decision (and, for the re-add, the
// evaluator's non-time counters) untouched.
class PolicyMetamorphicTest : public PolicyCatalogTest {
 protected:
  void SetUp() override {
    PolicyCatalogTest::SetUp();
    policies_ = std::make_unique<PolicyCatalog>(
        &catalog_, PolicyIndexMode::kHierarchical);
    for (const char* text :
         {"ship * from cust to e",
          "ship id from cust to e, a where bal > 100",
          "ship name from cust to a where bal > 100",
          "ship bal as aggregates sum from cust to a group by name"}) {
      ASSERT_TRUE(policies_->AddPolicyText("n", text).ok()) << text;
    }
  }

  // Spans the evaluator's cases: plain projection, selections whose
  // premise does / does not imply the policy predicates, aggregation with
  // allowed and disallowed grouping.
  static const std::vector<std::string>& Workload() {
    static const std::vector<std::string> queries = {
        "SELECT id FROM cust",
        "SELECT name FROM cust",
        "SELECT bal FROM cust",
        "SELECT id, name FROM cust WHERE bal > 100",
        "SELECT id FROM cust WHERE bal > 150",
        "SELECT id FROM cust WHERE bal > 50",
        "SELECT id FROM cust WHERE id < 5 AND bal > 120",
        "SELECT name, SUM(bal) FROM cust GROUP BY name",
        "SELECT id, SUM(bal) FROM cust GROUP BY id",
        "SELECT SUM(bal) FROM cust",
    };
    return queries;
  }

  LocationSet EvalWith(const PolicyEvaluator& evaluator,
                       const std::string& sql) {
    auto ast = ParseQuery(sql);
    EXPECT_TRUE(ast.ok()) << ast.status();
    if (!ast.ok()) return LocationSet();
    PlannerContext ctx(&catalog_);
    auto bound = BindQuery(*ast, &ctx);
    EXPECT_TRUE(bound.ok()) << bound.status();
    if (!bound.ok()) return LocationSet();
    auto plan = BuildLogicalPlan(*bound, &ctx);
    EXPECT_TRUE(plan.ok()) << plan.status();
    if (!plan.ok()) return LocationSet();
    QuerySummary summary = SummarizePlan(*plan->root);
    EXPECT_TRUE(summary.IsSingleDatabaseBlock());
    return evaluator.Evaluate(summary, 0);
  }

  // The full decision surface: legal ship set of every workload query.
  std::vector<uint64_t> Decisions() {
    PolicyEvaluator evaluator(&catalog_, policies_.get());
    std::vector<uint64_t> bits;
    for (const std::string& sql : Workload()) {
      bits.push_back(EvalWith(evaluator, sql).bits());
    }
    return bits;
  }

  // Evaluator counters over one cold pass of the workload (no shared
  // implication cache, so counts depend only on the catalog's contents).
  PolicyEvalStats WorkloadStats() {
    PolicyEvaluator evaluator(&catalog_, policies_.get());
    evaluator.set_implication_cache(nullptr);
    for (const std::string& sql : Workload()) EvalWith(evaluator, sql);
    return evaluator.stats();
  }
};

TEST_F(PolicyMetamorphicTest, SubsumedAddNeverChangesDecisions) {
  const std::vector<uint64_t> before = Decisions();
  // Both subsumed by the unconditional `ship * from cust to e`: narrower
  // attributes, subset target, (strictly stronger) predicate.
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship id from cust to e").ok());
  ASSERT_TRUE(policies_
                  ->AddPolicyText(
                      "n", "ship id, name from cust to e where bal > 500")
                  .ok());
  EXPECT_EQ(Decisions(), before);
}

TEST_F(PolicyMetamorphicTest, RemoveThenReAddRestoresEvaluatorStats) {
  // A narrow policy the wide one subsumes, so the remove leaves it as the
  // only grant of `id` to e and the re-add shadows it again.
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship id from cust to e").ok());
  const std::vector<uint64_t> decisions = Decisions();
  const PolicyEvalStats before = WorkloadStats();

  int64_t wide_id = -1;
  for (const PolicyExpression& e : policies_->For(0)) {
    if (e.attributes.size() == 3 && e.predicate.empty() &&
        !e.is_aggregate()) {
      wide_id = e.id;
    }
  }
  ASSERT_NE(wide_id, -1);
  ASSERT_TRUE(policies_->RemovePolicy(wide_id).ok());
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship * from cust to e").ok());

  EXPECT_EQ(Decisions(), decisions);
  const PolicyEvalStats after = WorkloadStats();
  EXPECT_EQ(before.evaluations, after.evaluations);
  EXPECT_EQ(before.candidates, after.candidates);
  EXPECT_EQ(before.expressions_matched, after.expressions_matched);
  EXPECT_EQ(before.implication_tests, after.implication_tests);
  EXPECT_EQ(before.implication_cache_hits, after.implication_cache_hits);
  EXPECT_EQ(before.implication_cache_misses, after.implication_cache_misses);
  EXPECT_EQ(before.prefilter_skips, after.prefilter_skips);
  EXPECT_EQ(before.eta, after.eta);
}

TEST_F(PolicyMetamorphicTest, BucketOrderNeverAffectsDecisions) {
  // Volume, so buckets hold several entries and permutation has teeth.
  for (int i = 0; i < 40; ++i) {
    const char* cols[] = {"id", "name", "bal", "id, name"};
    const char* tos[] = {"e", "a", "e, a"};
    std::string text = std::string("ship ") + cols[i % 4] + " from cust to " +
                       tos[i % 3] + " where bal > " + std::to_string(i * 10);
    ASSERT_TRUE(policies_->AddPolicyText("n", text).ok()) << text;
  }
  const std::vector<uint64_t> before = Decisions();
  for (uint64_t seed : {1, 7, 42}) {
    policies_->ShuffleBucketsForTest(seed);
    EXPECT_EQ(Decisions(), before) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cgq
