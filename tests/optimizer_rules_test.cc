#include <gtest/gtest.h>

#include "core/engine.h"
#include "optimizer/cardinality.h"
#include "optimizer/memo.h"
#include "plan/binder.h"
#include "plan/builder.h"
#include "sql/parser.h"

namespace cgq {
namespace {

// --- Memo exploration -----------------------------------------------------

class MemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* l : {"a", "b", "c", "d"}) {
      ASSERT_TRUE(catalog_.mutable_locations().AddLocation(l).ok());
    }
    int i = 0;
    for (const char* name : {"t1", "t2", "t3", "t4"}) {
      TableDef t;
      t.name = name;
      t.schema = Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
      t.fragments = {TableFragment{static_cast<LocationId>(i++), 1.0}};
      t.stats.row_count = 100 * i;
      ASSERT_TRUE(catalog_.AddTable(t).ok());
    }
  }

  // Explores the chain join t1-t2-t3[-t4] and returns the memo.
  std::unique_ptr<Memo> Explore(const std::string& sql,
                                PlannerContext* ctx, int* root_group) {
    auto ast = ParseQuery(sql);
    EXPECT_TRUE(ast.ok());
    auto bound = BindQuery(*ast, ctx);
    EXPECT_TRUE(bound.ok()) << bound.status();
    auto plan = BuildLogicalPlan(*bound, ctx);
    EXPECT_TRUE(plan.ok());
    estimator_ = std::make_unique<CardinalityEstimator>(ctx);
    auto memo = std::make_unique<Memo>(ctx, estimator_.get());
    *root_group = memo->InsertTree(*(*plan).root);
    memo->Explore();
    return memo;
  }

  Catalog catalog_;
  std::unique_ptr<CardinalityEstimator> estimator_;
};

TEST_F(MemoTest, CommutativityDoublesJoinGroup) {
  PlannerContext ctx(&catalog_);
  int root;
  auto memo = Explore(
      "SELECT t1.v FROM t1, t2 WHERE t1.k = t2.k", &ctx, &root);
  // Find the join group: it must contain (at least) both child orders.
  bool found = false;
  for (const Group& g : memo->groups()) {
    int joins = 0;
    for (int e : g.mexprs) {
      joins += memo->mexpr(e).payload->kind() == PlanKind::kJoin ? 1 : 0;
    }
    if (joins > 0) {
      EXPECT_GE(joins, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MemoTest, AssociativityEnumeratesAllOrders) {
  PlannerContext ctx(&catalog_);
  int root;
  auto memo = Explore(
      "SELECT t1.v FROM t1, t2, t3 "
      "WHERE t1.k = t2.k AND t2.k = t3.k",
      &ctx, &root);
  // Chain with transitive keys: 2-subset join groups {12, 23} appear (13
  // would be a cross product and is skipped), the 3-set group holds many
  // orders.
  int two_set_join_groups = 0;
  int top_join_exprs = 0;
  for (const Group& g : memo->groups()) {
    bool has_join = false;
    for (int e : g.mexprs) {
      has_join |= memo->mexpr(e).payload->kind() == PlanKind::kJoin;
    }
    if (!has_join) continue;
    int rels = __builtin_popcount(g.rel_set);
    if (rels == 2) ++two_set_join_groups;
    if (rels == 3) top_join_exprs += static_cast<int>(g.mexprs.size());
  }
  EXPECT_GE(two_set_join_groups, 2);
  // 3 relations: at least left-deep x2 sides x commute alternatives.
  EXPECT_GE(top_join_exprs, 4);
}

TEST_F(MemoTest, DeduplicationIsStable) {
  PlannerContext ctx(&catalog_);
  int root;
  auto memo = Explore(
      "SELECT t1.v FROM t1, t2, t3, t4 "
      "WHERE t1.k = t2.k AND t2.k = t3.k AND t3.k = t4.k",
      &ctx, &root);
  size_t exprs_after = memo->num_exprs();
  // Re-exploration must be a no-op (fixpoint reached).
  memo->Explore();
  EXPECT_EQ(memo->num_exprs(), exprs_after);
  // 4-relation chain: the join space is bounded (no duplicate groups).
  EXPECT_LT(memo->num_groups(), 60u);
}

TEST_F(MemoTest, InsertTreeDeduplicatesIdenticalSubtrees) {
  PlannerContext ctx(&catalog_);
  int root;
  auto memo = Explore("SELECT t1.v FROM t1, t2 WHERE t1.k = t2.k", &ctx,
                      &root);
  size_t groups = memo->num_groups();
  // Re-inserting the same payloads must not add anything.
  const MExpr& root_expr = memo->mexpr(memo->group(root).mexprs[0]);
  auto payload = std::make_shared<PlanNode>(*root_expr.payload);
  int g = memo->InsertExpr(payload, root_expr.child_groups);
  EXPECT_EQ(g, root);
  EXPECT_EQ(memo->num_groups(), groups);
}

// --- Eager aggregation correctness -----------------------------------------

// Orders at A, items at B (1-3 per order), customers at C. The policy only
// lets items leave B in aggregated form, so the compliant plan must use
// the eager-aggregation rewrite with the groupby-count correction for
// SUM(o.price) — whose exactness we check against hand-computed values.
class EagerAggTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Catalog catalog;
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("a").ok());
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("b").ok());
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("c").ok());

    TableDef orders;
    orders.name = "orders";
    orders.schema = Schema({{"okey", DataType::kInt64},
                            {"ckey", DataType::kInt64},
                            {"price", DataType::kInt64}});
    orders.fragments = {TableFragment{0, 1.0}};
    orders.stats.row_count = 3;
    ASSERT_TRUE(catalog.AddTable(orders).ok());

    TableDef items;
    items.name = "items";
    items.schema = Schema({{"okey", DataType::kInt64},
                           {"qty", DataType::kInt64}});
    items.fragments = {TableFragment{1, 1.0}};
    items.stats.row_count = 6;
    ASSERT_TRUE(catalog.AddTable(items).ok());

    TableDef customers;
    customers.name = "customers";
    customers.schema = Schema({{"ckey", DataType::kInt64},
                               {"name", DataType::kString}});
    customers.fragments = {TableFragment{2, 1.0}};
    customers.stats.row_count = 2;
    ASSERT_TRUE(catalog.AddTable(customers).ok());

    engine_ = std::make_unique<Engine>(std::move(catalog),
                                       NetworkModel::DefaultGeo(3));
    // Orders and customers may move between a and c but not to b, so the
    // only way to use items data is the aggregate route out of b.
    ASSERT_TRUE(engine_->AddPolicy("a", "ship * from orders to a, c").ok());
    ASSERT_TRUE(
        engine_->AddPolicy("c", "ship * from customers to a, c").ok());
    // Items may only leave B as per-order aggregates.
    ASSERT_TRUE(engine_
                    ->AddPolicy("b",
                                "ship qty as aggregates sum, min, max, count "
                                "from items to a, c group by okey")
                    .ok());

    engine_->store().Put(0, "orders",
                         {{Value::Int64(1), Value::Int64(1), Value::Int64(10)},
                          {Value::Int64(2), Value::Int64(1), Value::Int64(20)},
                          {Value::Int64(3), Value::Int64(2), Value::Int64(30)}});
    engine_->store().Put(1, "items",
                         {{Value::Int64(1), Value::Int64(1)},
                          {Value::Int64(1), Value::Int64(2)},
                          {Value::Int64(2), Value::Int64(5)},
                          {Value::Int64(3), Value::Int64(1)},
                          {Value::Int64(3), Value::Int64(1)},
                          {Value::Int64(3), Value::Int64(1)}});
    engine_->store().Put(2, "customers",
                         {{Value::Int64(1), Value::String("ann")},
                          {Value::Int64(2), Value::String("bob")}});
  }

  static bool HasPartialAgg(const PlanNode& n) {
    if (n.kind() == PlanKind::kAggregate && n.is_partial_agg) return true;
    for (const auto& c : n.children()) {
      if (HasPartialAgg(*c)) return true;
    }
    return false;
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(EagerAggTest, CountCorrectedPushdownIsExact) {
  const char* sql =
      "SELECT c.name, SUM(o.price) AS sp, SUM(i.qty) AS sq, "
      "MIN(i.qty) AS mn, COUNT(i.qty) AS cnt "
      "FROM customers c, orders o, items i "
      "WHERE c.ckey = o.ckey AND o.okey = i.okey "
      "GROUP BY c.name ORDER BY name";
  auto plan = engine_->Optimize(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->compliant);
  EXPECT_TRUE(HasPartialAgg(*plan->plan))
      << PlanToString(*plan->plan, &engine_->catalog().locations());

  auto result = engine_->Run(sql);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  // ann: rows (o1,i1),(o1,i2),(o2,i3):
  //   SUM(price)=10+10+20=40, SUM(qty)=1+2+5=8, MIN=1, COUNT=3.
  EXPECT_EQ(result->rows[0][0].str(), "ann");
  EXPECT_EQ(result->rows[0][1].int64(), 40);
  EXPECT_EQ(result->rows[0][2].int64(), 8);
  EXPECT_EQ(result->rows[0][3].int64(), 1);
  EXPECT_EQ(result->rows[0][4].int64(), 3);
  // bob: rows (o3 x 3 items): SUM(price)=90, SUM(qty)=3, MIN=1, COUNT=3.
  EXPECT_EQ(result->rows[1][0].str(), "bob");
  EXPECT_EQ(result->rows[1][1].int64(), 90);
  EXPECT_EQ(result->rows[1][2].int64(), 3);
  EXPECT_EQ(result->rows[1][3].int64(), 1);
  EXPECT_EQ(result->rows[1][4].int64(), 3);
}

TEST_F(EagerAggTest, AvgBlocksPushdownAndQueryIsRejected) {
  // AVG is not decomposable; with items locked to aggregate-only egress,
  // no compliant plan can exist.
  auto r = engine_->Optimize(
      "SELECT c.name, AVG(i.qty) FROM customers c, orders o, items i "
      "WHERE c.ckey = o.ckey AND o.okey = i.okey GROUP BY c.name");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNonCompliant());
}

TEST_F(EagerAggTest, DisallowedAggregateFnRejected) {
  // The policy does not allow shipping raw qty, and a non-aggregate query
  // cannot use the aggregate route.
  auto r = engine_->Optimize(
      "SELECT i.qty FROM items i, orders o WHERE i.okey = o.okey");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNonCompliant());
}

TEST_F(EagerAggTest, GroupingBeyondPolicyRejected) {
  // Grouping items by qty itself is not in G_e = {okey}.
  auto r = engine_->Optimize(
      "SELECT i.qty, SUM(o.price) FROM items i, orders o "
      "WHERE i.okey = o.okey GROUP BY i.qty");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNonCompliant());
}

TEST_F(EagerAggTest, MatchesUnrestrictedBaseline) {
  // The same query under unrestricted policies (direct plan) must produce
  // identical results — the rewrite changed the plan, not the answer.
  const char* sql =
      "SELECT c.name, SUM(o.price) AS sp, SUM(i.qty) AS sq "
      "FROM customers c, orders o, items i "
      "WHERE c.ckey = o.ckey AND o.okey = i.okey "
      "GROUP BY c.name ORDER BY name";
  auto restricted = engine_->Run(sql);
  ASSERT_TRUE(restricted.ok());

  Engine free(Catalog(engine_->catalog()), NetworkModel::DefaultGeo(3));
  for (const char* loc : {"a", "b", "c"}) {
    for (const char* t : {"orders", "items", "customers"}) {
      (void)free.AddPolicy(loc, std::string("ship * from ") + t + " to *");
    }
  }
  free.store() = engine_->store();
  auto baseline = free.Run(sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_EQ(restricted->rows.size(), baseline->rows.size());
  for (size_t i = 0; i < restricted->rows.size(); ++i) {
    for (size_t j = 0; j < restricted->rows[i].size(); ++j) {
      EXPECT_TRUE(
          restricted->rows[i][j].Equals(baseline->rows[i][j]) ||
          restricted->rows[i][j].StructurallyEquals(baseline->rows[i][j]))
          << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace cgq
