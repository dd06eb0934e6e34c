#include <gtest/gtest.h>

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

  tpch::TpchConfig config_;
  std::unique_ptr<Catalog> catalog_;
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

}  // namespace
}  // namespace cgq
