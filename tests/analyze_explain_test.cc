#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compliance_checker.h"
#include "core/engine.h"
#include "core/explain.h"
#include "exec/analyze.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

class AnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Catalog catalog;
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("p").ok());
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("q").ok());
    TableDef t;
    t.name = "data";
    t.schema = Schema({{"k", DataType::kInt64},
                       {"v", DataType::kDouble},
                       {"s", DataType::kString}});
    t.fragments = {TableFragment{0, 0.5}, TableFragment{1, 0.5}};
    t.stats.row_count = 999;  // stale on purpose
    ASSERT_TRUE(catalog.AddTable(t).ok());
    engine_ = std::make_unique<Engine>(std::move(catalog),
                                       NetworkModel::DefaultGeo(2));
    engine_->store().Put(
        0, "data",
        {{Value::Int64(1), Value::Double(1.5), Value::String("aa")},
         {Value::Int64(2), Value::Double(2.5), Value::String("bb")},
         {Value::Int64(2), Value::Null(), Value::String("aa")}});
    engine_->store().Put(
        1, "data",
        {{Value::Int64(3), Value::Double(-4.0), Value::String("cccc")}});
  }
  std::unique_ptr<Engine> engine_;
};

TEST_F(AnalyzeTest, RowCountAndFractions) {
  ASSERT_TRUE(AnalyzeAll(engine_->store(), &engine_->catalog()).ok());
  auto t = engine_->catalog().GetTable("data");
  EXPECT_DOUBLE_EQ((*t)->stats.row_count, 4);
  ASSERT_EQ((*t)->fragments.size(), 2u);
  EXPECT_DOUBLE_EQ((*t)->fragments[0].row_fraction, 0.75);
  EXPECT_DOUBLE_EQ((*t)->fragments[1].row_fraction, 0.25);
}

TEST_F(AnalyzeTest, DistinctCountsAreExact) {
  ASSERT_TRUE(AnalyzeTable(engine_->store(), "data", &engine_->catalog())
                  .ok());
  auto t = engine_->catalog().GetTable("data");
  EXPECT_DOUBLE_EQ((*t)->stats.FindColumn("k")->distinct_count, 3);
  // v: {1.5, 2.5, NULL, -4.0} -> 4 distinct incl. NULL.
  EXPECT_DOUBLE_EQ((*t)->stats.FindColumn("v")->distinct_count, 4);
  EXPECT_DOUBLE_EQ((*t)->stats.FindColumn("s")->distinct_count, 3);
}

TEST_F(AnalyzeTest, MinMaxFromData) {
  ASSERT_TRUE(AnalyzeTable(engine_->store(), "data", &engine_->catalog())
                  .ok());
  auto t = engine_->catalog().GetTable("data");
  const ColumnStats* v = (*t)->stats.FindColumn("v");
  EXPECT_DOUBLE_EQ(*v->min, -4.0);
  EXPECT_DOUBLE_EQ(*v->max, 2.5);
  // Strings have no numeric bounds.
  EXPECT_FALSE((*t)->stats.FindColumn("s")->min.has_value());
}

TEST_F(AnalyzeTest, AverageWidth) {
  ASSERT_TRUE(AnalyzeTable(engine_->store(), "data", &engine_->catalog())
                  .ok());
  auto t = engine_->catalog().GetTable("data");
  // s widths: "aa"=6, "bb"=6, "aa"=6, "cccc"=8 -> avg 6.5.
  EXPECT_DOUBLE_EQ((*t)->stats.FindColumn("s")->avg_width, 6.5);
}

TEST_F(AnalyzeTest, FailsWithoutLoadedFragment) {
  Catalog& catalog = engine_->catalog();
  TableDef t;
  t.name = "empty";
  t.schema = Schema({{"x", DataType::kInt64}});
  t.fragments = {TableFragment{0, 1.0}};
  ASSERT_TRUE(catalog.AddTable(t).ok());
  EXPECT_FALSE(AnalyzeTable(engine_->store(), "empty", &catalog).ok());
}

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Catalog catalog;
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("n").ok());
    ASSERT_TRUE(catalog.mutable_locations().AddLocation("e").ok());
    TableDef c;
    c.name = "cust";
    c.schema = Schema({{"id", DataType::kInt64},
                       {"name", DataType::kString},
                       {"secret", DataType::kString}});
    c.fragments = {TableFragment{0, 1.0}};
    c.stats.row_count = 100;
    ASSERT_TRUE(catalog.AddTable(c).ok());
    TableDef o;
    o.name = "ord";
    o.schema = Schema({{"cust_id", DataType::kInt64},
                       {"total", DataType::kDouble}});
    o.fragments = {TableFragment{1, 1.0}};
    o.stats.row_count = 1000;
    ASSERT_TRUE(catalog.AddTable(o).ok());
    engine_ = std::make_unique<Engine>(std::move(catalog),
                                       NetworkModel::DefaultGeo(2));
    ASSERT_TRUE(engine_->AddPolicy("n", "ship id, name from cust to e").ok());
  }
  std::unique_ptr<Engine> engine_;
};

TEST_F(ExplainTest, NamesGrantingExpression) {
  auto r = engine_->Optimize(
      "SELECT c.name, o.total FROM cust c, ord o WHERE c.id = o.cust_id");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->compliant);
  PolicyEvaluator evaluator(&engine_->catalog(), &engine_->policies());
  std::string report = ExplainCompliance(*r->plan, evaluator,
                                         engine_->catalog().locations());
  EXPECT_NE(report.find("SHIP n -> e"), std::string::npos) << report;
  EXPECT_NE(report.find("ship id, name from cust to e"), std::string::npos)
      << report;
  EXPECT_NE(report.find("cust.name"), std::string::npos) << report;
  EXPECT_EQ(report.find("VIOLATION"), std::string::npos) << report;
}

TEST_F(ExplainTest, LocalPlanSaysSo) {
  auto r = engine_->Optimize("SELECT c.secret FROM cust c");
  ASSERT_TRUE(r.ok());
  PolicyEvaluator evaluator(&engine_->catalog(), &engine_->policies());
  std::string report = ExplainCompliance(*r->plan, evaluator,
                                         engine_->catalog().locations());
  EXPECT_NE(report.find("fully local"), std::string::npos) << report;
}

TEST_F(ExplainTest, ViolationIsFlaggedInProvenance) {
  // Force a non-compliant plan through the traditional optimizer.
  OptimizerOptions opts;
  opts.compliant = false;
  auto r = engine_->Optimize(
      "SELECT c.secret, o.total FROM cust c, ord o WHERE c.id = o.cust_id",
      opts);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->compliant);
  PolicyEvaluator evaluator(&engine_->catalog(), &engine_->policies());
  std::string report = ExplainCompliance(*r->plan, evaluator,
                                         engine_->catalog().locations());
  EXPECT_NE(report.find("VIOLATION"), std::string::npos) << report;
}

// The report formats the one Definition-1 walk CheckCompliance runs: over
// the 12 TPC-H queries under the T, C and CR policy sets, for the
// compliant optimizer and the compliant = false baseline alike, it prints
// VIOLATION exactly when CheckCompliance reports a violation.
TEST(ExplainWorkloadTest, ViolationIffCheckComplianceFails) {
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  Catalog catalog = *tpch::BuildCatalog(config);
  NetworkModel net = NetworkModel::DefaultGeo(5);
  std::vector<int> queries = tpch::QueryNumbers();
  for (int q : tpch::ExtendedQueryNumbers()) queries.push_back(q);
  ASSERT_EQ(queries.size(), 12u);
  int plans = 0;
  int violating = 0;
  for (const char* set : {"T", "C", "CR"}) {
    PolicyCatalog policies(&catalog);
    ASSERT_TRUE(tpch::InstallPolicySet(set, &policies).ok());
    PolicyEvaluator evaluator(&catalog, &policies);
    for (bool compliant : {true, false}) {
      OptimizerOptions options;
      options.compliant = compliant;
      QueryOptimizer optimizer(&catalog, &policies, &net, options);
      for (int q : queries) {
        auto r = optimizer.Optimize(*tpch::Query(q));
        ASSERT_TRUE(r.ok()) << set << "/Q" << q << ": " << r.status();
        ComplianceReport check =
            CheckCompliance(*r->plan, evaluator, catalog.locations());
        std::string report =
            ExplainCompliance(*r->plan, evaluator, catalog.locations());
        EXPECT_EQ(report.find("VIOLATION") != std::string::npos,
                  !check.compliant)
            << set << "/Q" << q << " compliant=" << compliant << "\n"
            << report;
        EXPECT_EQ(check.compliant, r->compliant) << set << "/Q" << q;
        if (compliant) {
          EXPECT_TRUE(check.compliant) << set << "/Q" << q;
        }
        ++plans;
        violating += check.compliant ? 0 : 1;
      }
    }
  }
  EXPECT_EQ(plans, 72);
  // The baseline violates somewhere, so both directions of the iff run.
  EXPECT_GT(violating, 0);
}

}  // namespace
}  // namespace cgq
