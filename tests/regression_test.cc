#include <gtest/gtest.h>

#include <chrono>

#include "core/optimizer.h"
#include "net/network_model.h"
#include "plan/plan_dot.h"
#include "tpch/tpch.h"

namespace cgq {
namespace {

// Golden regression of the Fig 5(a) compliance matrix: the traditional
// optimizer's verdict per (set, query) as currently measured. A change
// here is not necessarily a bug, but it IS a behavior change of either
// the cost model, the curated policy sets or the checker — review before
// updating the table.
TEST(RegressionTest, Fig5aTraditionalVerdictMatrix) {
  tpch::TpchConfig config;
  config.scale_factor = 10;
  auto catalog = tpch::BuildCatalog(config);
  ASSERT_TRUE(catalog.ok());
  NetworkModel net = NetworkModel::DefaultGeo(5);
  PolicyCatalog policies(&*catalog);

  struct Expectation {
    const char* set;
    // Q2, Q3, Q5, Q8, Q9, Q10
    bool compliant[6];
  };
  const Expectation golden[] = {
      {"T", {false, true, false, false, false, true}},
      {"C", {false, true, true, false, false, true}},
      {"CR", {false, true, true, false, false, true}},
      {"CRA", {false, true, true, false, false, false}},
  };

  for (const Expectation& row : golden) {
    ASSERT_TRUE(tpch::InstallPolicySet(row.set, &policies).ok());
    OptimizerOptions opts;
    opts.compliant = false;
    QueryOptimizer optimizer(&*catalog, &policies, &net, opts);
    std::vector<int> queries = tpch::QueryNumbers();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = optimizer.Optimize(*tpch::Query(queries[i]));
      ASSERT_TRUE(r.ok()) << row.set << "/Q" << queries[i];
      EXPECT_EQ(r->compliant, row.compliant[i])
          << row.set << "/Q" << queries[i];
    }
  }
}

// Guard against search-space regressions: a 10-relation chain join must
// stay within sane memo bounds and optimize in well under a second.
TEST(RegressionTest, TenRelationChainStaysBounded) {
  Catalog catalog;
  ASSERT_TRUE(catalog.mutable_locations().AddLocation("x").ok());
  ASSERT_TRUE(catalog.mutable_locations().AddLocation("y").ok());
  std::string from, where;
  for (int i = 0; i < 10; ++i) {
    TableDef t;
    const std::string n = std::to_string(i);
    t.name = "t" + n;
    t.schema = Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
    t.fragments = {TableFragment{static_cast<LocationId>(i % 2), 1.0}};
    t.stats.row_count = 100 + 50 * i;
    ASSERT_TRUE(catalog.AddTable(t).ok());
    if (i > 0) {
      from += ", ";
      if (i > 1) where += " AND ";
      const std::string prev = std::to_string(i - 1);
      where += "t" + prev + ".k = t" + n + ".k";
    }
    from += t.name;
  }
  PolicyCatalog policies(&catalog);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(policies
                    .AddPolicyText(i % 2 == 0 ? "x" : "y",
                                   "ship * from t" + std::to_string(i) +
                                       " to *")
                    .ok());
  }
  NetworkModel net = NetworkModel::DefaultGeo(2);
  QueryOptimizer optimizer(&catalog, &policies, &net, {});

  auto start = std::chrono::steady_clock::now();
  auto r = optimizer.Optimize("SELECT t0.v FROM " + from + " WHERE " + where);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->compliant);
  EXPECT_LT(r->stats.memo_groups, 3000u);
  EXPECT_LT(ms, 2000.0) << "10-relation chain took " << ms << " ms";
}

TEST(RegressionTest, DotExportContainsStructure) {
  tpch::TpchConfig config;
  config.scale_factor = 1;
  auto catalog = tpch::BuildCatalog(config);
  PolicyCatalog policies(&*catalog);
  ASSERT_TRUE(tpch::InstallPolicySet("CR", &policies).ok());
  NetworkModel net = NetworkModel::DefaultGeo(5);
  QueryOptimizer optimizer(&*catalog, &policies, &net, {});
  auto r = optimizer.Optimize(*tpch::Query(3));
  ASSERT_TRUE(r.ok());
  std::string dot = PlanToDot(*r->plan, &catalog->locations());
  EXPECT_NE(dot.find("digraph plan"), std::string::npos);
  EXPECT_NE(dot.find("Scan[lineitem"), std::string::npos);
  EXPECT_NE(dot.find("->n"), std::string::npos);
  // Balanced braces, node count matches edges + 1 (a tree).
  size_t nodes = 0, edges = 0, pos = 0;
  while ((pos = dot.find("[shape=", pos)) != std::string::npos) {
    ++nodes;
    ++pos;
  }
  pos = 0;
  while ((pos = dot.find("->n", pos)) != std::string::npos) {
    ++edges;
    ++pos;
  }
  EXPECT_EQ(nodes, edges + 1);
}

}  // namespace
}  // namespace cgq
