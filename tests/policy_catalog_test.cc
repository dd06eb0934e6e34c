#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/policy.h"
#include "core/policy_evaluator.h"
#include "plan/binder.h"
#include "plan/builder.h"
#include "plan/summary.h"
#include "sql/parser.h"
#include "tpch/tpch.h"

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

// Metamorphic battery for the maintained (location, table) fingerprints the
// plan cache keys its dependencies on: after any add / remove / clear
// sequence they must equal a from-scratch recomputation, be insensitive to
// install order, and move exactly when a governing policy's content does.
class PolicyFingerprintTest
    : public ::testing::TestWithParam<PolicyIndexMode> {
 protected:
  using Snapshot = std::map<std::pair<LocationId, std::string>, uint64_t>;
  // A policy text and the location whose data it governs.
  using Placed = std::pair<std::string, std::string>;

  void SetUp() override {
    auto catalog = tpch::BuildCatalog(tpch::TpchConfig{});
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    catalog_ = std::make_unique<Catalog>(std::move(*catalog));
    seeds_ = std::make_unique<PolicyCatalog>(catalog_.get());
    tables_ = catalog_->TableNames();
  }

  std::unique_ptr<PolicyCatalog> NewCatalog() const {
    return std::make_unique<PolicyCatalog>(catalog_.get(), GetParam());
  }

  // From scratch: the pair's seed (what a catalog that never held a policy
  // reports) plus every governing expression's content_fp, mod 2^64.
  uint64_t Oracle(const PolicyCatalog& p, LocationId loc,
                  const std::string& table) const {
    uint64_t h = seeds_->TablePolicyFingerprint(loc, table);
    for (size_t i : p.ForTable(loc, table)) h += p.For(loc)[i].content_fp;
    return h == 0 ? 1 : h;
  }

  // Every (location, table) pair of the catalog, governed or not.
  Snapshot Fingerprints(const PolicyCatalog& p) const {
    Snapshot out;
    for (LocationId l = 0; l < catalog_->locations().num_locations(); ++l) {
      for (const std::string& t : tables_) {
        out[{l, t}] = p.TablePolicyFingerprint(l, t);
      }
    }
    return out;
  }

  void ExpectMatchesOracle(const PolicyCatalog& p) const {
    for (const auto& [pair, fp] : Fingerprints(p)) {
      EXPECT_EQ(fp, Oracle(p, pair.first, pair.second))
          << "l" << pair.first + 1 << "/" << pair.second;
    }
  }

  // A random valid policy over a random table: `ship *` or an attribute
  // subset, basic or aggregate (with optional group-by), to `*` or a
  // location subset, with or without a numeric predicate.
  Placed RandomPolicy(Rng& rng) const {
    const size_t num_locs = catalog_->locations().num_locations();
    const std::string& table =
        tables_[rng.Uniform(0, static_cast<int64_t>(tables_.size()) - 1)];
    const std::vector<ColumnDef>& cols =
        (*catalog_->GetTable(table))->schema.columns();
    auto pick = [&]() -> const ColumnDef& {
      return cols[rng.Uniform(0, static_cast<int64_t>(cols.size()) - 1)];
    };
    std::string text = "ship ";
    const bool aggregate = rng.Uniform(0, 2) == 0;
    if (!aggregate && rng.Uniform(0, 3) == 0) {
      text += "*";
    } else {
      std::vector<std::string> attrs;
      for (int i = rng.Uniform(1, 3); i > 0; --i) {
        const std::string& c = pick().name;
        if (std::find(attrs.begin(), attrs.end(), c) == attrs.end()) {
          attrs.push_back(c);
        }
      }
      for (size_t i = 0; i < attrs.size(); ++i) {
        text += (i > 0 ? ", " : "") + attrs[i];
      }
    }
    if (aggregate) {
      text += rng.Uniform(0, 1) == 0 ? " as aggregates sum"
                                     : " as aggregates sum, max";
    }
    text += " from " + table + " to ";
    if (rng.Uniform(0, 3) == 0) {
      text += "*";
    } else {
      const int64_t first = rng.Uniform(1, static_cast<int64_t>(num_locs));
      text += "l" + std::to_string(first);
      if (rng.Uniform(0, 1) == 0) {
        text += ", l" + std::to_string(first % num_locs + 1);
      }
    }
    if (rng.Uniform(0, 1) == 0) {
      for (const ColumnDef& c : cols) {
        if (c.type != DataType::kInt64) continue;
        text += " where " + c.name + " > " +
                std::to_string(rng.Uniform(0, 50));
        break;
      }
    }
    if (aggregate && rng.Uniform(0, 1) == 0) text += " group by " + pick().name;
    const std::string location =
        "l" + std::to_string(rng.Uniform(1, static_cast<int64_t>(num_locs)));
    return {location, text};
  }

  std::unique_ptr<PolicyCatalog> Install(
      const std::vector<Placed>& policies) const {
    auto p = NewCatalog();
    for (const auto& [location, text] : policies) {
      EXPECT_TRUE(p->AddPolicyText(location, text).ok()) << text;
    }
    return p;
  }

  // Policy ids currently installed, in location then install order.
  std::vector<int64_t> Ids(const PolicyCatalog& p) const {
    std::vector<int64_t> ids;
    for (LocationId l = 0; l < catalog_->locations().num_locations(); ++l) {
      for (const PolicyExpression& e : p.For(l)) ids.push_back(e.id);
    }
    return ids;
  }

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<PolicyCatalog> seeds_;  // never holds a policy
  std::vector<std::string> tables_;
};

TEST_P(PolicyFingerprintTest, MaintainedValueMatchesFromScratchOracle) {
  const size_t num_locs = catalog_->locations().num_locations();
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto p = NewCatalog();
    ExpectMatchesOracle(*p);
    for (int step = 0; step < 300; ++step) {
      const int64_t op = rng.Uniform(0, 99);
      const std::vector<int64_t> ids = Ids(*p);
      if (op < 55 || ids.empty()) {
        const auto [location, text] = RandomPolicy(rng);
        ASSERT_TRUE(p->AddPolicyText(location, text).ok()) << text;
      } else if (op < 65) {
        // Pre-built: a copy of an installed expression, placed anywhere.
        const LocationId from = static_cast<LocationId>(
            rng.Uniform(0, static_cast<int64_t>(num_locs) - 1));
        if (p->For(from).empty()) continue;
        PolicyExpression copy = p->For(from)[rng.Uniform(
            0, static_cast<int64_t>(p->For(from).size()) - 1)];
        const LocationId to = static_cast<LocationId>(
            rng.Uniform(0, static_cast<int64_t>(num_locs) - 1));
        ASSERT_TRUE(p->AddPolicy(to, std::move(copy)).ok());
      } else if (op < 98) {
        const int64_t id =
            ids[rng.Uniform(0, static_cast<int64_t>(ids.size()) - 1)];
        ASSERT_TRUE(p->RemovePolicy(id).ok());
      } else {
        p->Clear();
      }
      ExpectMatchesOracle(*p);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at step " << step;
      }
    }
  }
}

TEST_P(PolicyFingerprintTest, InstallOrderDoesNotMatter) {
  Rng rng(17);
  std::vector<Placed> policies;
  for (int i = 0; i < 60; ++i) policies.push_back(RandomPolicy(rng));
  const Snapshot forward = Fingerprints(*Install(policies));
  std::reverse(policies.begin(), policies.end());
  EXPECT_EQ(Fingerprints(*Install(policies)), forward);
  for (size_t i = policies.size(); i > 1; --i) {
    std::swap(policies[i - 1], policies[rng.Uniform(0, i - 1)]);
  }
  EXPECT_EQ(Fingerprints(*Install(policies)), forward);
}

TEST_P(PolicyFingerprintTest, RemoveThenReAddRestoresFingerprint) {
  Rng rng(23);
  std::vector<Placed> policies;
  for (int i = 0; i < 40; ++i) policies.push_back(RandomPolicy(rng));
  auto p = Install(policies);
  const Snapshot before = Fingerprints(*p);
  const size_t num_locs = catalog_->locations().num_locations();
  for (LocationId l = 0; l < num_locs; ++l) {
    if (p->For(l).empty()) continue;
    const PolicyExpression victim = p->For(l).front();
    const std::pair<LocationId, std::string> pair{l, victim.table};
    ASSERT_TRUE(p->RemovePolicy(victim.id).ok());
    Snapshot removed = Fingerprints(*p);
    EXPECT_NE(removed[pair], before.at(pair));
    removed[pair] = before.at(pair);
    EXPECT_EQ(removed, before) << "a remove moved another pair";
    ASSERT_TRUE(p->AddPolicy(l, victim).ok());
    EXPECT_EQ(Fingerprints(*p), before);
  }
}

TEST_P(PolicyFingerprintTest, EveryContentFieldMovesOnlyItsPair) {
  const std::vector<Placed> base = {
      {"l2", "ship orderkey, totalprice as aggregates sum from orders to "
             "l4 where custkey > 10 group by orderdate"},
      {"l2", "ship * from orders to l1"},
      {"l2", "ship * from customer to l4, l5"},
      {"l3", "ship orderkey from orders to *"},
  };
  const Snapshot original = Fingerprints(*Install(base));
  // One field of the first policy changed at a time.
  const std::vector<std::string> variants = {
      // predicate
      "ship orderkey, totalprice as aggregates sum from orders to l4 "
      "where custkey > 11 group by orderdate",
      // to
      "ship orderkey, totalprice as aggregates sum from orders to l4, l5 "
      "where custkey > 10 group by orderdate",
      // attributes
      "ship orderkey as aggregates sum from orders to l4 "
      "where custkey > 10 group by orderdate",
      // aggregate functions
      "ship orderkey, totalprice as aggregates sum, max from orders to l4 "
      "where custkey > 10 group by orderdate",
      // group-by
      "ship orderkey, totalprice as aggregates sum from orders to l4 "
      "where custkey > 10 group by custkey",
  };
  const std::pair<LocationId, std::string> governed{1, "orders"};
  for (const std::string& variant : variants) {
    SCOPED_TRACE(variant);
    std::vector<Placed> changed = base;
    changed[0].second = variant;
    Snapshot fp = Fingerprints(*Install(changed));
    EXPECT_NE(fp[governed], original.at(governed));
    fp[governed] = original.at(governed);
    EXPECT_EQ(fp, original) << "the change moved another pair";
  }
}

INSTANTIATE_TEST_SUITE_P(
    IndexModes, PolicyFingerprintTest,
    ::testing::Values(PolicyIndexMode::kFlat, PolicyIndexMode::kHierarchical),
    [](const ::testing::TestParamInfo<PolicyIndexMode>& info) {
      return info.param == PolicyIndexMode::kFlat ? std::string("Flat")
                                                  : std::string("Hier");
    });

}  // namespace
}  // namespace cgq
