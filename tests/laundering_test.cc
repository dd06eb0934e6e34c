#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/compliance_checker.h"
#include "core/engine.h"
#include "exec/executor.h"
#include "service/plan_cache.h"

namespace cgq {
namespace {

// Attempts to launder data through relays, renames and wrappers must all
// be caught: a SHIP chain confers no rights beyond the origin's policies.
class LaunderingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Catalog catalog;
    for (const char* l : {"n", "e", "a"}) {
      ASSERT_TRUE(catalog.mutable_locations().AddLocation(l).ok());
    }
    TableDef t;
    t.name = "cust";
    t.schema = Schema({{"id", DataType::kInt64},
                       {"name", DataType::kString}});
    t.fragments = {TableFragment{0, 1.0}};
    t.stats.row_count = 10;
    ASSERT_TRUE(catalog.AddTable(t).ok());
    engine_ = std::make_unique<Engine>(std::move(catalog),
                                       NetworkModel::DefaultGeo(3));
    // cust may go to e, but never to a.
    ASSERT_TRUE(engine_->AddPolicy("n", "ship * from cust to e").ok());
  }

  PlanNodePtr Scan() {
    auto scan = std::make_shared<PlanNode>(PlanKind::kScan);
    scan->table = "cust";
    scan->alias = "cust";
    scan->scan_location = 0;
    scan->location = 0;
    scan->outputs = {{0, "id", DataType::kInt64},
                     {1, "name", DataType::kString}};
    return scan;
  }

  PlanNodePtr Ship(PlanNodePtr child, LocationId to) {
    auto ship = std::make_shared<PlanNode>(PlanKind::kShip);
    ship->ship_from = child->location;
    ship->ship_to = to;
    ship->location = to;
    ship->outputs = child->outputs;
    ship->children().push_back(std::move(child));
    return ship;
  }

  bool Check(const PlanNodePtr& plan) {
    PolicyEvaluator evaluator(&engine_->catalog(), &engine_->policies());
    return CheckCompliance(*plan, evaluator,
                           engine_->catalog().locations())
        .compliant;
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(LaunderingTest, DirectShipToForbiddenSiteFlagged) {
  EXPECT_FALSE(Check(Ship(Scan(), 2)));
  EXPECT_TRUE(Check(Ship(Scan(), 1)));
}

TEST_F(LaunderingTest, RelayThroughAllowedSiteFlagged) {
  // n -> e (legal) -> a (illegal): the relay must not launder.
  EXPECT_FALSE(Check(Ship(Ship(Scan(), 1), 2)));
}

TEST_F(LaunderingTest, ProjectionAtRelaySiteDoesNotHelp) {
  // Renaming/narrowing at e grants nothing new: the policy of n still
  // governs the cells.
  PlanNodePtr shipped = Ship(Scan(), 1);
  auto project = std::make_shared<PlanNode>(PlanKind::kProject);
  project->project_ids = {1};
  project->project_names = {"alias_name"};
  project->location = 1;
  project->outputs = {{1, "alias_name", DataType::kString}};
  project->children().push_back(shipped);
  EXPECT_FALSE(Check(Ship(project, 2)));
}

TEST_F(LaunderingTest, OptimizerNeverRoutesThroughRelay) {
  // End-to-end: no compliant plan can deliver cust data at a.
  OptimizerOptions opts;
  opts.required_result = LocationSet::Single(2);
  auto r = engine_->Optimize("SELECT name FROM cust", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNonCompliant());
}

// ---------------------------------------------------------------------
// Compliance under recovery: laundering must not become possible just
// because a fragment failed and was retried. The executor re-checks the
// execution/shipping traits on every (re)attempt, and recovery never
// re-places a fragment.

// A compliant located plan for the fixture: scan cust at n, ship to e,
// with the traits the optimizer would annotate (cust may run at n and be
// shipped to e, never to a).
class RecoveryComplianceTest : public LaunderingTest {
 protected:
  void SetUp() override {
    LaunderingTest::SetUp();
    Failpoints::DisarmAll();
    std::vector<Row> rows;
    for (int64_t i = 0; i < 10; ++i) {
      const std::string n = std::to_string(i);
      rows.push_back({Value::Int64(i), Value::String("c" + n)});
    }
    engine_->store().Put(0, "cust", std::move(rows));
  }
  void TearDown() override {
    Failpoints::DisarmAll();
    engine_->mutable_net().ClearLinkFaults();
  }

  PlanNodePtr AnnotatedPlan() {
    PlanNodePtr scan = Scan();
    scan->exec_trait = LocationSet::Single(0);
    LocationSet allowed = LocationSet::Single(0);
    allowed.Add(1);  // cust may stay at n or go to e; a is off-limits
    scan->ship_trait = allowed;
    PlanNodePtr ship = Ship(std::move(scan), 1);
    ship->exec_trait = LocationSet::Single(1);
    ship->ship_trait = allowed;
    return ship;
  }

  Result<QueryResult> Execute(const PlanNodePtr& plan,
                              const RetryPolicy& retry) {
    ExecutorOptions opts;
    opts.mode = ExecMode::kFragment;
    opts.batch_size = 2;
    opts.threads = 1;
    opts.retry = retry;
    Executor exec(&engine_->store(), &engine_->net(), opts);
    return exec.ExecutePlan(*plan);
  }
};

// A restarted fragment re-runs at its assigned compliant site — with a
// lossy link and a fragment.start failure, the run recovers, and every
// fragment (including the restarted one) stays where the located plan
// put it.
TEST_F(RecoveryComplianceTest, RestartedFragmentStaysAtCompliantSite) {
  PlanNodePtr plan = AnnotatedPlan();
  LinkFault fault;
  fault.drop_probability = 0.3;
  engine_->mutable_net().SetLinkFault(0, 1, fault);
  Failpoints::ArmOnce("fragment.start");

  RetryPolicy retry;
  retry.max_retries = 25;
  retry.fault_seed = 11;
  auto r = Execute(plan, retry);
  ASSERT_TRUE(r.ok()) << r.status();

  EXPECT_EQ(r->rows.size(), 10u);
  EXPECT_EQ(r->metrics.fragment_restarts, 1);
  // The producer fragment re-ran at n (site 0) and its retried ships all
  // targeted e (site 1): no edge outside the annotated traits appears.
  for (const FragmentMetrics& f : r->metrics.fragments) {
    EXPECT_TRUE(f.site == 0 || f.site == 1);
  }
  for (const ChannelStats& e : r->metrics.edges) {
    EXPECT_EQ(e.from, 0);
    EXPECT_EQ(e.to, 1);
    EXPECT_NE(e.to, 2);  // never the forbidden site, retries included
  }
}

// Tampering the execution trait so the fragment's site is no longer legal
// turns every attempt (first or restarted) into a typed compliance
// violation — recovery cannot be used to run data at a forbidden site.
TEST_F(RecoveryComplianceTest, ExecutionOutsideTraitIsRejected) {
  PlanNodePtr plan = AnnotatedPlan();
  plan->child(0)->exec_trait = LocationSet::Single(2);  // excludes n
  auto r = Execute(plan, RetryPolicy());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("compliance violation"),
            std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("execution trait"),
            std::string::npos);
}

// Same for the shipping trait: a ship edge whose destination lies outside
// the trait is refused before any batch moves, so retries can never
// deliver data to a site the policies exclude.
TEST_F(RecoveryComplianceTest, ShipOutsideTraitIsRejected) {
  PlanNodePtr plan = AnnotatedPlan();
  plan->ship_trait = LocationSet::Single(0);  // e no longer allowed
  auto r = Execute(plan, RetryPolicy());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("shipping trait"), std::string::npos)
      << r.status();
}

std::vector<std::string> RenderedRows(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  return out;
}

// A cached plan is an expiring compliance proof (Theorem 1 covers only
// the policy set it was optimized under): after the policy it depends on
// is dropped, the cache must never serve it — the query re-optimizes and
// is rejected, exactly as if it had never been cached.
TEST_F(RecoveryComplianceTest, CachedPlanNeverServedAfterPolicyDrop) {
  PlanCache cache;
  engine_->set_plan_cache(&cache);
  OptimizerOptions opts = engine_->default_options();
  opts.required_result = LocationSet::Single(1);  // deliver at e
  const std::string sql = "SELECT name FROM cust";

  auto cold = engine_->Run(sql, opts);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->opt_stats.cache_hit);

  auto warm = engine_->Run(sql, opts);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->opt_stats.cache_hit);
  EXPECT_EQ(RenderedRows(*warm), RenderedRows(*cold));

  // Drop the only policy granting cust any movement. The cached plan
  // ships cust n -> e, which is now laundering.
  ASSERT_EQ(engine_->policies().For(0).size(), 1u);
  int64_t id = engine_->policies().For(0)[0].id;
  ASSERT_TRUE(engine_->policies().RemovePolicy(id).ok());

  auto after = engine_->Run(sql, opts);
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsNonCompliant()) << after.status();
  EXPECT_GE(cache.stats().invalidations, 1);

  // Re-granting restores service (a fresh optimization, not the stale
  // entry: the erase above is permanent).
  ASSERT_TRUE(engine_->AddPolicy("n", "ship * from cust to e").ok());
  auto regranted = engine_->Run(sql, opts);
  ASSERT_TRUE(regranted.ok()) << regranted.status();
  EXPECT_FALSE(regranted->opt_stats.cache_hit);
  EXPECT_EQ(RenderedRows(*regranted), RenderedRows(*cold));
  engine_->set_plan_cache(nullptr);
}

// The parameterized variant of the same laundering attempt: a cached
// template is rebound to fresh constants on every hit, and the
// compliance re-check runs on the *bound* plan — so after the policy it
// depends on is dropped, no constant can ever ride the stale entry.
TEST_F(RecoveryComplianceTest, ParameterizedHitNeverServedAfterPolicyDrop) {
  PlanCache cache;
  engine_->set_plan_cache(&cache);
  OptimizerOptions opts = engine_->default_options();
  opts.required_result = LocationSet::Single(1);  // deliver at e

  auto cold = engine_->Run("SELECT name FROM cust WHERE id < 3", opts);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->opt_stats.cache_hit);

  // Same template, different constant: a parameterized hit.
  auto warm = engine_->Run("SELECT name FROM cust WHERE id < 7", opts);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->opt_stats.cache_hit);
  EXPECT_TRUE(warm->opt_stats.cache_param_hit);
  EXPECT_EQ(warm->rows.size(), 7u);  // the new constant, not the cached 3

  ASSERT_EQ(engine_->policies().For(0).size(), 1u);
  ASSERT_TRUE(
      engine_->policies().RemovePolicy(engine_->policies().For(0)[0].id)
          .ok());

  // A third constant must not be served from the (now laundering) entry.
  auto after = engine_->Run("SELECT name FROM cust WHERE id < 9", opts);
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsNonCompliant()) << after.status();
  EXPECT_GE(cache.stats().invalidations, 1);
  engine_->set_plan_cache(nullptr);
}

// Tenants with different visibility (required-result sets) never share a
// parameterized entry: the cache key covers the plan-shaping options, so
// a tenant whose delivery site is off-limits for cust re-optimizes and is
// rejected — the other tenant's cached proof is not transferable.
TEST_F(RecoveryComplianceTest, ParameterizedHitDoesNotCrossTenantVisibility) {
  PlanCache cache;
  engine_->set_plan_cache(&cache);
  OptimizerOptions tenant_e = engine_->default_options();
  tenant_e.required_result = LocationSet::Single(1);  // e: allowed
  OptimizerOptions tenant_a = engine_->default_options();
  tenant_a.required_result = LocationSet::Single(2);  // a: forbidden

  auto cold = engine_->Run("SELECT name FROM cust WHERE id < 3", tenant_e);
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = engine_->Run("SELECT name FROM cust WHERE id < 5", tenant_e);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->opt_stats.cache_param_hit);

  // Same template, same shape — but the other tenant's visibility. The
  // warm entry must not be consulted (different key), and the fresh
  // optimization correctly rejects the laundering attempt.
  PlanCacheStats before = cache.stats();
  auto other = engine_->Run("SELECT name FROM cust WHERE id < 5", tenant_a);
  ASSERT_FALSE(other.ok());
  EXPECT_TRUE(other.status().IsNonCompliant()) << other.status();
  PlanCacheStats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);  // never even a candidate
  engine_->set_plan_cache(nullptr);
}

// A narrow policy installed beside a wider one that subsumes it, in the
// hierarchical index. Removing the wider policy must leave the narrow one
// with its exact original force: it still blocks everything it blocked
// alone (no under-blocking — the wider grant must not survive its removal)
// and still grants what it granted alone (no over-blocking).
TEST_F(LaunderingTest, MergedPolicyStillBlocksAfterDonorRemoval) {
  Catalog catalog;
  for (const char* l : {"n", "e", "a"}) {
    ASSERT_TRUE(catalog.mutable_locations().AddLocation(l).ok());
  }
  TableDef t;
  t.name = "cust";
  t.schema =
      Schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
  t.fragments = {TableFragment{0, 1.0}};
  t.stats.row_count = 10;
  ASSERT_TRUE(catalog.AddTable(t).ok());
  Engine engine(std::move(catalog), NetworkModel::DefaultGeo(3));
  ASSERT_TRUE(
      engine.set_policy_index_mode(PolicyIndexMode::kHierarchical).ok());

  // Narrow donor first, wide `ship *` policy second.
  ASSERT_TRUE(engine.AddPolicy("n", "ship id from cust to e").ok());
  int64_t donor_id = engine.policies().For(0)[0].id;
  ASSERT_TRUE(engine.AddPolicy("n", "ship * from cust to e").ok());
  ASSERT_EQ(engine.policies().For(0).size(), 2u);
  int64_t absorber_id = engine.policies().For(0)[1].id;

  // While both are installed, the wide grant rules: name may go to e.
  OptimizerOptions to_e;
  to_e.required_result = LocationSet::Single(1);
  EXPECT_TRUE(engine.Optimize("SELECT name FROM cust", to_e).ok());

  // Remove the wide policy. The donor remains — and ONLY the donor.
  ASSERT_TRUE(engine.policies().RemovePolicy(absorber_id).ok());
  ASSERT_EQ(engine.policies().For(0).size(), 1u);
  EXPECT_EQ(engine.policies().For(0)[0].id, donor_id);

  // Exactly the donor's solo behavior: id->e legal, name->e and id->a are
  // laundering.
  EXPECT_TRUE(engine.Optimize("SELECT id FROM cust", to_e).ok());
  auto name_to_e = engine.Optimize("SELECT name FROM cust", to_e);
  ASSERT_FALSE(name_to_e.ok());
  EXPECT_TRUE(name_to_e.status().IsNonCompliant());
  OptimizerOptions to_a;
  to_a.required_result = LocationSet::Single(2);
  auto id_to_a = engine.Optimize("SELECT id FROM cust", to_a);
  ASSERT_FALSE(id_to_a.ok());
  EXPECT_TRUE(id_to_a.status().IsNonCompliant());
}

TEST_F(LaunderingTest, AggregationAtRelaySiteUsesRelayPolicies) {
  // Aggregating at e produces a new single-database block... of n's data?
  // No: the block's source is still n (the scan), so only n's policies
  // apply, and they do not allow a.
  PlanNodePtr shipped = Ship(Scan(), 1);
  auto agg = std::make_shared<PlanNode>(PlanKind::kAggregate);
  agg->group_ids = {0};
  agg->location = 1;
  agg->children().push_back(shipped);
  agg->outputs = {{0, "id", DataType::kInt64}};
  EXPECT_FALSE(Check(Ship(agg, 2)));
}

}  // namespace
}  // namespace cgq
