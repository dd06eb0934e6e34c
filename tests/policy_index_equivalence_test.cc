// Randomized equivalence soak for the hierarchical policy index (ISSUE 9):
// generated catalogs (seeded, log-skewed sizes 10..10k over 5 and 20
// regions) × the 24-query workload (the 12 paper TPC-H queries + 12
// generated PK-FK join queries), asserting that the indexed and flat
// evaluation paths produce identical per-query compliance decisions,
// identical plan traits (exec/ship trait and site per operator), and
// identical rejected-query sets. Decision-identity at scale is the whole
// contract of the index — bucket prunes and the evaluation memo must both
// be invisible. On each catalog's first (cold) pass the index must also
// never do more work than the flat walk: no more candidates and no more
// implication tests.
//
// Runs at evaluator fan-out widths 1 and 4; the 4-wide variant doubles as
// the TSan target (ci.yml runs this test under the TSan filter).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "net/network_model.h"
#include "tpch/tpch.h"
#include "workload/policy_generator.h"
#include "workload/query_generator.h"

namespace cgq {
namespace {

// Everything a caller can observe about one optimized query, plus the
// per-operator annotations that drive compliance (𝒮/ℰ traits, chosen
// sites). Two modes agreeing on this for every query of every catalog is
// the equivalence contract.
struct QueryVerdict {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  bool compliant = false;
  LocationId result_location = 0;
  double phase1_cost = 0;
  double comm_cost_ms = 0;
  std::vector<uint64_t> traits;  ///< pre-order plan walk

  bool operator==(const QueryVerdict&) const = default;
};

void CollectTraits(const PlanNode& n, std::vector<uint64_t>* out) {
  out->push_back(static_cast<uint64_t>(n.kind()));
  out->push_back(n.exec_trait.bits());
  out->push_back(n.ship_trait.bits());
  out->push_back(static_cast<uint64_t>(n.location));
  out->push_back(static_cast<uint64_t>(n.ship_to));
  out->push_back(n.children().size());
  for (const PlanNodePtr& c : n.children()) CollectTraits(*c, out);
}

QueryVerdict VerdictOf(const Result<OptimizedQuery>& r) {
  QueryVerdict v;
  v.ok = r.ok();
  v.code = r.status().code();
  if (r.ok()) {
    v.compliant = r->compliant;
    v.result_location = r->result_location;
    v.phase1_cost = r->phase1_cost;
    v.comm_cost_ms = r->comm_cost_ms;
    if (r->plan != nullptr) CollectTraits(*r->plan, &v.traits);
  }
  return v;
}

// One TPC-H deployment (catalog + network + 24-query workload), shared by
// every generated policy catalog over the same region count.
struct Deployment {
  Result<Catalog> catalog;
  NetworkModel net = NetworkModel::DefaultGeo(1);
  WorkloadProperties properties;
  std::vector<std::string> workload;

  explicit Deployment(size_t num_regions)
      : catalog(tpch::BuildCatalog([&] {
          tpch::TpchConfig config;
          config.scale_factor = 1;
          config.num_locations = num_regions;
          return config;
        }())),
        net(NetworkModel::DefaultGeo(num_regions)),
        properties(TpchWorkloadProperties()) {
    if (!catalog.ok()) return;
    for (int q : {1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 14, 19}) {
      auto sql = tpch::Query(q);
      if (sql.ok()) workload.push_back(*sql);  // size checked by RunSoak
    }
    QueryGeneratorConfig qconfig;
    qconfig.seed = 29;
    AdhocQueryGenerator qgen(&*catalog, &properties, qconfig);
    for (int i = 0; i < 12; ++i) workload.push_back(qgen.Next());
  }
};

// Log-skewed catalog size for soak iteration i of n: mostly small catalogs
// (cheap, many seeds) with a heavy tail reaching 10k at the last index.
size_t SizeFor(size_t i, size_t n) {
  double t = static_cast<double>(i) / static_cast<double>(n - 1);
  double s = 10.0 * std::pow(1000.0, t * t * t * t);
  return static_cast<size_t>(s);
}

void RunSoak(int threads, uint64_t seed_base, size_t num_catalogs) {
  Deployment small(5);
  Deployment large(20);
  ASSERT_TRUE(small.catalog.ok());
  ASSERT_TRUE(large.catalog.ok());
  ASSERT_EQ(small.workload.size(), 24u);
  ASSERT_EQ(large.workload.size(), 24u);

  size_t rejected = 0;
  for (size_t i = 0; i < num_catalogs; ++i) {
    SCOPED_TRACE("catalog " + std::to_string(i));
    Deployment& dep = (i % 2 == 0) ? small : large;
    const size_t regions = (i % 2 == 0) ? 5 : 20;

    PolicyGeneratorConfig pconfig;
    pconfig.template_name = "F";
    pconfig.count = SizeFor(i, num_catalogs);
    pconfig.seed = seed_base + i;
    pconfig.locations_per_expr = 1 + i % 4;
    pconfig.hub = static_cast<LocationId>(regions - 1);

    PolicyCatalog flat(&*dep.catalog, PolicyIndexMode::kFlat);
    PolicyCatalog hier(&*dep.catalog, PolicyIndexMode::kHierarchical);
    for (PolicyCatalog* cat : {&flat, &hier}) {
      PolicyExpressionGenerator pgen(&*dep.catalog, &dep.properties, pconfig);
      ASSERT_TRUE(pgen.InstallInto(cat).ok());
    }
    ASSERT_EQ(flat.TotalCount(), hier.TotalCount());

    // Two passes: free placement (the optimizer may park the result
    // anywhere legal) and pinned placement (result forced to a rotating
    // location, which makes some queries outright non-compliant — the
    // rejected-set side of the contract).
    OptimizerOptions oopts;
    oopts.threads = threads;
    OptimizerOptions pinned = oopts;
    pinned.required_result =
        LocationSet::Single(static_cast<LocationId>(i % regions));
    bool cold = true;
    for (const OptimizerOptions& opts : {oopts, pinned}) {
      QueryOptimizer flat_opt(&*dep.catalog, &flat, &dep.net, opts);
      QueryOptimizer hier_opt(&*dep.catalog, &hier, &dep.net, opts);

      size_t flat_rejected = 0, hier_rejected = 0;
      PolicyEvalStats flat_work, hier_work;
      for (size_t q = 0; q < dep.workload.size(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        Result<OptimizedQuery> fr = flat_opt.Optimize(dep.workload[q]);
        Result<OptimizedQuery> hr = hier_opt.Optimize(dep.workload[q]);
        if (fr.ok() && hr.ok()) {
          flat_work.candidates += fr->stats.policy.candidates;
          flat_work.implication_tests += fr->stats.policy.implication_tests;
          hier_work.candidates += hr->stats.policy.candidates;
          hier_work.implication_tests += hr->stats.policy.implication_tests;
        }
        QueryVerdict f = VerdictOf(fr);
        QueryVerdict h = VerdictOf(hr);
        EXPECT_TRUE(f == h)
            << "flat ok=" << f.ok << " code=" << static_cast<int>(f.code)
            << " compliant=" << f.compliant << " at=" << f.result_location
            << " | hier ok=" << h.ok << " code=" << static_cast<int>(h.code)
            << " compliant=" << h.compliant << " at=" << h.result_location;
        flat_rejected += f.ok ? 0 : 1;
        hier_rejected += h.ok ? 0 : 1;
      }
      EXPECT_EQ(flat_rejected, hier_rejected);
      rejected += flat_rejected;
      if (cold) {
        EXPECT_LE(hier_work.candidates, flat_work.candidates);
        EXPECT_LE(hier_work.implication_tests, flat_work.implication_tests);
        cold = false;
      }
    }
  }
  // The soak must exercise the rejected-set side of the contract.
  EXPECT_GT(rejected, 0u);
}

TEST(PolicyIndexEquivalence, SoakSequential) { RunSoak(1, 1000, 100); }

TEST(PolicyIndexEquivalence, SoakParallel4) { RunSoak(4, 2000, 100); }

}  // namespace
}  // namespace cgq
