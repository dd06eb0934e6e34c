// Policy scale-out: hierarchical policy index vs the flat reference.
//
// Sweeps catalog size {100, 1k, 10k} x regions {5, 20} (tiny: {100, 1k}),
// generating fine-grained ("F" template) expression sets, and compares the
// flat per-(location, table) index against the hierarchical index
// (signature buckets plus the whole-evaluation memo) on
//
//   - AddPolicy throughput (catalog construction),
//   - policy-evaluation time summed over a 12-query workload
//     (TPC-H Q2/Q6/Q10 + nine ad-hoc PK-FK join queries),
//   - end-to-end optimization time,
//
// asserting per-query identical compliance decisions between the two
// layouts. The evaluation timings are the best of the warm passes, which
// the evaluation memo serves. The JSON rows seed BENCH_policy.json, pinned
// by `ci/bench_gate.py policy-scale`: a decision mismatch in any cell, a
// warm `hier_eval_ms` above max(baseline * 1.15, baseline + 0.5 ms), or
// an eval speedup below 10x in the largest cell fails the gate.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/optimizer.h"
#include "net/network_model.h"
#include "tpch/tpch.h"
#include "workload/policy_generator.h"
#include "workload/query_generator.h"

using namespace cgq;  // NOLINT

namespace {

struct Decision {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  LocationId result_location = 0;
  bool compliant = false;
  double phase1_cost = 0;
  double comm_cost_ms = 0;

  bool operator==(const Decision&) const = default;
};

Decision DecisionOf(const Result<OptimizedQuery>& q) {
  Decision d;
  d.ok = q.ok();
  d.code = q.status().code();
  if (q.ok()) {
    d.result_location = q->result_location;
    d.compliant = q->compliant;
    d.phase1_cost = q->phase1_cost;
    d.comm_cost_ms = q->comm_cost_ms;
  }
  return d;
}

/// One pass of the whole workload; returns summed Evaluate() time and
/// end-to-end optimize wall time, plus per-query decisions.
struct PassResult {
  double eval_ms = 0;
  double opt_ms = 0;
  int64_t evaluations = 0;
  int64_t candidates = 0;
  int64_t implication_tests = 0;
  int64_t prefilter_skips = 0;
  std::vector<Decision> decisions;
};

PassResult RunWorkload(const QueryOptimizer& optimizer,
                       const std::vector<std::string>& workload) {
  PassResult pass;
  for (const std::string& sql : workload) {
    auto t0 = std::chrono::steady_clock::now();
    Result<OptimizedQuery> r = optimizer.Optimize(sql);
    auto t1 = std::chrono::steady_clock::now();
    pass.opt_ms +=
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r.ok()) {
      pass.eval_ms += r->stats.policy.eval_ms;
      pass.evaluations += r->stats.policy.evaluations;
      pass.candidates += r->stats.policy.candidates;
      pass.implication_tests += r->stats.policy.implication_tests;
      pass.prefilter_skips += r->stats.policy.prefilter_skips;
    }
    pass.decisions.push_back(DecisionOf(r));
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::BenchOptions::Parse(argc, argv);
  bench::JsonReport report(opts.json_path);

  std::vector<size_t> sizes = {100, 1000, 10000};
  if (opts.tiny) sizes = {100, 1000};
  const std::vector<size_t> regions = {5, 20};

  bool all_equal = true;
  double largest_speedup = 0;

  for (size_t num_regions : regions) {
    tpch::TpchConfig config;
    config.scale_factor = 10;
    config.num_locations = num_regions;
    auto catalog = tpch::BuildCatalog(config);
    if (!catalog.ok()) return 1;
    NetworkModel net = NetworkModel::DefaultGeo(num_regions);
    WorkloadProperties properties = TpchWorkloadProperties();

    // Fixed 12-query workload: the most/least join-heavy paper queries, a
    // scan-heavy one, and nine generated PK-FK join queries.
    std::vector<std::string> workload;
    for (int q : {2, 6, 10}) workload.push_back(*tpch::Query(q));
    QueryGeneratorConfig qconfig;
    qconfig.seed = 13;
    AdhocQueryGenerator qgen(&*catalog, &properties, qconfig);
    for (int i = 0; i < 9; ++i) workload.push_back(qgen.Next());

    for (size_t size : sizes) {
      bench::PrintHeader(
          "policy_scale: " + std::to_string(size) + " policies, " +
          std::to_string(num_regions) + " regions (template F, " +
          std::to_string(workload.size()) + "-query workload)");

      PolicyGeneratorConfig pconfig;
      pconfig.template_name = "F";
      pconfig.count = size;
      pconfig.seed = 11 + size;
      pconfig.locations_per_expr = 3;
      pconfig.hub = static_cast<LocationId>(num_regions - 1);

      // Catalog construction is measured once per mode (the AddPolicy
      // throughput row) and deliberately kept out of the evaluation
      // timings below.
      PolicyCatalog flat(&*catalog, PolicyIndexMode::kFlat);
      PolicyCatalog hier(&*catalog, PolicyIndexMode::kHierarchical);
      double add_ms[2] = {0, 0};
      PolicyCatalog* cats[2] = {&flat, &hier};
      for (int m = 0; m < 2; ++m) {
        PolicyExpressionGenerator pgen(&*catalog, &properties, pconfig);
        auto t0 = std::chrono::steady_clock::now();
        if (!pgen.InstallInto(cats[m]).ok()) return 1;
        auto t1 = std::chrono::steady_clock::now();
        add_ms[m] =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
      }
      PolicyCatalog::IndexStats istats = hier.Stats();

      OptimizerOptions oopts;
      oopts.threads = 1;
      QueryOptimizer flat_opt(&*catalog, &flat, &net, oopts);
      QueryOptimizer hier_opt(&*catalog, &hier, &net, oopts);

      // Warm-up pass per mode (also the decision-equality check), then
      // `reps` timed passes; report the minimum.
      PassResult flat_probe = RunWorkload(flat_opt, workload);
      PassResult hier_probe = RunWorkload(hier_opt, workload);
      size_t mismatches = 0;
      for (size_t i = 0; i < workload.size(); ++i) {
        if (!(flat_probe.decisions[i] == hier_probe.decisions[i])) {
          ++mismatches;
          std::printf("  DECISION MISMATCH on workload query %zu\n", i);
        }
      }
      all_equal &= mismatches == 0;

      PassResult flat_best = flat_probe, hier_best = hier_probe;
      for (int rep = 0; rep < opts.reps; ++rep) {
        PassResult f = RunWorkload(flat_opt, workload);
        PassResult h = RunWorkload(hier_opt, workload);
        if (f.eval_ms < flat_best.eval_ms) flat_best = f;
        if (h.eval_ms < hier_best.eval_ms) hier_best = h;
      }

      double speedup = hier_best.eval_ms > 0
                           ? flat_best.eval_ms / hier_best.eval_ms
                           : 0;
      if (size == sizes.back() && num_regions == regions.back()) {
        largest_speedup = speedup;
      }

      std::printf("%-6s %-12s %-12s %-12s %-8s %-12s %-10s\n", "mode",
                  "add [ms]", "eval [ms]", "opt [ms]", "evals",
                  "candidates", "impl tests");
      std::printf("%-6s %-12.2f %-12.3f %-12.2f %-8lld %-12lld %-10lld\n",
                  "flat", add_ms[0], flat_best.eval_ms, flat_best.opt_ms,
                  static_cast<long long>(flat_best.evaluations),
                  static_cast<long long>(flat_best.candidates),
                  static_cast<long long>(flat_best.implication_tests));
      std::printf("%-6s %-12.2f %-12.3f %-12.2f %-8lld %-12lld %-10lld\n",
                  "hier", add_ms[1], hier_best.eval_ms, hier_best.opt_ms,
                  static_cast<long long>(hier_best.evaluations),
                  static_cast<long long>(hier_best.candidates),
                  static_cast<long long>(hier_best.implication_tests));
      std::printf(
          "eval speedup %.2fx | policies %zu buckets %zu "
          "(max %zu) | prefilter skips %lld | decisions %s\n",
          speedup, istats.active, istats.buckets,
          istats.max_bucket,
          static_cast<long long>(hier_best.prefilter_skips),
          mismatches == 0 ? "identical" : "MISMATCH");

      report.Add(
          bench::JsonRow()
              .Set("bench", "policy_scale")
              .Set("section", "sweep")
              .Set("policies", size)
              .Set("regions", num_regions)
              .Set("queries", workload.size())
              .Set("flat_add_ms", add_ms[0])
              .Set("hier_add_ms", add_ms[1])
              .Set("flat_eval_ms", flat_best.eval_ms)
              .Set("hier_eval_ms", hier_best.eval_ms)
              .Set("flat_opt_ms", flat_best.opt_ms)
              .Set("hier_opt_ms", hier_best.opt_ms)
              .Set("flat_candidates", flat_best.candidates)
              .Set("hier_candidates", hier_best.candidates)
              .Set("prefilter_skips", hier_best.prefilter_skips)
              .Set("eval_speedup", speedup)
              .Set("active", istats.active)
              .Set("buckets", istats.buckets)
              .Set("max_bucket", istats.max_bucket)
              .Set("decisions_equal", mismatches == 0));

      // AddPolicy throughput row (policies/second, parse included).
      for (int m = 0; m < 2; ++m) {
        double rate = add_ms[m] > 0 ? 1000.0 * static_cast<double>(size) /
                                          add_ms[m]
                                    : 0;
        report.Add(bench::JsonRow()
                       .Set("bench", "policy_scale")
                       .Set("section", "addpolicy")
                       .Set("mode", m == 0 ? "flat" : "hier")
                       .Set("policies", size)
                       .Set("regions", num_regions)
                       .Set("add_ms", add_ms[m])
                       .Set("policies_per_sec", rate));
      }
    }
  }

  std::printf("\nlargest-scale eval speedup (hier vs flat): %.2fx; "
              "decisions identical: %s\n",
              largest_speedup, all_equal ? "yes" : "NO");

  if (!report.Flush()) return 1;
  return all_equal ? 0 : 1;
}
