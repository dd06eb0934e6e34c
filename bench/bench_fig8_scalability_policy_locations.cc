// Figure 8: impact of the number of `to` locations per policy expression.
//
// Section 1 reproduces the paper's shape: a 20-location deployment; eight
// expressions of the form
//   ship * from t to l1, ..., ln
// with n in {3, 5, 10, 15, 20}. Reported: optimization time of Q2 and Q3
// (the most and least join-heavy queries) plus the site-selection share.
// Expected shape: time grows mildly with n (set operations while deriving
// traits), more pronounced for Q2; site selection is a small fraction.
//
// Section 2 keeps the 20-location deployment and the maximal
// locations-per-expression setting but scales the CR+A policy count far
// up, comparing the single-threaded uncached evaluator against the
// parallel evaluator with the implication-result cache and asserting
// identical compliance decisions.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/optimizer.h"
#include "expr/implication.h"
#include "net/network_model.h"
#include "tpch/tpch.h"
#include "workload/policy_generator.h"

using namespace cgq;  // NOLINT

namespace {

struct Decision {
  LocationId result_location = 0;
  bool compliant = false;
  double phase1_cost = 0;
  double comm_cost_ms = 0;

  bool operator==(const Decision&) const = default;
};

Decision DecisionOf(const OptimizedQuery& q) {
  return Decision{q.result_location, q.compliant, q.phase1_cost,
                  q.comm_cost_ms};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::BenchOptions::Parse(argc, argv);
  bench::JsonReport report(opts.json_path);

  tpch::TpchConfig config;
  config.scale_factor = 10;
  config.num_locations = 20;
  auto catalog = tpch::BuildCatalog(config);
  if (!catalog.ok()) return 1;
  NetworkModel net = NetworkModel::DefaultGeo(20);
  WorkloadProperties properties = TpchWorkloadProperties();

  // --- Section 1: the paper's figure -------------------------------------
  std::vector<size_t> ns = {3, 5, 10, 15, 20};
  if (opts.tiny) ns = {3, 20};
  const int queries[] = {2, 3};
  const char* tables[] = {"nation",   "region",   "customer", "orders",
                          "supplier", "partsupp", "part",     "lineitem"};

  // Catalogs are built once per n, up front — never inside a timed region
  // and never rebuilt per query. Construction itself is reported as the
  // AddPolicy throughput row below.
  std::vector<std::unique_ptr<PolicyCatalog>> catalogs;
  bench::PrintHeader(
      "Fig 8 setup: AddPolicy throughput (8 expressions per catalog)");
  std::printf("%-8s %-14s %-16s\n", "n", "build [ms]", "policies/sec");
  for (size_t n : ns) {
    std::string to_list;
    for (size_t i = 1; i <= n; ++i) {
      if (i > 1) to_list += ", ";
      to_list += "l";
      to_list += std::to_string(i);
    }
    auto policies = std::make_unique<PolicyCatalog>(&*catalog);
    size_t installed = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (const char* t : tables) {
      auto def = catalog->GetTable(t);
      if (!def.ok()) continue;
      std::string home = catalog->locations().GetName((*def)->home());
      if (!policies
               ->AddPolicyText(home, std::string("ship * from ") + t +
                                         " to " + to_list)
               .ok()) {
        return 1;
      }
      ++installed;
    }
    auto t1 = std::chrono::steady_clock::now();
    double build_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    double rate = build_ms > 0
                      ? 1000.0 * static_cast<double>(installed) / build_ms
                      : 0;
    std::printf("%-8zu %-14.3f %-16.0f\n", n, build_ms, rate);
    report.Add(bench::JsonRow()
                   .Set("bench", "fig8")
                   .Set("section", "addpolicy")
                   .Set("locations_per_expr", n)
                   .Set("num_expressions", installed)
                   .Set("build_ms", build_ms)
                   .Set("policies_per_sec", rate));
    catalogs.push_back(std::move(policies));
  }

  for (int q : queries) {
    bench::PrintHeader("Fig 8 (Q" + std::to_string(q) +
                       "): optimization time vs #locations per policy "
                       "expression (20-site deployment)");
    std::printf("%-8s %-22s %-12s\n", "n", "Compliant QO [ms]",
                "site [ms]");
    std::string sql = *tpch::Query(q);
    for (size_t i = 0; i < ns.size(); ++i) {
      size_t n = ns[i];
      QueryOptimizer optimizer(&*catalog, catalogs[i].get(), &net, {});
      auto probe = optimizer.Optimize(sql);
      double site = probe.ok() ? probe->stats.site_ms : -1;
      bench::TimingStats t = bench::TimeRepeated(
          [&] { (void)optimizer.Optimize(sql); }, opts.reps);
      std::printf("%-8zu %10.2f +- %-8.2f %-12.2f\n", n, t.mean_ms,
                  t.stderr_ms, site);
      report.Add(bench::JsonRow()
                     .Set("bench", "fig8")
                     .Set("section", "paper")
                     .Set("query", q)
                     .Set("locations_per_expr", n)
                     .Set("mean_ms", t.mean_ms)
                     .Set("stderr_ms", t.stderr_ms)
                     .Set("site_ms", site));
    }
  }

  // --- Section 2: parallel + cached evaluator speedup --------------------
  std::vector<size_t> counts = {256, 1024, 4096};
  std::vector<int> stress_queries = {2, 6};
  if (opts.tiny) counts = {64, 128};

  bool decisions_equal = true;
  double largest_scale_speedup = 0;
  for (int q : stress_queries) {
    bench::PrintHeader(
        "Fig 8 stress (Q" + std::to_string(q) +
        ", 20 locations/expr): 1 thread / no cache  vs  " +
        std::to_string(opts.threads) + " threads / implication cache");
    std::printf("%-8s %-14s %-14s %-9s %-9s %-8s\n", "#expr", "base [ms]",
                "opt [ms]", "speedup", "hitrate", "same");
    std::string sql = *tpch::Query(q);
    for (size_t count : counts) {
      PolicyGeneratorConfig pconfig;
      pconfig.template_name = "CRA";
      pconfig.count = count;
      pconfig.seed = 7;
      pconfig.locations_per_expr = 20;
      PolicyExpressionGenerator pgen(&*catalog, &properties, pconfig);
      PolicyCatalog policies(&*catalog);
      if (!pgen.InstallInto(&policies).ok()) return 1;

      OptimizerOptions base_opts;
      base_opts.threads = 1;
      base_opts.implication_cache = false;
      QueryOptimizer base(&*catalog, &policies, &net, base_opts);

      OptimizerOptions par_opts;
      par_opts.threads = opts.threads;
      par_opts.implication_cache = true;
      QueryOptimizer par(&*catalog, &policies, &net, par_opts);

      auto bres = base.Optimize(sql);
      auto pres = par.Optimize(sql);
      if (!bres.ok() || !pres.ok()) return 1;
      bool same = DecisionOf(*bres) == DecisionOf(*pres);
      decisions_equal &= same;

      bench::TimingStats tb = bench::TimeRepeated(
          [&] { (void)base.Optimize(sql); }, opts.reps);
      bench::TimingStats tp = bench::TimeRepeated(
          [&] { (void)par.Optimize(sql); }, opts.reps);
      auto probe = par.Optimize(sql);
      const PolicyEvalStats& st = probe->stats.policy;
      double hits = static_cast<double>(st.implication_cache_hits);
      double total = hits + static_cast<double>(st.implication_cache_misses);
      double hit_rate = total > 0 ? hits / total : 0;
      double speedup = tp.min_ms > 0 ? tb.min_ms / tp.min_ms : 0;
      if (q == stress_queries.back() && count == counts.back()) {
        largest_scale_speedup = speedup;
      }
      std::printf("%-8zu %-14.2f %-14.2f %-9.2f %-9.1f%% %-8s\n", count,
                  tb.min_ms, tp.min_ms, speedup, 100.0 * hit_rate,
                  same ? "yes" : "NO");
      report.Add(bench::JsonRow()
                     .Set("bench", "fig8")
                     .Set("section", "stress")
                     .Set("query", q)
                     .Set("num_expressions", count)
                     .Set("threads", opts.threads)
                     .Set("base_ms", tb.min_ms)
                     .Set("optimized_ms", tp.min_ms)
                     .Set("speedup", speedup)
                     .Set("cache_hit_rate", hit_rate)
                     .Set("decisions_equal", same));
    }
  }

  std::printf("\nlargest-scale speedup: %.2fx (Q%d, %zu expressions); "
              "decisions identical: %s\n",
              largest_scale_speedup, stress_queries.back(), counts.back(),
              decisions_equal ? "yes" : "NO");

  if (!report.Flush()) return 1;
  return decisions_equal ? 0 : 1;
}
