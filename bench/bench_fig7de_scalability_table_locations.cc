// Figure 7(d,e): scalability with the number of table locations (§7.5).
//
// Customer and Orders are horizontally fragmented over 1..5 locations
// (GAV-style: scan t => UNION ALL of fragment scans). Reported:
// optimization time of Q3 and Q10 under the CR+A curated set, split into
// plan annotator (phase 1, incl. memo exploration) and site selector
// (phase 2). Expected shape: roughly linear growth driven by the larger
// plan space of the UNION rewrites; site selection stays in the low
// milliseconds.

#include <cstdio>

#include "bench_util.h"
#include "core/optimizer.h"
#include "net/network_model.h"
#include "tpch/tpch.h"

using namespace cgq;  // NOLINT

int main() {
  const int queries[] = {3, 10};
  for (int q : queries) {
    bench::PrintHeader("Fig 7(d,e) (Q" + std::to_string(q) +
                       "): optimization time vs #table locations "
                       "(customer & orders fragmented)");
    std::printf("%-8s %-22s %-14s %-12s\n", "#locs", "total [ms]",
                "annotate [ms]", "site [ms]");
    for (size_t k = 1; k <= 5; ++k) {
      tpch::TpchConfig config;
      config.scale_factor = 10;
      auto catalog = tpch::BuildCatalog(config);
      if (!catalog.ok()) return 1;

      std::vector<TableFragment> fragments;
      for (size_t i = 0; i < k; ++i) {
        fragments.push_back(
            TableFragment{static_cast<LocationId>(i), 1.0 / k});
      }
      if (!catalog->SetFragments("customer", fragments).ok()) return 1;
      if (!catalog->SetFragments("orders", fragments).ok()) return 1;

      PolicyCatalog policies(&*catalog);
      if (!tpch::InstallPolicySet("CRA", &policies).ok()) return 1;
      // Fragments of the logical l1 database may repatriate their rows to
      // the l1 headquarters (keeps e.g. Q10's acctbal output feasible when
      // customer is fragmented).
      for (size_t i = 1; i < k; ++i) {
        const std::string n = std::to_string(i + 1);
        const std::string loc = "l" + n;
        if (!policies.AddPolicyText(loc, "ship * from customer to l1").ok())
          return 1;
        if (!policies.AddPolicyText(loc, "ship * from orders to l1").ok())
          return 1;
      }
      NetworkModel net = NetworkModel::DefaultGeo(5);
      QueryOptimizer optimizer(&*catalog, &policies, &net, {});
      std::string sql = *tpch::Query(q);

      auto probe = optimizer.Optimize(sql);
      double annotate = 0, site = 0;
      if (probe.ok()) {
        annotate = probe->stats.explore_ms + probe->stats.annotate_ms;
        site = probe->stats.site_ms;
      } else {
        std::printf("%-8zu rejected: %s\n", k,
                    probe.status().ToString().c_str());
        continue;
      }
      bench::TimingStats t =
          bench::TimeRepeated([&] { (void)optimizer.Optimize(sql); });
      std::printf("%-8zu %10.2f +- %-8.2f %-14.2f %-12.2f\n", k, t.mean_ms,
                  t.stderr_ms, annotate, site);
    }
  }
  return 0;
}
