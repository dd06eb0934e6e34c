// Extension benchmark (DESIGN.md §7): phase-2 objective (total
// communication cost vs response time, §3.3 Discussion) on the TPC-H
// queries under set CR, as estimated by the optimizer's cost model.

#include <cstdio>

#include "bench_util.h"
#include "core/optimizer.h"
#include "net/network_model.h"
#include "tpch/tpch.h"

using namespace cgq;  // NOLINT

int main() {
  tpch::TpchConfig config;
  config.scale_factor = 0.01;
  auto catalog = tpch::BuildCatalog(config);
  if (!catalog.ok()) return 1;
  PolicyCatalog policies(&*catalog);
  if (!tpch::InstallPolicySet("CR", &policies).ok()) return 1;
  NetworkModel net = NetworkModel::DefaultGeo(5);

  bench::PrintHeader(
      "Phase-2 objective: estimated cost under total-cost vs response-time "
      "placement (compliant optimizer, set CR)");
  std::printf("%-6s %-18s %-20s %-8s\n", "Query", "total-cost [ms]",
              "response-time [ms]", "site");
  for (int q : tpch::QueryNumbers()) {
    std::string sql = *tpch::Query(q);
    OptimizerOptions total;
    OptimizerOptions response;
    response.response_time_objective = true;
    QueryOptimizer opt_total(&*catalog, &policies, &net, total);
    QueryOptimizer opt_resp(&*catalog, &policies, &net, response);
    auto a = opt_total.Optimize(sql);
    auto b = opt_resp.Optimize(sql);
    if (!a.ok() || !b.ok()) continue;
    std::printf("Q%-5d %-18.1f %-20.1f %s/%s\n", q, a->comm_cost_ms,
                b->comm_cost_ms,
                catalog->locations().GetName(a->result_location).c_str(),
                catalog->locations().GetName(b->result_location).c_str());
  }

  return 0;
}
