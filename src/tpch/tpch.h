#ifndef CGQ_TPCH_TPCH_H_
#define CGQ_TPCH_TPCH_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/policy.h"
#include "exec/table_store.h"

namespace cgq {
namespace tpch {

/// Configuration of the geo-distributed TPC-H instance (§7.1).
struct TpchConfig {
  /// TPC-H scale factor. Statistics always reflect this value; data
  /// generation is intended for small factors (<= 0.1).
  double scale_factor = 0.01;
  uint64_t seed = 42;
  /// Number of locations (>= 5). Locations are named l1, l2, ... Table 2's
  /// placement uses the first five.
  size_t num_locations = 5;
};

/// Builds the geo-distributed TPC-H catalog: locations l1..ln, the eight
/// tables placed per Table 2 of the paper
///   l1: customer, orders   l2: supplier, partsupp   l3: part
///   l4: lineitem           l5: nation, region
/// and per-column statistics scaled to `scale_factor`.
Result<Catalog> BuildCatalog(const TpchConfig& config);

/// Row counts per table at the configured scale factor.
double RowsOf(const std::string& table, double scale_factor);

/// Deterministically generates data for all tables into `store`,
/// distributing each table's rows round-robin over its fragments (so the
/// same function serves the §7.5 distributed-table setup after
/// Catalog::SetFragments).
Status GenerateData(const Catalog& catalog, const TpchConfig& config,
                    TableStore* store);

/// The six evaluation queries (§7.1) in this repo's SQL dialect, keyed by
/// TPC-H number: 2, 3, 5, 8, 9, 10. Q2 keeps its correlated MIN subquery
/// (decorrelated by the planner); Q8/Q9 drop the EXTRACT(year) grouping
/// (see DESIGN.md).
Result<std::string> Query(int number);

/// The paper's six workload query numbers, in ascending order.
std::vector<int> QueryNumbers();

/// Extended workload beyond the paper's figures: Q1, Q4, Q6, Q12, Q14,
/// Q19 (adapted where TPC-H uses CASE/EXTRACT; Q4 keeps its correlated
/// EXISTS).
std::vector<int> ExtendedQueryNumbers();

/// The four curated policy-expression sets of §7.1. Template names:
/// "T" (whole-table), "C" (columns), "CR" (columns+rows),
/// "CRA" (columns+rows+aggregates). Each set is feasible: every workload
/// query retains at least one compliant plan (all tables may reach the
/// l4 hub in some form).
Result<std::vector<std::string>> PolicySet(const std::string& name);

/// Installs a policy set into `policies` (clears existing content).
Status InstallPolicySet(const std::string& name, PolicyCatalog* policies);

/// Policies that impose no restriction at all: `ship * from t to *` for
/// each table (the minimal-overhead setup of Fig. 6b).
Status InstallUnrestrictedPolicies(PolicyCatalog* policies);

}  // namespace tpch
}  // namespace cgq

#endif  // CGQ_TPCH_TPCH_H_
