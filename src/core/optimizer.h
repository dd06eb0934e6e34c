#ifndef CGQ_CORE_OPTIMIZER_H_
#define CGQ_CORE_OPTIMIZER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/compliance_checker.h"
#include "core/policy.h"
#include "core/policy_evaluator.h"
#include "net/network_model.h"
#include "plan/plan_node.h"
#include "sql/ast.h"

namespace cgq {

/// Configuration of a query optimizer instance.
struct OptimizerOptions {
  /// true: the compliance-based optimizer (§6). false: the traditional
  /// cost-based baseline (Calcite-as-is in the paper's experiments) —
  /// same search, traits ignored, all sites legal in phase 2.
  bool compliant = true;
  /// Enables the eager-aggregation rules (aggregate masking). Disable for
  /// the ablation benchmark.
  bool enable_agg_pushdown = true;
  /// When non-empty, the result must be produced at one of these sites.
  LocationSet required_result;
  /// Phase-2 objective: false = total communication cost (paper default),
  /// true = response time (parallel transfers; §3.3 Discussion).
  bool response_time_objective = false;
  /// Fan-out width for independent policy/implication checks (per-policy
  /// inside the evaluator, per-(group, database) AR4 prewarm inside the
  /// annotator). 1 = fully sequential (identical results either way; the
  /// parallel merge is deterministic). 0 = one per hardware thread.
  int threads = 1;
  /// Memoize implication-test results in the process-wide cache keyed by
  /// canonical (premise, conclusion) fingerprints. Disable for the uncached
  /// baseline in the fig7/fig8 scalability benches.
  bool implication_cache = true;
};

/// Timings and search-space counters for the overhead experiments
/// (Fig. 6b–f, 7, 8).
struct OptimizationStats {
  double prepare_ms = 0;   ///< parse + bind + normalize
  double explore_ms = 0;   ///< rule-based memo expansion
  double annotate_ms = 0;  ///< phase 1 (plan annotator)
  double site_ms = 0;      ///< phase 2 (site selector)
  double total_ms = 0;
  size_t memo_groups = 0;
  size_t memo_exprs = 0;
  PolicyEvalStats policy;  ///< incl. η (Fig. 7a–c)

  // --- Plan-cache outcome (filled by Engine when a PlanCache is
  // installed; see service/plan_cache.h) ---
  bool cache_consulted = false;  ///< a PlanCache was in front of the optimizer
  bool cache_hit = false;        ///< served from cache (phase timings ~0)
  /// The hit rebound a parameterized entry to this query's constants
  /// (false on exact hits and misses).
  bool cache_param_hit = false;
  uint64_t policy_epoch = 0;     ///< catalog epoch the plan is valid at
  size_t cache_entries = 0;      ///< resident entries after this query
  size_t cache_bytes = 0;        ///< resident bytes after this query
};

/// A fully optimized, located query plan.
struct OptimizedQuery {
  PlanNodePtr plan;  ///< physical plan with SHIP operators and locations
  double phase1_cost = 0;    ///< local cost model value of the chosen plan
  double comm_cost_ms = 0;   ///< estimated communication cost (Fig. 6g,h)
  LocationId result_location = 0;
  /// Verdict of the independent Definition-1 checker. Always true for the
  /// compliance-based optimizer (Theorem 1); the baseline may emit
  /// non-compliant plans.
  bool compliant = false;
  std::vector<std::string> violations;
  // Presentation steps executed at the result site.
  std::vector<OrderItemAst> order_by;
  std::optional<int64_t> limit;
  OptimizationStats stats;
};

/// End-to-end optimizer: SQL text (or AST) to located physical plan.
/// Thread-compatible; one instance may serve many queries.
class QueryOptimizer {
 public:
  QueryOptimizer(const Catalog* catalog, const PolicyCatalog* policies,
                 const NetworkModel* net, OptimizerOptions options)
      : catalog_(catalog),
        policies_(policies),
        net_(net),
        options_(options) {}

  Result<OptimizedQuery> Optimize(const std::string& sql) const;
  Result<OptimizedQuery> OptimizeAst(const QueryAst& ast) const;

  const OptimizerOptions& options() const { return options_; }

 private:
  const Catalog* catalog_;
  const PolicyCatalog* policies_;
  const NetworkModel* net_;
  OptimizerOptions options_;
};

}  // namespace cgq

#endif  // CGQ_CORE_OPTIMIZER_H_
