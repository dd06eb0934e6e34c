#include "core/optimizer.h"

#include <chrono>

#include "common/trace.h"
#include "core/plan_annotator.h"
#include "core/site_selector.h"
#include "optimizer/cardinality.h"
#include "optimizer/memo.h"
#include "plan/planner_context.h"
#include "plan/query_planner.h"
#include "sql/parser.h"

namespace cgq {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Result<OptimizedQuery> QueryOptimizer::Optimize(const std::string& sql) const {
  TraceSpan parse_span("parse");
  Result<QueryAst> ast = ParseQuery(sql);
  parse_span.End();
  CGQ_RETURN_NOT_OK(ast.status());
  return OptimizeAst(*ast);
}

Result<OptimizedQuery> QueryOptimizer::OptimizeAst(const QueryAst& ast) const {
  OptimizedQuery out;
  auto t_total = std::chrono::steady_clock::now();
  TraceSpan optimize_span("optimize");

  // 1. Bind + normalize.
  auto t0 = std::chrono::steady_clock::now();
  TraceSpan bind_span("bind");
  PlannerContext ctx(catalog_);
  CGQ_ASSIGN_OR_RETURN(LogicalPlan logical, PlanQueryAst(ast, &ctx));
  bind_span.End();
  out.stats.prepare_ms = ElapsedMs(t0);

  // 2. Memo exploration (transformation rules to fixpoint).
  t0 = std::chrono::steady_clock::now();
  TraceSpan explore_span("explore");
  CardinalityEstimator estimator(&ctx);
  Memo memo(&ctx, &estimator);
  int root_group = memo.InsertTree(*logical.root);
  memo.Explore(options_.enable_agg_pushdown);
  explore_span.AddArg("memo_groups",
                      static_cast<int64_t>(memo.num_groups()));
  explore_span.AddArg("memo_exprs", static_cast<int64_t>(memo.num_exprs()));
  explore_span.End();
  out.stats.explore_ms = ElapsedMs(t0);
  out.stats.memo_groups = memo.num_groups();
  out.stats.memo_exprs = memo.num_exprs();

  // 3. Phase 1: plan annotator.
  t0 = std::chrono::steady_clock::now();
  TraceSpan annotate_span("annotate");
  PolicyEvaluator evaluator(catalog_, policies_);
  if (!options_.implication_cache) evaluator.set_implication_cache(nullptr);
  int width = options_.threads == 0
                  ? static_cast<int>(ThreadPool::Shared()->num_threads())
                  : options_.threads;
  if (width > 1) {
    evaluator.set_parallelism(ThreadPool::Shared(), width);
  }
  PlanAnnotator annotator(&memo, &evaluator,
                          options_.compliant ? PlanAnnotator::Mode::kCompliant
                                             : PlanAnnotator::Mode::kCostOnly);
  if (width > 1) annotator.set_parallelism(ThreadPool::Shared(), width);
  CGQ_ASSIGN_OR_RETURN(
      PlanNodePtr annotated,
      annotator.BestPlan(root_group, options_.compliant
                                         ? options_.required_result
                                         : LocationSet()));
  annotate_span.End();
  out.stats.annotate_ms = ElapsedMs(t0);
  out.phase1_cost = annotated->local_cost;

  // 4. Phase 2: site selection + SHIP insertion.
  t0 = std::chrono::steady_clock::now();
  SiteSelector selector(net_, options_.response_time_objective
                                  ? SiteSelector::Objective::kResponseTime
                                  : SiteSelector::Objective::kTotalCost);
  LocationSet result_sites = options_.required_result;
  CGQ_ASSIGN_OR_RETURN(SitedPlan sited,
                       selector.Place(annotated, result_sites));
  out.stats.site_ms = ElapsedMs(t0);
  out.plan = sited.root;
  out.comm_cost_ms = sited.comm_cost_ms;
  out.result_location = sited.result_location;

  // 5. Independent compliance verdict (Definition 1).
  TraceSpan compliance_span("compliance_check");
  ComplianceReport report =
      CheckCompliance(*out.plan, evaluator, catalog_->locations());
  out.compliant = report.compliant;
  out.violations = std::move(report.violations);
  compliance_span.AddArg("compliant", static_cast<int64_t>(out.compliant));
  compliance_span.AddArg("violations",
                         static_cast<int64_t>(out.violations.size()));
  compliance_span.End();

  out.order_by = logical.order_by;
  out.limit = logical.limit;
  out.stats.policy = evaluator.stats();
  out.stats.total_ms = ElapsedMs(t_total);
  optimize_span.End();
  CGQ_COUNTER_ADD("optimizer.queries", 1);
  CGQ_COUNTER_ADD("optimizer.implication_tests",
                  out.stats.policy.implication_tests);
  CGQ_COUNTER_ADD("optimizer.implication_cache_hits",
                  out.stats.policy.implication_cache_hits);
  return out;
}

}  // namespace cgq
