#include "core/engine.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "core/compliance_checker.h"
#include "service/plan_cache.h"
#include "sql/param_normalizer.h"

namespace cgq {

Result<OptimizedQuery> Engine::OptimizeMaybeCached(
    const std::string& sql, const OptimizerOptions& options) const {
  if (plan_cache_ == nullptr) return Optimize(sql, options);

  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&start]() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  // Fingerprint the literal-free skeleton so same-shape queries with
  // different constants share one entry; the extracted constants are
  // rebound into the cached plan's tagged literal slots on a hit.
  const ParameterizedSql param_sql = ParameterizeSql(sql);
  const PlanCache::Key key = PlanCache::ComputeKey(param_sql.skeleton, options);
  {
    TraceSpan span("plan_cache_lookup");
    bool param_hit = false;
    std::optional<OptimizedQuery> cached =
        plan_cache_->Lookup(key, param_sql.params, *policies_, &param_hit);
    if (cached.has_value()) {
      // Belt-and-braces (Theorem 1 only covers the policy set the plan
      // was optimized under): independently re-verify Definition 1
      // against the live catalog before anything executes. Cheap — one
      // bottom-up pass over the located plan, no memo search. This runs
      // on the *bound* plan, so a parameterized hit re-proves compliance
      // for this query's constants, not the insert-time ones.
      PolicyEvaluator evaluator(catalog_.get(), policies_.get());
      if (!options.implication_cache) evaluator.set_implication_cache(nullptr);
      ComplianceReport report =
          CheckCompliance(*cached->plan, evaluator, catalog_->locations());
      plan_cache_->RecordRevalidation();
      span.AddArg("hit", report.compliant ? 1 : 0);
      if (report.compliant) {
        // Phase timings belong to the (skipped) optimizer run; total_ms
        // is what the cached path actually cost.
        cached->stats = OptimizationStats{};
        cached->stats.total_ms = elapsed_ms();
        cached->stats.cache_consulted = true;
        cached->stats.cache_hit = true;
        cached->stats.cache_param_hit = param_hit;
        cached->stats.policy_epoch = policies_->epoch();
        PlanCacheStats cs = plan_cache_->stats();
        cached->stats.cache_entries = cs.entries;
        cached->stats.cache_bytes = cs.bytes;
        return std::move(*cached);
      }
      plan_cache_->Invalidate(key);
    } else {
      span.AddArg("hit", 0);
    }
  }

  CGQ_ASSIGN_OR_RETURN(OptimizedQuery q, Optimize(sql, options));
  // Only compliance-optimized plans are cacheable: the baseline
  // optimizer's output carries no Theorem-1 guarantee.
  if (options.compliant && q.compliant) {
    TraceSpan span("plan_cache_insert");
    const PlanCache::InsertResult inserted =
        plan_cache_->Insert(key, q, param_sql.params, *policies_);
    span.AddArg("admitted", inserted.admitted ? 1 : 0);
    span.AddArg("dependencies", static_cast<int64_t>(inserted.dependencies));
    span.AddArg("evicted", inserted.evicted);
  }
  q.stats.cache_consulted = true;
  q.stats.cache_hit = false;
  q.stats.policy_epoch = policies_->epoch();
  PlanCacheStats cs = plan_cache_->stats();
  q.stats.cache_entries = cs.entries;
  q.stats.cache_bytes = cs.bytes;
  return q;
}

Result<QueryResult> Engine::Run(const std::string& sql,
                                OptimizerOptions options,
                                ExecutorOptions exec_options) const {
  if (!tracing_) {
    CGQ_ASSIGN_OR_RETURN(OptimizedQuery q, OptimizeMaybeCached(sql, options));
    Executor executor(&store_, net_.get(), exec_options);
    Result<QueryResult> result = executor.Execute(q);
    CGQ_COUNTER_ADD("engine.queries", 1);
    return result;
  }

  auto session = std::make_unique<TraceSession>(sql, trace_clock_);
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    ScopedTraceContext ctx(session.get());
    TraceSpan root("query");
    Result<OptimizedQuery> q = OptimizeMaybeCached(sql, options);
    if (!q.ok()) {
      root.AddArg("status", q.status().ToString());
      return q.status();
    }
    Executor executor(&store_, net_.get(), exec_options);
    Result<QueryResult> r = executor.Execute(*q);
    if (r.ok()) root.AddArg("rows", static_cast<int64_t>(r->rows.size()));
    return r;
  }();
  CGQ_COUNTER_ADD("engine.queries", 1);
  if (!result.ok()) CGQ_COUNTER_ADD("engine.rejected", 1);
  last_trace_ = std::move(session);
  return result;
}

std::string Engine::DumpTrace() const {
  if (last_trace_ == nullptr) {
    return "{\"traceEvents\":[]}\n";
  }
  return last_trace_->ToChromeJson();
}

Status Engine::DumpTraceToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file '" + path + "'");
  }
  std::string json = DumpTrace();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  // A buffered write can first fail at close (a full disk): that is a
  // truncated trace too.
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return Status::Internal("short write to trace file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace cgq
