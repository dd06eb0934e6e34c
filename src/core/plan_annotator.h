#ifndef CGQ_CORE_PLAN_ANNOTATOR_H_
#define CGQ_CORE_PLAN_ANNOTATOR_H_

#include "common/result.h"
#include "core/policy_evaluator.h"
#include "optimizer/memo.h"

namespace cgq {

/// Phase 1 of the two-phase optimization (§6.2): searches the explored memo
/// for the cheapest *annotated* plan.
///
/// Execution and shipping traits are derived bottom-up per the annotation
/// rules of §6.1:
///   AR1  leaf (tablescan): ℰ = { table's location }
///   AR2  ℰ(n) ⊇ ∩ over inputs of 𝒮(input)
///   AR3  𝒮(n) ⊇ ℰ(n)
///   AR4  𝒮(n) ⊇ 𝒜(Q_n, D, P_D) for single-database subqueries
///
/// Instead of committing to one best plan per memo group, the annotator
/// keeps a Pareto frontier of winners keyed by (𝒮, ℰ): a costlier subplan
/// with a larger trait may enable the only compliant parent. The
/// compliance-based cost function (∞ when ℰ = ∅) appears here as skipping
/// un-annotatable combinations. The compliance-based optimization goal —
/// a non-empty shipping trait at the root — turns into "the root group has
/// at least one winner"; otherwise the query is rejected (kNonCompliant).
///
/// `Mode::kCostOnly` turns the annotator into the traditional cost-based
/// baseline: traits are ignored (every operator may run anywhere) and only
/// the cheapest plan per group survives.
class PlanAnnotator {
 public:
  enum class Mode { kCompliant, kCostOnly };

  /// How often each annotation rule fired during the winner search, for
  /// trace attribution (spans "rule.AR1".."rule.AR4" under "annotate").
  struct RuleCounts {
    int64_t ar1_leaves = 0;         ///< AR1: leaf exec traits pinned
    int64_t ar2_intersections = 0;  ///< AR2: child-combination intersections
    int64_t ar3_unions = 0;         ///< AR3: ship traits seeded from exec
    int64_t ar4_evaluations = 0;    ///< AR4: 𝒜 evaluator calls (cache misses)
    int64_t ar4_cache_hits = 0;     ///< AR4: answered from Group::ar4_cache
    /// AR4 prewarm items answered "empty" directly because no policy
    /// governs any of the group's tables at the candidate database.
    int64_t ar4_prewarm_skips = 0;
  };

  PlanAnnotator(Memo* memo, const PolicyEvaluator* evaluator, Mode mode)
      : memo_(memo), evaluator_(evaluator), mode_(mode) {}

  /// Fans independent AR4 evaluations — one per (single-database group,
  /// candidate database) pair — across up to `width` threads of `pool`
  /// before the sequential winner search runs (see PrewarmAr4). width <= 1
  /// disables the fan-out. Winners are unaffected: the prewarm only fills
  /// the per-group AR4 caches the search would fill lazily.
  void set_parallelism(ThreadPool* pool, int width) {
    pool_ = pool;
    width_ = width;
  }

  /// Computes (and caches) the winner frontier of a group.
  const std::vector<Winner>& Winners(int group);

  /// Extracts the cheapest annotated plan of `root_group` as a physical
  /// tree (traits, cardinalities and costs filled in). When
  /// `required_result` is non-empty, only winners whose shipping trait can
  /// reach one of those sites qualify. Returns kNonCompliant when no
  /// compliant plan exists in the search space.
  Result<PlanNodePtr> BestPlan(int root_group,
                               LocationSet required_result = LocationSet());

  /// Maximum winners kept per group (Pareto frontier cap).
  static constexpr size_t kMaxWinnersPerGroup = 24;

  /// Rule-application counts accumulated by BestPlan()/Winners().
  const RuleCounts& rule_counts() const { return rules_; }

 private:
  double OpCost(const MExpr& expr) const;
  LocationSet Ar4Trait(int group, LocationSet sources);
  void AddWinner(std::vector<Winner>* winners, Winner candidate) const;
  PlanNodePtr Extract(int group, const Winner& winner);

  /// Evaluates 𝒜 for every (group, db) pair the winner search can request
  /// — all single-block groups × the databases they can be entirely sourced
  /// from — in parallel, filling Group::ar4_cache up front so Ar4Trait
  /// becomes a pure lookup.
  void PrewarmAr4(int root_group);

  Memo* memo_;
  const PolicyEvaluator* evaluator_;
  Mode mode_;
  ThreadPool* pool_ = nullptr;
  int width_ = 1;
  RuleCounts rules_;
};

}  // namespace cgq

#endif  // CGQ_CORE_PLAN_ANNOTATOR_H_
