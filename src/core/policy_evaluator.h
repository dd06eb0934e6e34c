#ifndef CGQ_CORE_POLICY_EVALUATOR_H_
#define CGQ_CORE_POLICY_EVALUATOR_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "catalog/location.h"
#include "common/thread_pool.h"
#include "core/policy.h"
#include "expr/implication.h"
#include "plan/summary.h"

namespace cgq {

/// Instrumentation counters for the scalability analysis (§7.5, Fig. 7):
/// `eta` counts how often an expression is *considered* — i.e. its ship
/// attributes intersect the query's output attributes AND the implication
/// test passes (Algorithm 1 reaching line 4).
struct PolicyEvalStats {
  int64_t evaluations = 0;        ///< calls to Evaluate()
  /// Expressions walked by the per-policy pass: everything the index hands
  /// back. Flat mode: every expression over the disclosed tables.
  /// Hierarchical mode: the entries of the buckets surviving the signature
  /// and premise prunes plus the unmaskable catch-all; a summary answered
  /// by the evaluation memo walks nothing at all.
  int64_t candidates = 0;
  int64_t expressions_matched = 0;  ///< A_q ∩ A_e ≠ ∅
  /// Implication tests actually dispatched (direct / cache / plain), one
  /// per (matched candidate, instance) pair until the first failure. In
  /// hierarchical mode candidates whose grants lie inside the floor of
  /// unconditional grants are never tested, and a warm Evaluate() answered
  /// by the evaluation memo reports 0.
  int64_t implication_tests = 0;
  int64_t implication_cache_hits = 0;    ///< tests answered from the cache
  int64_t implication_cache_misses = 0;  ///< tests actually run
  /// Expressions skipped because their predicate mask requires columns a
  /// (non-contradictory) instance premise never mentions — the
  /// hierarchical index's bucket pre-filter against the intersection of
  /// the premises, plus the per-instance check on each candidate; always
  /// 0 in flat mode.
  int64_t prefilter_skips = 0;
  /// Implication passed (line 4 reached). Hierarchical mode counts only
  /// the candidates it tested (see implication_tests).
  int64_t eta = 0;
  double eval_ms = 0;             ///< total time spent inside Evaluate()
};

/// The policy evaluation algorithm 𝒜 (Algorithm 1, §5).
///
/// Given the summary of a subquery q pertaining to the single database at
/// location `db`, computes the set 𝒜(q, D, P_D) of locations to which q's
/// output may legally be shipped:
///
///   - per output attribute a (flattened to (base attribute, aggregate fn)
///     pairs), collect locations L_a from every expression e whose ship (or
///     group) attributes mention a and whose predicate is implied (P_q ⟹
///     P_e), distinguishing the three cases of §5;
///   - self-joins: the implication must hold for *every* instance of e's
///     table in q (each instance's own single-table conjuncts form the
///     premise);
///   - result is the intersection over all output attributes (∅ when any
///     attribute has no permitting expression).
/// Why one disclosed attribute of a subquery may be shipped somewhere:
/// the policy expressions whose `to` set granted it.
struct AttrGrant {
  BaseAttr base;
  std::optional<AggFn> fn;           ///< aggregate applied, if any
  LocationSet granted;               ///< union of granting expressions' to
  std::vector<const PolicyExpression*> granted_by;
};

/// Thread-safe: Evaluate() may be called concurrently (the plan annotator
/// fans AR4 evaluations of independent (group, database) pairs across a
/// pool). Per-policy work inside one Evaluate() call is itself fanned out
/// when a pool is configured; results are merged in policy order, so the
/// outcome is bit-identical to the sequential evaluation at any thread
/// count.
class PolicyEvaluator {
 public:
  PolicyEvaluator(const Catalog* catalog, const PolicyCatalog* policies)
      : catalog_(catalog), policies_(policies) {}

  /// Evaluates 𝒜 for a summary whose sources all live at `db`. The summary
  /// must be a valid single-block (callers check IsSingleDatabaseBlock()).
  /// When `grants` is non-null, also records, per disclosed attribute, the
  /// expressions that granted locations (compliance provenance).
  LocationSet Evaluate(const QuerySummary& summary, LocationId db,
                       std::vector<AttrGrant>* grants = nullptr) const;

  /// The catalog this evaluator consults (for index-aware callers like the
  /// plan annotator's AR4 prewarm).
  const PolicyCatalog* policies() const { return policies_; }

  /// Memoizes implication results in `cache` (default: the process-wide
  /// cache). nullptr runs every test directly — the uncached baseline.
  void set_implication_cache(ImplicationCache* cache) { cache_ = cache; }
  ImplicationCache* implication_cache() const { return cache_; }

  /// Fans per-policy implication checks of one Evaluate() call across up to
  /// `width` threads of `pool`. width <= 1 keeps evaluation sequential.
  void set_parallelism(ThreadPool* pool, int width) {
    pool_ = pool;
    width_ = width;
  }

  PolicyEvalStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  void ResetStats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = PolicyEvalStats{};
  }

 private:
  const Catalog* catalog_;
  const PolicyCatalog* policies_;
  ImplicationCache* cache_ = ImplicationCache::Global();
  ThreadPool* pool_ = nullptr;
  int width_ = 1;

  mutable std::mutex stats_mu_;
  mutable PolicyEvalStats stats_;
};

}  // namespace cgq

#endif  // CGQ_CORE_POLICY_EVALUATOR_H_
