#ifndef CGQ_CORE_POLICY_H_
#define CGQ_CORE_POLICY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "expr/expr.h"
#include "expr/implication.h"

namespace cgq {

/// A validated dataflow policy expression (§4). One expression states which
/// cells (basic) or aggregates (aggregate form) of one table may be shipped
/// to which locations.
struct PolicyExpression {
  /// Stable catalog-unique id, assigned by PolicyCatalog::AddPolicy (-1
  /// while unregistered). The handle of RemovePolicy / `policy drop <id>;`.
  int64_t id = -1;
  std::string table;  ///< lower-cased base table name
  /// A_e: ship attributes (lower-cased). `ship *` is expanded to all
  /// columns at validation time.
  std::vector<std::string> attributes;
  /// F_e: allowed aggregate functions; empty means basic expression.
  std::vector<AggFn> agg_fns;
  /// L_e: resolved target locations.
  LocationSet to;
  /// P_e: predicate conjuncts, bound against the table (base_table set).
  std::vector<ExprPtr> predicate;
  /// G_e: allowed grouping attributes (aggregate expressions only).
  std::vector<std::string> group_by;
  /// Canonical fingerprint of `predicate`, the memo key of the implication
  /// cache. Filled by PolicyCatalog::AddPolicy; policies are immutable
  /// afterwards, so the evaluator never re-hashes a conclusion.
  ExprFingerprint predicate_fp;
  /// 64-bit hash of everything the expression grants (predicate_fp, `to`,
  /// attributes, aggregate functions, group-by), finished with splitmix64.
  /// Filled by AddPolicy; the per-(location, table) fingerprint is the sum
  /// of these over the pair's expressions.
  uint64_t content_fp = 0;
  /// Schema-column bitmasks of `attributes` / `group_by` (bit i = column i
  /// of the table). Filled by AddPolicy; valid only when `masks_valid` —
  /// the evaluator falls back to the string comparisons otherwise (columns
  /// beyond 64 or tables unknown to the catalog).
  uint64_t ship_mask = 0;
  uint64_t group_mask = 0;
  bool masks_valid = false;
  /// Columns the query premise must constrain for P_q ⟹ P_e to have any
  /// chance of succeeding (bit i = column i of the table): the union of
  /// column refs per predicate conjunct, except OR conjuncts which require
  /// only the intersection over their branches (any one branch being
  /// implied suffices). Valid only when `pred_mask_valid`; the hierarchical
  /// evaluator uses it to skip implication tests whose premise does not
  /// mention the required columns (sound unless the premise is
  /// contradictory — the evaluator checks that separately).
  uint64_t pred_mask = 0;
  bool pred_mask_valid = false;

  bool is_aggregate() const { return !agg_fns.empty(); }
  bool HasShipAttribute(const std::string& column) const;
  bool HasGroupAttribute(const std::string& column) const;
  bool AllowsAggFn(AggFn fn) const;

  /// Renders back to (normalized) policy-expression syntax.
  std::string ToString(const LocationCatalog& locations) const;
};

/// How the catalog organizes expressions for candidate selection.
enum class PolicyIndexMode {
  /// PR 1 behavior: per-(location, table) index, every expression kept,
  /// Evaluate walks all expressions over the query's tables. The byte-
  /// identical reference path.
  kFlat,
  /// Hierarchical index: location → table → predicate-signature buckets
  /// keyed by the expressions' (ship|group, predicate) column-bitmask
  /// pair, plus a whole-evaluation memo. Evaluate walks only buckets whose
  /// attribute signature intersects the query's disclosed-column mask AND
  /// whose predicate columns are all constrained by the query premise, so
  /// cost grows with *relevant* policies, not catalog size, and skips the
  /// implication test of a candidate whose grants unconditional
  /// candidates already make; a summary evaluated before at the same
  /// epoch is answered from the memo.
  kHierarchical,
};

/// Parses "flat" / "hier" / "hierarchical" (the `--policy-index` knob).
Result<PolicyIndexMode> ParsePolicyIndexMode(const std::string& name);

/// True when every shipment the basic expression `sub` permits, the basic
/// expression `super` permits too: same table, `sub`'s targets and ship
/// attributes contained in `super`'s, and P_sub ⟹ P_super under the full
/// (sound-but-incomplete) implication test. Right for advisory findings
/// (policy lint); NOT a merge rule, because algorithmic implication is not
/// transitive, so dropping a subsumed policy could change decisions the
/// incomplete test cannot see. Aggregate expressions never subsume or are
/// subsumed.
bool PolicySubsumes(const PolicyExpression& super, const PolicyExpression& sub);

/// Per-location store of dataflow policies (the paper's policy catalog,
/// Fig. 2). Population happens offline via `AddPolicyText` (parsed +
/// validated) or `AddPolicy` (pre-built); policies may also be dropped at
/// runtime with `RemovePolicy`.
///
/// Every mutation (add / remove / clear) bumps a monotonically increasing
/// `epoch`. A cached artifact derived from the catalog (e.g. an optimized
/// plan, which by Theorem 1 is compliant only w.r.t. the policy set it was
/// optimized under) is valid exactly as long as the policies it depends on
/// are unchanged; the epoch is the cheap staleness signal and
/// `TablePolicyFingerprint` the fine-grained one.
///
/// Thread safety: readers may run concurrently; mutations require
/// exclusive access (QueryService serializes them against in-flight
/// queries). `epoch()` alone is always safe to read.
class PolicyCatalog {
 public:
  explicit PolicyCatalog(const Catalog* catalog,
                         PolicyIndexMode mode = PolicyIndexMode::kFlat)
      : catalog_(catalog), mode_(mode) {}

  PolicyCatalog(const PolicyCatalog&) = delete;
  PolicyCatalog& operator=(const PolicyCatalog&) = delete;

  /// Switches the index mode. Only legal while the catalog is empty (the
  /// flat path never re-derives bucket state); kInvalidArgument otherwise.
  Status set_index_mode(PolicyIndexMode mode);
  PolicyIndexMode index_mode() const { return mode_; }

  /// Parses, binds and validates a policy expression and registers it for
  /// `location` (the database whose data it governs).
  ///
  /// Validation errors include: unknown table/columns/locations, aggregate
  /// clauses on basic expressions, and `group by` on basic expressions.
  Status AddPolicyText(const std::string& location_name,
                       const std::string& text);
  Status AddPolicy(LocationId location, PolicyExpression expr);

  /// Drops the policy with the given id (see PolicyExpression::id) from
  /// whatever location holds it and bumps the epoch. kNotFound when no
  /// such policy is registered.
  Status RemovePolicy(int64_t id);

  /// Current policy epoch: 0 for a freshly built catalog, +1 per
  /// AddPolicy / RemovePolicy / Clear. A plan optimized at epoch E is
  /// known-fresh while epoch() == E; after that its dependencies must be
  /// revalidated (or the plan re-optimized).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Content fingerprint of the expressions governing (location, table),
  /// order-insensitive: a seed hashed from the pair plus the sum (mod
  /// 2^64) of the expressions' `content_fp`, maintained by AddPolicy /
  /// RemovePolicy / Clear, so reading it is one lookup however many
  /// policies govern the pair. Two equal fingerprints mean the policies
  /// relevant to that dependency are unchanged — even if the epoch moved
  /// because an unrelated policy was added or dropped (fine-grained
  /// invalidation). Never 0, so callers may use 0 as "not computed".
  uint64_t TablePolicyFingerprint(LocationId location,
                                  const std::string& table) const;

  /// All expressions governing data stored at `location`, in install
  /// order.
  const std::vector<PolicyExpression>& For(LocationId location) const;

  /// Ascending indices (into For(location)) of the expressions whose table
  /// is `table` — the only candidates the evaluator has to inspect for a
  /// query over that table.
  const std::vector<size_t>& ForTable(LocationId location,
                                      const std::string& table) const;

  /// Appends the indices (into For(location)) of the expressions over
  /// `table` that can be relevant to a query disclosing the columns in
  /// `query_mask` (bit i = column i). `mask_exact` false means some
  /// disclosed column could not be mapped to a bit, so signature pruning
  /// is disabled for the call. Flat mode appends ForTable() wholesale;
  /// hierarchical mode walks only buckets whose signature intersects
  /// `query_mask` (plus the catch-all bucket of unmaskable expressions),
  /// and additionally skips buckets whose shared predicate-column mask
  /// requires a column outside `premise_cap` — the intersection of the
  /// query's per-instance premise masks for `table` (only when
  /// `premise_capped`; see PolicyExpression::pred_mask for why such an
  /// implication test cannot succeed). Entries dropped by the predicate
  /// test are counted into `*prefiltered` when non-null. Order of the
  /// appended indices is unspecified.
  void AppendCandidates(LocationId location, const std::string& table,
                        uint64_t query_mask, bool mask_exact,
                        uint64_t premise_cap, bool premise_capped,
                        std::vector<size_t>* out,
                        size_t* prefiltered = nullptr) const;

  /// Evaluation-result memo (hierarchical mode): the legal ship set
  /// 𝒜(q, D, P_D) of a whole query summary, keyed by the caller's 128-bit
  /// summary fingerprint salted with (database, epoch). Workloads
  /// re-optimize structurally identical blocks, and the AR4 prewarm
  /// re-evaluates the same (group, database) pairs across plan
  /// alternatives — a warm Evaluate() becomes one lookup instead of a
  /// bucket walk. Folding in the epoch is what invalidates: any mutation
  /// bumps it, orphaning old keys (orphans are dropped wholesale when a
  /// shard outgrows its cap). Decisions are unaffected because the stored
  /// set is the verbatim result of the indexed evaluation. Thread-safe;
  /// concurrent fills of the same key are benign (identical values).
  std::optional<LocationSet> FindEvalMemo(uint64_t a, uint64_t b) const;
  void StoreEvalMemo(uint64_t a, uint64_t b, LocationSet legal) const;

  /// True when at least one expression governs (location, t) for some t in
  /// `tables`. When false, Evaluate over those tables at `location` is
  /// identically empty — the AR4 prewarm uses this to skip the walk.
  bool HasPoliciesFor(LocationId location,
                      const std::vector<std::string>& tables) const;

  /// Installed expressions over all locations.
  size_t TotalCount() const;
  void Clear();

  /// Index shape counters for `policies;` / bench reporting.
  struct IndexStats {
    size_t active = 0;     ///< installed expressions
    size_t tables = 0;     ///< (location, table) pairs with any policy
    size_t buckets = 0;    ///< signature buckets (hierarchical mode)
    size_t max_bucket = 0; ///< largest bucket's entry count
  };
  IndexStats Stats() const;

  /// Test hook: deterministically permutes bucket iteration order and the
  /// entry order inside each bucket (hierarchical mode; in flat mode only
  /// the epoch moves). Decisions must be invariant under any such
  /// permutation. Bumps the epoch, as every index mutation does.
  void ShuffleBucketsForTest(uint64_t seed);

  const Catalog& catalog() const { return *catalog_; }

 private:
  /// Bucket key: (attribute signature, predicate-column mask). Expressions
  /// land in the same bucket exactly when both their ship|group mask and
  /// their (valid) pred_mask agree, so candidate selection can drop a whole
  /// bucket with two ANDs — one against the query's disclosed columns, one
  /// against the premise's constrained columns.
  struct Bucket {
    uint64_t signature = 0;       ///< ship|group mask shared by all entries
    uint64_t pred_mask = 0;       ///< shared predicate-column requirement
    bool pred_valid = false;      ///< pred_mask trustworthy for all entries
    std::vector<size_t> entries;  ///< indices into by_location_[loc]
  };
  struct TableBuckets {
    std::vector<Bucket> buckets;
    /// Entries whose masks are invalid (columns ≥64 / unknown table):
    /// always walked.
    std::vector<size_t> unmaskable;
  };

  /// The expressions over one (location, table) pair.
  struct TablePolicies {
    std::vector<size_t> indices;  ///< ascending, into by_location_[loc]
    /// Pair seed + Σ content_fp of `indices`' expressions, mod 2^64 (see
    /// TablePolicyFingerprint).
    uint64_t fingerprint = 0;
  };

  void EnsureLocation(LocationId location);
  /// The pair's entry, or nullptr when no policy was added for it since
  /// the catalog was built or last cleared.
  const TablePolicies* FindPair(LocationId location,
                                const std::string& table) const;
  /// Re-derives the stored indices of `location` after an erase shifted
  /// them. Pair fingerprints are left as they are: RemovePolicy has
  /// already subtracted the erased expression.
  void RebuildIndexes(LocationId location);
  /// Appends `index` (into by_location_[location]) to the matching bucket.
  void IndexBucket(LocationId location, size_t index);

  const Catalog* catalog_;
  PolicyIndexMode mode_;
  std::vector<std::vector<PolicyExpression>> by_location_;
  /// Per location: table -> its expressions.
  std::vector<std::unordered_map<std::string, TablePolicies>> table_index_;
  /// Hierarchical mode: per location, table -> signature buckets.
  std::vector<std::unordered_map<std::string, TableBuckets>> bucket_index_;

  // --- Evaluation-result memo (see FindEvalMemo) ---
  struct MemoKey {
    uint64_t a = 0;
    uint64_t b = 0;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& k) const {
      return static_cast<size_t>(k.a);
    }
  };
  struct EvalShard {
    mutable std::mutex mu;
    std::unordered_map<MemoKey, LocationSet, MemoKeyHash> map;
  };
  static constexpr size_t kMemoShards = 8;
  static constexpr size_t kMemoShardCap = 1 << 15;
  mutable EvalShard eval_shards_[kMemoShards];

  std::atomic<uint64_t> epoch_{0};
  int64_t next_id_ = 0;
};

}  // namespace cgq

#endif  // CGQ_CORE_POLICY_H_
