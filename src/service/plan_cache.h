#ifndef CGQ_SERVICE_PLAN_CACHE_H_
#define CGQ_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/optimizer.h"
#include "core/policy.h"

namespace cgq {

/// Configuration of a PlanCache.
struct PlanCacheOptions {
  /// Total byte budget across all shards; the LRU tail of a shard is
  /// evicted when its share (max_bytes / shards) is exceeded.
  size_t max_bytes = size_t{64} << 20;
  /// Number of independent LRU shards (rounded up to a power of two).
  /// More shards = less lock contention between concurrent sessions.
  int shards = 8;
};

/// Point-in-time counters of a PlanCache (see also the process-wide
/// `plan_cache.*` metrics in MetricsRegistry).
struct PlanCacheStats {
  int64_t hits = 0;  ///< exact_hits + param_hits
  /// Hits whose parameter vector matched the cached entry byte-for-byte
  /// (the plan is served as-is, no rebinding).
  int64_t exact_hits = 0;
  /// Hits served by rebinding a parameterized entry's literal slots to a
  /// different constant vector.
  int64_t param_hits = 0;
  int64_t misses = 0;
  /// Entries erased because a dependency's policy fingerprint changed or a
  /// compliance re-check failed — never served again.
  int64_t invalidations = 0;
  /// Belt-and-braces compliance re-checks run on cache hits (recorded by
  /// the caller via RecordRevalidation).
  int64_t revalidations = 0;
  /// Entries evicted by the LRU byte budget (still valid, just cold).
  int64_t evictions = 0;
  /// Inserts refused by admission: the shard was full and the key was
  /// on its first miss (see PlanCache::Insert). Nothing was cloned,
  /// stored or evicted for them.
  int64_t refused = 0;
  size_t entries = 0;
  size_t bytes = 0;
  /// Refused keys the doorkeepers remember, awaiting their second miss.
  size_t doorkeeper_keys = 0;
};

/// A compliant plan cache: memoizes the two-phase optimizer keyed by a
/// query-skeleton fingerprint + the optimizer options that shape the
/// plan, guarded by the policy-catalog epoch.
///
/// Soundness (why serving a cached plan is safe): by Theorem 1 an
/// optimized plan is compliant w.r.t. the policy set it was optimized
/// under, and compliance of a located plan depends only on the policies
/// governing the (location, table) pairs it scans — those decide every
/// ℰ/𝒮 trait bottom-up. Each entry therefore stores that dependency set
/// with a content fingerprint per pair (PolicyCatalog::
/// TablePolicyFingerprint, which the catalog maintains per mutation, so
/// recording or re-checking a dependency is one lookup). A hit is served
/// iff the entry's epoch equals the catalog's, or — after any policy
/// mutation — every dependency fingerprint is unchanged (unrelated policy
/// changes, and a drop followed by a re-add of the same policy, revalidate
/// instead of invalidate; they may cost optimality, never compliance). On
/// top of that the engine re-runs the independent Definition-1 checker on
/// every hit (counter `plan_cache.revalidations`), so even a fingerprint
/// collision cannot execute a stale plan.
///
/// Thread safety: fully thread-safe (sharded mutexes); Lookup returns a
/// deep copy of the plan so concurrent executions never share mutable
/// nodes. Callers must not mutate the PolicyCatalog concurrently with
/// Lookup/Insert (QueryService serializes policy updates against
/// in-flight queries).
class PlanCache {
 public:
  /// 128-bit cache key: fingerprint of the query skeleton and the
  /// plan-shaping OptimizerOptions fields.
  struct Key {
    uint64_t hi = 0;
    uint64_t lo = 0;
    bool operator==(const Key& o) const { return hi == o.hi && lo == o.lo; }
  };

  /// One (scan location, table) pair a cached plan's compliance depends
  /// on, with the policy-content fingerprint observed at insert time.
  struct Dependency {
    LocationId location = 0;
    std::string table;
    uint64_t fingerprint = 0;
  };

  explicit PlanCache(PlanCacheOptions options = {});

  /// Fingerprints `sql` as given (the engine passes the ParameterizeSql
  /// skeleton, already the canonical token stream) together with the
  /// plan-shaping option fields (compliant, agg pushdown, required result
  /// set, objective). `threads` / `implication_cache` do not change the
  /// chosen plan and are excluded.
  static Key ComputeKey(const std::string& sql,
                        const OptimizerOptions& options);

  /// The (location, table) pairs scanned by `root`, deduplicated, each
  /// fingerprinted against the current policy content.
  static std::vector<Dependency> CollectDependencies(
      const PlanNode& root, const PolicyCatalog& policies);

  /// Rough resident-size estimate of a plan tree (for the byte budget).
  static size_t EstimatePlanBytes(const PlanNode& root);

  /// Returns a deep copy of the cached optimized query, or nullopt on a
  /// miss. Stale-epoch entries are revalidated dependency-by-dependency:
  /// unchanged fingerprints refresh the entry (hit); any change erases it
  /// (counted as invalidation + miss).
  ///
  /// `params` is the constant vector the normalizer extracted from the
  /// query whose skeleton hashed to `key` (empty for exact-match-only
  /// use). An entry whose stored parameters match structurally is served
  /// as-is (exact hit). Otherwise, if the entry was proven rebindable at
  /// insert time, its clone's literal slots are rebound to `params`
  /// (parameterized hit; `*param_hit` set when non-null). A non-rebindable
  /// entry with different parameters is a miss — it stays cached for
  /// exact matches.
  ///
  /// The caller must re-prove Definition-1 compliance of the returned
  /// plan (the engine does, on every hit): rebinding changes predicate
  /// constants, and policy predicates may imply different verdicts for
  /// different constants.
  std::optional<OptimizedQuery> Lookup(const Key& key,
                                       const std::vector<Value>& params,
                                       const PolicyCatalog& policies,
                                       bool* param_hit = nullptr);

  /// What one Insert did, for the engine's `plan_cache_insert` span.
  struct InsertResult {
    bool admitted = false;    ///< false: refused by admission, not stored
    size_t dependencies = 0;  ///< (location, table) pairs recorded
    int64_t evicted = 0;      ///< LRU entries dropped for the byte budget
  };

  /// Caches a successfully optimized compliant query under `key` at the
  /// catalog's current epoch. Replaces any existing entry; evicts the LRU
  /// tail past the byte budget.
  ///
  /// Admission on second miss (TinyLFU's doorkeeper): an insert that
  /// needs no eviction — the key is resident, or the shard has room or is
  /// empty — is always admitted. One that would evict is admitted only if
  /// its key was refused before; a first-seen key is recorded in the
  /// shard's doorkeeper and refused, before anything is cloned. So a full
  /// cache under a stream of one-off queries keeps its entries instead of
  /// churning them, and a cache that never fills behaves as plain LRU.
  ///
  /// `params` is the parameter vector the query's text carried. The
  /// entry is marked rebindable only when every ordinal in [0, n) appears
  /// in the plan as a tagged literal slot with exactly params[ordinal]
  /// (see PlanParamsBindable) — otherwise it serves exact matches only.
  InsertResult Insert(const Key& key, const OptimizedQuery& q,
                      const std::vector<Value>& params,
                      const PolicyCatalog& policies);

  /// Erases `key` (the engine calls this when the belt-and-braces
  /// compliance re-check fails on a hit). Counted as an invalidation.
  void Invalidate(const Key& key);

  /// Counts one belt-and-braces compliance re-check on a hit.
  void RecordRevalidation();

  void Clear();
  PlanCacheStats stats() const;
  const PlanCacheOptions& options() const { return options_; }

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
    }
  };

  struct Entry {
    Key key;
    OptimizedQuery query;  ///< plan is the cache's private copy
    std::vector<Dependency> deps;
    /// Constants extracted from the inserted query's text, by ordinal.
    std::vector<Value> params;
    /// True when the plan's tagged literal slots cover every parameter —
    /// only then may a lookup with different constants rebind and serve.
    bool bindable = false;
    uint64_t epoch = 0;  ///< policy epoch the entry is known-fresh at
    size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    size_t bytes = 0;
    /// Keys refused once while the shard was full. Cleared when it holds
    /// as many keys as the shard holds entries (with a small floor), so
    /// it never outgrows the shard itself.
    std::unordered_set<Key, KeyHash> doorkeeper;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[key.hi & (shards_.size() - 1)];
  }
  /// The admission rule of Insert for an entry of about `bytes` (lock
  /// held); records a refused key in the doorkeeper.
  bool AdmitLocked(Shard& shard, const Key& key, size_t bytes);
  /// Erases `it` from `shard` (lock held) and updates byte accounting.
  void EraseLocked(Shard& shard, std::list<Entry>::iterator it);
  void PublishGauges() const;

  PlanCacheOptions options_;
  size_t per_shard_budget_;
  std::vector<Shard> shards_;

  mutable std::mutex stats_mu_;
  PlanCacheStats stats_;
};

}  // namespace cgq

#endif  // CGQ_SERVICE_PLAN_CACHE_H_
