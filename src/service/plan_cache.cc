#include "service/plan_cache.h"

#include <algorithm>
#include <utility>

#include "common/trace.h"
#include "plan/param_binding.h"

namespace cgq {
namespace {

bool ParamsEqual(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].StructurallyEquals(b[i])) return false;
  }
  return true;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline void Mix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= kFnvPrime;
  }
}

size_t StringBytes(const std::string& s) {
  return sizeof(std::string) + s.capacity();
}

size_t ExprBytes(const ExprPtr& e);

size_t NodeBytes(const PlanNode& node) {
  size_t n = sizeof(PlanNode);
  n += node.table.capacity() + node.alias.capacity();
  for (const ExprPtr& c : node.conjuncts) n += ExprBytes(c);
  n += node.project_ids.capacity() * sizeof(AttrId);
  for (const std::string& s : node.project_names) n += StringBytes(s);
  n += node.group_ids.capacity() * sizeof(AttrId);
  n += node.agg_calls.capacity() * sizeof(AggCall);
  n += node.agg_out_ids.capacity() * sizeof(AttrId);
  for (const OutputCol& c : node.outputs) {
    n += sizeof(OutputCol) + c.name.capacity();
  }
  return n;
}

size_t ExprBytes(const ExprPtr& e) {
  // Flat estimate: expression trees are shallow (bound conjuncts); an
  // exact recursive walk is not worth coupling the cache to Expr's
  // internals.
  return e == nullptr ? 0 : 96;
}

}  // namespace

PlanCache::PlanCache(PlanCacheOptions options) : options_(options) {
  size_t n = 1;
  while (n < static_cast<size_t>(std::max(1, options_.shards))) n <<= 1;
  options_.shards = static_cast<int>(n);
  shards_ = std::vector<Shard>(n);
  per_shard_budget_ = std::max<size_t>(options_.max_bytes / n, 1);
}

PlanCache::Key PlanCache::ComputeKey(const std::string& sql,
                                     const OptimizerOptions& options) {
  // Two independent FNV-1a streams (distinct offsets) over the same
  // content give a 128-bit fingerprint, mirroring ExprFingerprint.
  uint64_t hi = kFnvOffset;
  uint64_t lo = kFnvOffset ^ 0x5bd1e9955bd1e995ULL;
  auto mix_all = [&](uint64_t v) {
    Mix(&hi, v);
    Mix(&lo, v ^ 0xa5a5a5a5a5a5a5a5ULL);
  };
  for (unsigned char c : sql) {
    hi = (hi ^ c) * kFnvPrime;
    lo = (lo ^ c) * kFnvPrime;
  }
  // Plan-shaping options only: threads / implication_cache change how
  // fast the optimizer runs, never which plan it picks.
  mix_all(options.compliant ? 1 : 0);
  mix_all(options.enable_agg_pushdown ? 2 : 0);
  mix_all(options.required_result.bits());
  mix_all(options.response_time_objective ? 4 : 0);
  return Key{hi, lo};
}

std::vector<PlanCache::Dependency> PlanCache::CollectDependencies(
    const PlanNode& root, const PolicyCatalog& policies) {
  std::vector<Dependency> deps;
  auto walk = [&](auto&& self, const PlanNode& node) -> void {
    if (node.kind() == PlanKind::kScan) {
      bool seen = false;
      for (const Dependency& d : deps) {
        if (d.location == node.scan_location && d.table == node.table) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        deps.push_back(Dependency{
            node.scan_location, node.table,
            policies.TablePolicyFingerprint(node.scan_location, node.table)});
      }
    }
    for (const PlanNodePtr& c : node.children()) self(self, *c);
  };
  walk(walk, root);
  return deps;
}

size_t PlanCache::EstimatePlanBytes(const PlanNode& root) {
  size_t n = NodeBytes(root);
  for (const PlanNodePtr& c : root.children()) n += EstimatePlanBytes(*c);
  return n;
}

std::optional<OptimizedQuery> PlanCache::Lookup(
    const Key& key, const std::vector<Value>& params,
    const PolicyCatalog& policies, bool* param_hit) {
  if (param_hit != nullptr) *param_hit = false;
  Shard& shard = ShardFor(key);
  const uint64_t epoch = policies.epoch();
  std::optional<OptimizedQuery> out;
  bool invalidated = false;
  bool rebound = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      Entry& entry = *it->second;
      bool fresh = entry.epoch == epoch;
      if (!fresh) {
        // The catalog changed since this entry was cached. Fine-grained
        // check: if no policy governing a scanned (location, table) pair
        // changed content, the plan is still a valid compliance proof.
        fresh = true;
        for (const Dependency& d : entry.deps) {
          if (policies.TablePolicyFingerprint(d.location, d.table) !=
              d.fingerprint) {
            fresh = false;
            break;
          }
        }
        if (fresh) entry.epoch = epoch;
      }
      if (!fresh) {
        EraseLocked(shard, it->second);
        invalidated = true;
      } else if (ParamsEqual(params, entry.params)) {
        // Same constants as the cached text: byte-identical query.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        out = entry.query;
        out->plan = ClonePlan(*entry.query.plan);
      } else if (entry.bindable) {
        // Same shape, different constants: serve a rebound clone.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        out = entry.query;
        out->plan = ClonePlan(*entry.query.plan);
        rebound = true;
      }
      // Not bindable with different params: miss, but the entry stays —
      // it is still a valid proof for its own constants.
    }
  }
  if (rebound) {
    // Outside the shard lock: the clone is private to this lookup.
    BindPlanParams(out->plan.get(), params);
    if (param_hit != nullptr) *param_hit = true;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (out.has_value()) {
      ++stats_.hits;
      if (rebound) {
        ++stats_.param_hits;
      } else {
        ++stats_.exact_hits;
      }
    } else {
      ++stats_.misses;
      if (invalidated) ++stats_.invalidations;
    }
  }
  if (out.has_value()) {
    CGQ_COUNTER_ADD("plan_cache.hits", 1);
    if (rebound) CGQ_COUNTER_ADD("plan_cache.param_hits", 1);
  } else {
    CGQ_COUNTER_ADD("plan_cache.misses", 1);
    if (invalidated) CGQ_COUNTER_ADD("plan_cache.invalidations", 1);
  }
  if (invalidated) PublishGauges();
  return out;
}

PlanCache::InsertResult PlanCache::Insert(const Key& key,
                                          const OptimizedQuery& q,
                                          const std::vector<Value>& params,
                                          const PolicyCatalog& policies) {
  if (q.plan == nullptr) return {};
  size_t params_bytes = 0;
  for (const Value& v : params) params_bytes += sizeof(Value) + v.ByteSize();
  // Admission is decided on the caller's plan, before the clone and the
  // dependency walk that a refused key never needs.
  const size_t estimate =
      sizeof(Entry) + EstimatePlanBytes(*q.plan) + params_bytes;
  Shard& shard = ShardFor(key);
  bool admitted;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    admitted = AdmitLocked(shard, key, estimate);
  }
  if (!admitted) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.refused;
    }
    CGQ_COUNTER_ADD("plan_cache.refused", 1);
    return {};
  }

  Entry entry;
  entry.key = key;
  entry.query = q;
  entry.query.plan = ClonePlan(*q.plan);  // private copy, never aliased
  entry.deps = CollectDependencies(*entry.query.plan, policies);
  entry.params = params;
  // Rebindability is proven here, against the exact plan being cached:
  // if any extracted constant cannot be located in the plan (or was
  // transformed on its way in), the entry degrades to exact-match-only
  // instead of ever serving a wrongly-bound plan.
  entry.bindable = PlanParamsBindable(*entry.query.plan, params);
  entry.epoch = policies.epoch();
  entry.bytes = estimate;
  for (const Dependency& d : entry.deps) {
    entry.bytes += sizeof(Dependency) + d.table.capacity();
  }
  const size_t dependencies = entry.deps.size();

  int64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) EraseLocked(shard, it->second);
    shard.bytes += entry.bytes;
    shard.lru.push_front(std::move(entry));
    shard.index[key] = shard.lru.begin();
    while (shard.bytes > per_shard_budget_ && shard.lru.size() > 1) {
      EraseLocked(shard, std::prev(shard.lru.end()));
      ++evicted;
    }
  }
  if (evicted > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.evictions += evicted;
  }
  CGQ_COUNTER_ADD("plan_cache.inserts", 1);
  if (evicted > 0) CGQ_COUNTER_ADD("plan_cache.evictions", evicted);
  PublishGauges();
  return InsertResult{true, dependencies, evicted};
}

bool PlanCache::AdmitLocked(Shard& shard, const Key& key, size_t bytes) {
  const bool needs_no_eviction = shard.lru.empty() ||
                                 shard.bytes + bytes <= per_shard_budget_ ||
                                 shard.index.count(key) > 0;
  // A key leaves the doorkeeper when it is admitted, so the doorkeeper
  // only ever holds keys that are not resident.
  if (shard.doorkeeper.erase(key) > 0 || needs_no_eviction) return true;
  // TinyLFU's periodic reset: forget every refused key once there are as
  // many of them as resident entries.
  constexpr size_t kDoorkeeperFloor = 64;
  if (shard.doorkeeper.size() >=
      std::max(shard.lru.size(), kDoorkeeperFloor)) {
    shard.doorkeeper.clear();
  }
  shard.doorkeeper.insert(key);
  return false;
}

void PlanCache::Invalidate(const Key& key) {
  bool erased = false;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      EraseLocked(shard, it->second);
      erased = true;
    }
  }
  if (erased) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.invalidations;
    }
    CGQ_COUNTER_ADD("plan_cache.invalidations", 1);
    PublishGauges();
  }
}

void PlanCache::RecordRevalidation() {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.revalidations;
  }
  CGQ_COUNTER_ADD("plan_cache.revalidations", 1);
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
    shard.doorkeeper.clear();
  }
  PublishGauges();
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.entries += shard.lru.size();
    out.bytes += shard.bytes;
    out.doorkeeper_keys += shard.doorkeeper.size();
  }
  return out;
}

void PlanCache::EraseLocked(Shard& shard, std::list<Entry>::iterator it) {
  shard.bytes -= std::min(shard.bytes, it->bytes);
  shard.index.erase(it->key);
  shard.lru.erase(it);
}

void PlanCache::PublishGauges() const {
#ifdef CGQ_TRACING
  size_t entries = 0;
  size_t bytes = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    entries += shard.lru.size();
    bytes += shard.bytes;
  }
  CGQ_GAUGE_SET("plan_cache.entries", static_cast<int64_t>(entries));
  CGQ_GAUGE_SET("plan_cache.bytes", static_cast<int64_t>(bytes));
#endif
}

}  // namespace cgq
