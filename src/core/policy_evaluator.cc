#include "core/policy_evaluator.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <utility>

#include "common/trace.h"
#include "expr/implication.h"

namespace cgq {

namespace {

// One element of the flattened A_q: a base attribute together with the
// aggregate function applied to the output it appears in (if any).
struct AttrFnPair {
  BaseAttr base;
  std::optional<AggFn> fn;

  bool operator<(const AttrFnPair& other) const {
    if (!(base == other.base)) return base < other.base;
    if (fn.has_value() != other.fn.has_value()) return !fn.has_value();
    if (!fn) return false;
    return static_cast<int>(*fn) < static_cast<int>(*other.fn);
  }
};

// Single-instance premise: conjuncts whose column refs all belong to
// `alias`.
std::vector<ExprPtr> PremiseForAlias(const QuerySummary& summary,
                                     const std::string& alias) {
  std::vector<ExprPtr> premise;
  for (const ExprPtr& c : summary.predicate) {
    std::vector<const Expr*> refs;
    c->CollectColumnRefs(&refs);
    bool all_match = !refs.empty();
    for (const Expr* r : refs) {
      all_match &= (r->qualifier() == alias);
    }
    if (all_match || refs.empty()) premise.push_back(c);
  }
  return premise;
}

// One relation instance's premise, hashed once per Evaluate() call and
// tested against every policy of its table.
struct AliasPremise {
  const std::string* table;
  std::vector<ExprPtr> premise;
  ExprFingerprint fp;
  /// Prebuilt premise side of the implication test (hierarchical index
  /// mode only). When `simple()`, candidate predicates are tested directly
  /// against it — bit-identical to PredicateImplies but without per-test
  /// hashing or cache locking. Otherwise `fp` keys the implication cache.
  std::optional<PremiseConstraints> constraints;
  /// Columns the premise mentions (bit i = column i of `table`). Only
  /// meaningful when `maskable`: every ref mapped to a bit, no empty IN
  /// list anywhere (a contradictory OR branch can imply atoms over columns
  /// the premise never names), and the premise itself not contradictory
  /// (false implies anything). Computed in hierarchical index mode only.
  uint64_t premise_mask = 0;
  bool maskable = false;
};

// Accumulates the premise's column mask; clears `*ok` on unmappable refs
// and on empty IN lists (see AliasPremise::maskable).
void AccumulatePremiseMask(const Expr& e, const Schema* schema,
                           uint64_t* mask, bool* ok) {
  if (e.op() == ExprOp::kColumnRef) {
    std::optional<size_t> i =
        schema != nullptr ? schema->IndexOf(e.column()) : std::nullopt;
    if (!i || *i >= 64) {
      *ok = false;
      return;
    }
    *mask |= uint64_t{1} << *i;
    return;
  }
  if (e.op() == ExprOp::kIn && e.in_list().empty()) {
    *ok = false;
    return;
  }
  for (const ExprPtr& c : e.children()) {
    AccumulatePremiseMask(*c, schema, mask, ok);
  }
}

// Finalizer of the evaluation-memo key components (splitmix64), so
// structured inputs (database, epoch) spread over all 64 bits before they
// are XORed into the summary fingerprint.
uint64_t MixKey(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// One step of a 64-bit hash fold (boost-style combine, splitmix-finalized
// by the caller via MixKey where needed).
uint64_t FoldHash(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

// 128-bit structural fingerprint of everything Evaluate() reads from a
// summary: the disclosed (attribute, aggregate fn) pairs, the predicate
// conjuncts (qualifiers intact — they determine the per-alias premises),
// the grouping attributes, the alias → table binding, and the aggregate
// flag. Keys the catalog's evaluation memo; a collision is as (im)probable
// as an implication-cache one.
ExprFingerprint SummaryFingerprint(const QuerySummary& summary) {
  ExprFingerprint fp = FingerprintConjuncts(summary.predicate);
  const std::hash<std::string> hs;
  uint64_t h = 0x5851f42d4c957f2dULL;
  for (const auto& [id, out] : summary.outputs) {
    for (const BaseAttr& b : out.bases) {
      h = FoldHash(h, hs(b.table));
      h = FoldHash(h, hs(b.column));
    }
    h = FoldHash(h, out.fn ? 2 + static_cast<uint64_t>(*out.fn) : 1);
  }
  for (const BaseAttr& g : summary.group_attrs) {
    h = FoldHash(h, hs(g.table));
    h = FoldHash(h, hs(g.column));
  }
  for (const auto& [alias, table] : summary.alias_tables) {
    h = FoldHash(h, hs(alias));
    h = FoldHash(h, hs(table));
  }
  h = FoldHash(h, summary.is_aggregate ? 3 : 7);
  fp.hi = MixKey(fp.hi ^ h);
  fp.lo = MixKey(fp.lo + (h * 0xc4ceb9fe1a85ec53ULL | 1));
  return fp;
}

// What one policy expression contributes; computed independently per policy
// (possibly on a pool thread), applied sequentially in policy order.
// Grants carry the disclosed pair's position so the merge is an indexed
// store, not a map lookup.
struct PolicyOutcome {
  bool matched = false;  ///< relevance: A_q ∩ (A_e ∪ G_e) ≠ ∅
  bool eta = false;      ///< implication held for every instance
  int32_t implication_tests = 0;
  int32_t cache_hits = 0;
  int32_t cache_misses = 0;  ///< tests routed to the cache that missed
  int32_t prefilter_skips = 0;
  std::vector<size_t> grants;
};

}  // namespace

LocationSet PolicyEvaluator::Evaluate(const QuerySummary& summary,
                                      LocationId db,
                                      std::vector<AttrGrant>* grants) const {
  auto start = std::chrono::steady_clock::now();
  TraceSpan span("policy_eval");
  span.AddArg("db", static_cast<int64_t>(db));
  PolicyEvalStats local;
  local.evaluations = 1;
  auto merge_stats = [&] {
    local.eval_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.evaluations += local.evaluations;
    stats_.candidates += local.candidates;
    stats_.expressions_matched += local.expressions_matched;
    stats_.implication_tests += local.implication_tests;
    stats_.implication_cache_hits += local.implication_cache_hits;
    stats_.implication_cache_misses += local.implication_cache_misses;
    stats_.prefilter_skips += local.prefilter_skips;
    stats_.eta += local.eta;
    stats_.eval_ms += local.eval_ms;
  };

  const bool hier =
      policies_->index_mode() == PolicyIndexMode::kHierarchical;

  // Hierarchical mode: a summary evaluated before (same database, same
  // policy epoch) resolves from the catalog's evaluation memo without
  // touching the index — except when the caller wants provenance, which
  // the memo does not store. The stored set is the verbatim result of the
  // full evaluation below, so decisions are identical either way.
  uint64_t memo_a = 0, memo_b = 0;
  if (hier) {
    const ExprFingerprint sfp = SummaryFingerprint(summary);
    memo_a = sfp.hi ^ MixKey((static_cast<uint64_t>(db) << 1) +
                             policies_->epoch() * 0x9e3779b97f4a7c15ULL);
    memo_b = sfp.lo;
    if (grants == nullptr) {
      if (std::optional<LocationSet> hit =
              policies_->FindEvalMemo(memo_a, memo_b)) {
        merge_stats();
        span.AddArg("policies", static_cast<int64_t>(0));
        return *hit;
      }
    }
  }

  // Flatten A_q into (base attribute, aggregate fn) pairs. Besides the
  // output attributes, attributes accessed by predicates and grouping are
  // disclosed as well (cf. §4 Example 1/2: the output of
  // Γsum(acctbal)(σ name='abc'(C)) "cannot be shipped at all" because the
  // selection accesses `name`). They join A_q as un-aggregated pairs.
  std::map<AttrFnPair, LocationSet> legal;
  for (const auto& [id, out] : summary.outputs) {
    for (const BaseAttr& b : out.bases) {
      legal.emplace(AttrFnPair{b, out.fn}, LocationSet());
    }
  }
  for (const ExprPtr& c : summary.predicate) {
    std::vector<BaseAttr> bases;
    c->CollectBaseAttrs(&bases);
    for (const BaseAttr& b : bases) {
      legal.emplace(AttrFnPair{b, std::nullopt}, LocationSet());
    }
  }
  for (const BaseAttr& g : summary.group_attrs) {
    legal.emplace(AttrFnPair{g, std::nullopt}, LocationSet());
  }
  if (legal.empty()) {
    if (hier) policies_->StoreEvalMemo(memo_a, memo_b, LocationSet());
    merge_stats();
    span.AddArg("policies", static_cast<int64_t>(0));
    return LocationSet();
  }

  const std::vector<PolicyExpression>& exprs = policies_->For(db);

  // Premise (and fingerprint) per relation instance, shared by all policies.
  std::vector<AliasPremise> instances;
  instances.reserve(summary.alias_tables.size());
  for (const auto& [alias, table] : summary.alias_tables) {
    AliasPremise ap;
    ap.table = &table;
    ap.premise = PremiseForAlias(summary, alias);
    if (hier) {
      auto def = catalog_->GetTable(table);
      const Schema* schema = def.ok() ? &(*def)->schema : nullptr;
      bool ok = schema != nullptr;
      for (const ExprPtr& c : ap.premise) {
        AccumulatePremiseMask(*c, schema, &ap.premise_mask, &ok);
      }
      ap.constraints.emplace(ap.premise);
      ap.maskable = ok && !ap.constraints->contradictory();
    }
    // The fingerprint keys the implication cache, which direct constraint
    // tests never consult.
    if (cache_ != nullptr &&
        !(ap.constraints.has_value() && ap.constraints->simple())) {
      ap.fp = FingerprintConjuncts(ap.premise);
    }
    instances.push_back(std::move(ap));
  }

  // Flatten the deduplicated pairs into index-addressable parallel arrays:
  // the merge below stores into `pair_locs[idx]` instead of re-searching
  // the map per grant.
  std::vector<const AttrFnPair*> pairs;
  pairs.reserve(legal.size());
  for (const auto& [pair, locs] : legal) pairs.push_back(&pair);
  std::vector<LocationSet> pair_locs(pairs.size());

  // Candidate policies: only expressions over tables the query discloses
  // (legal is sorted by table, so its pairs group into contiguous runs).
  // Candidates are grouped by table run, not globally sorted — every
  // per-policy contribution is merged with commutative operations
  // (LocationSet::Union, counter sums), so the visit order is free; the
  // provenance lists are re-sorted into catalog order at the end.
  // Each pair carries its schema-column bit so relevance against a policy's
  // precomputed ship/group masks is a single AND (bit 0 = not maskable,
  // fall back to string comparison).
  struct PairBit {
    size_t idx;    ///< position in `pairs`
    uint64_t bit;  ///< 1 << schema column index, or 0
  };
  std::vector<std::vector<PairBit>> table_pairs;
  std::vector<const std::string*> run_tables;
  {
    const std::string* current = nullptr;
    const Schema* schema = nullptr;
    for (size_t idx = 0; idx < pairs.size(); ++idx) {
      const AttrFnPair& pair = *pairs[idx];
      if (current == nullptr || pair.base.table != *current) {
        current = &pair.base.table;
        run_tables.push_back(current);
        table_pairs.emplace_back();
        auto def = catalog_->GetTable(pair.base.table);
        schema = def.ok() ? &(*def)->schema : nullptr;
      }
      uint64_t bit = 0;
      if (schema != nullptr) {
        if (std::optional<size_t> i = schema->IndexOf(pair.base.column);
            i && *i < 64) {
          bit = uint64_t{1} << *i;
        }
      }
      table_pairs.back().push_back(PairBit{idx, bit});
    }
  }
  // Case 1/2 relevance of one pair: does `e` list its column as a ship
  // attribute?
  auto ships = [&](const PolicyExpression& e, const PairBit& pb) {
    return (e.masks_valid && pb.bit != 0)
               ? (e.ship_mask & pb.bit) != 0
               : e.HasShipAttribute(pairs[pb.idx]->base.column);
  };

  // The catalog selects per-run candidates from the run's disclosed-column
  // mask: the flat index hands back every expression over the table, the
  // hierarchical one only buckets whose signature intersects the mask
  // (pruning is off for a run with any unmappable column) and whose
  // predicate columns the run's premises all constrain.
  //
  // Hierarchical mode also collects a floor per pair while selecting: the
  // locations unconditional basic candidates grant it. An empty predicate
  // is implied by every premise, so those grants are certain without a
  // test and go straight into `pair_locs`; a candidate whose every grant
  // already lies inside the floor cannot change the result and is skipped
  // before its implication test. Provenance callers want every granting
  // expression, so they get no floor.
  const bool use_floor = hier && grants == nullptr;
  std::vector<size_t> candidates;
  std::vector<size_t> candidate_table;  ///< candidate -> table_pairs index
  /// Per run: the query's instances of the run's table.
  std::vector<std::vector<const AliasPremise*>> run_instances(
      table_pairs.size());
  size_t bucket_prefiltered = 0;
  for (size_t run = 0; run < table_pairs.size(); ++run) {
    uint64_t query_mask = 0;
    bool mask_exact = true;
    for (const PairBit& pb : table_pairs[run]) {
      query_mask |= pb.bit;
      mask_exact &= pb.bit != 0;
    }
    // Intersection of the maskable instance premises for this run's table:
    // a policy predicate requiring a column outside it fails the (per-
    // instance) implication for at least one instance, so whole buckets of
    // such predicates are pruned before the candidate walk.
    uint64_t premise_cap = ~uint64_t{0};
    bool premise_capped = false;
    for (const AliasPremise& ap : instances) {
      if (*ap.table != *run_tables[run]) continue;
      run_instances[run].push_back(&ap);
      if (!ap.maskable) continue;
      premise_cap &= ap.premise_mask;
      premise_capped = true;
    }
    const size_t first = candidates.size();
    policies_->AppendCandidates(db, *run_tables[run], query_mask, mask_exact,
                                premise_cap, premise_capped, &candidates,
                                &bucket_prefiltered);
    candidate_table.resize(candidates.size(), run);
    // Floor grants need an instance of the table (see eval_policy).
    if (!use_floor || run_instances[run].empty()) continue;
    for (size_t ci = first; ci < candidates.size(); ++ci) {
      const PolicyExpression& e = exprs[candidates[ci]];
      if (!e.predicate.empty() || e.is_aggregate()) continue;
      for (const PairBit& pb : table_pairs[run]) {
        if (ships(e, pb)) pair_locs[pb.idx] = pair_locs[pb.idx].Union(e.to);
      }
    }
  }
  local.candidates = static_cast<int64_t>(candidates.size());
  local.prefilter_skips += static_cast<int64_t>(bucket_prefiltered);

  // Per-policy evaluation: reads `legal` keys, the summary and the floor in
  // `pair_locs`, writes only its own outcome slot — safe to fan out.
  std::vector<PolicyOutcome> outcomes(candidates.size());
  auto eval_policy = [&](size_t ci) {
    const PolicyExpression& e = exprs[candidates[ci]];
    PolicyOutcome& o = outcomes[ci];

    // A_q ∩ (A_e ∪ G_e): does this expression speak to any output pair?
    // Mask tests are cheap enough that the grant passes below re-derive
    // per-pair relevance instead of materializing a `relevant` list.
    const bool group_counts =
        summary.is_aggregate && e.is_aggregate();
    const std::vector<PairBit>& epairs = table_pairs[candidate_table[ci]];
    auto groups = [&](const PairBit& pb) {
      return (e.masks_valid && pb.bit != 0)
                 ? (e.group_mask & pb.bit) != 0
                 : e.HasGroupAttribute(pairs[pb.idx]->base.column);
    };
    for (const PairBit& pb : epairs) {
      if (ships(e, pb) || (group_counts && groups(pb))) {
        o.matched = true;
        break;
      }
    }
    if (!o.matched) return;
    if (use_floor && !e.is_aggregate()) {
      bool inside_floor = true;
      for (const PairBit& pb : epairs) {
        if (ships(e, pb) && !e.to.IsSubsetOf(pair_locs[pb.idx])) {
          inside_floor = false;
          break;
        }
      }
      if (inside_floor) return;
    }

    // P_q ⟹ P_e, for every instance of e's table in the query; with no
    // instance at all, Algorithm 1 grants nothing.
    const std::vector<const AliasPremise*>& insts =
        run_instances[candidate_table[ci]];
    if (insts.empty()) return;
    for (const AliasPremise* ap : insts) {
      if (e.pred_mask_valid && ap->maskable &&
          (e.pred_mask & ~ap->premise_mask) != 0) {
        // The policy predicate requires a column this (non-contradictory)
        // premise never mentions — the implication test cannot succeed.
        ++o.prefilter_skips;
        return;
      }
      ++o.implication_tests;
      if (ap->constraints.has_value() && ap->constraints->simple()) {
        // Fully normalized premise: a direct constraint check beats even a
        // cache hit (no hashing, no shard lock), same result bit for bit.
        if (!ap->constraints->Implies(e.predicate)) return;
      } else if (cache_ != nullptr) {
        bool hit = false;
        const bool implied = cache_->ImpliesPrehashed(
            ap->fp, ap->premise, e.predicate_fp, e.predicate, &hit);
        ++(hit ? o.cache_hits : o.cache_misses);
        if (!implied) return;
      } else if (!PredicateImplies(ap->premise, e.predicate)) {
        return;
      }
    }
    o.eta = true;  // Algorithm 1 reaches line 4.

    if (!e.is_aggregate()) {
      // Cases 1 & 2: a basic expression permits the cells at any
      // aggregation level, for its ship attributes.
      for (const PairBit& pb : epairs) {
        if (ships(e, pb)) o.grants.push_back(pb.idx);
      }
      return;
    }

    // Case 3: aggregate expression — only covers aggregate queries.
    if (!summary.is_aggregate) return;

    // G_q (restricted to e's table) ⊆ G_e; the empty subset qualifies.
    bool groups_ok = true;
    for (const BaseAttr& g : summary.group_attrs) {
      if (g.table != e.table) continue;
      groups_ok &= e.HasGroupAttribute(g.column);
    }
    if (!groups_ok) return;

    for (const PairBit& pb : epairs) {
      const AttrFnPair& pair = *pairs[pb.idx];
      bool allowed = false;
      if (!pair.fn.has_value()) {
        // Grouping attribute: implicitly shippable when listed in G_e.
        allowed = groups(pb);
      } else {
        allowed = ships(e, pb) && e.AllowsAggFn(*pair.fn);
      }
      if (allowed) o.grants.push_back(pb.idx);
    }
  };

  constexpr size_t kMinPoliciesForFanout = 8;
  if (pool_ != nullptr && width_ > 1 &&
      candidates.size() >= kMinPoliciesForFanout) {
    pool_->ParallelFor(candidates.size(), static_cast<size_t>(width_),
                       eval_policy);
  } else {
    for (size_t ci = 0; ci < candidates.size(); ++ci) eval_policy(ci);
  }

  // Merge: all per-policy contributions are commutative (set unions,
  // counter sums), so walking outcomes in their fixed candidate order is
  // identical to the sequential evaluation regardless of scheduling.
  // Provenance lists are only materialized when the caller asked for them.
  std::vector<std::vector<const PolicyExpression*>> granted_by;
  if (grants != nullptr) granted_by.resize(pairs.size());
  for (size_t ci = 0; ci < outcomes.size(); ++ci) {
    const PolicyOutcome& o = outcomes[ci];
    local.expressions_matched += o.matched ? 1 : 0;
    local.implication_tests += o.implication_tests;
    if (cache_ != nullptr) {
      local.implication_cache_hits += o.cache_hits;
      local.implication_cache_misses += o.cache_misses;
    }
    local.prefilter_skips += o.prefilter_skips;
    local.eta += o.eta ? 1 : 0;
    const PolicyExpression& e = exprs[candidates[ci]];
    for (size_t idx : o.grants) {
      pair_locs[idx] = pair_locs[idx].Union(e.to);
      if (grants != nullptr) granted_by[idx].push_back(&e);
    }
  }

  if (grants != nullptr) {
    grants->clear();
    for (size_t idx = 0; idx < pairs.size(); ++idx) {
      AttrGrant grant;
      grant.base = pairs[idx]->base;
      grant.fn = pairs[idx]->fn;
      grant.granted = pair_locs[idx];
      grant.granted_by = std::move(granted_by[idx]);
      // Candidates were grouped by table run; catalog order = address
      // order within the per-location expression vector.
      std::sort(grant.granted_by.begin(), grant.granted_by.end());
      grants->push_back(std::move(grant));
    }
  }

  LocationSet result = catalog_->locations().All();
  for (const LocationSet& locs : pair_locs) {
    result = result.Intersect(locs);
    if (result.empty()) break;
  }
  if (hier) policies_->StoreEvalMemo(memo_a, memo_b, result);
  merge_stats();
  span.AddArg("policies", static_cast<int64_t>(candidates.size()));
  span.AddArg("matched", local.expressions_matched);
  span.AddArg("implication_tests", local.implication_tests);
  span.AddArg("cache_hits", local.implication_cache_hits);
  span.AddArg("eta", local.eta);
  return result;
}

}  // namespace cgq
