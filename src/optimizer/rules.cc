#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "optimizer/memo.h"

namespace cgq {

namespace {

constexpr size_t kMaxExprs = 120000;

}  // namespace

/// Applies the transformation rules (§6.2: algebraic equivalence rules fed
/// to the Volcano optimizer generator) until fixpoint:
///  - join commutativity and associativity (both directions), which
///    together enumerate bushy join orders;
///  - eager aggregation push-down through joins and through UNION ALL,
///    which provides the aggregate-masking alternatives that AR4 needs
///    (e.g. Fig 1(b) operator Γ(o, sum(q)); Fig 5(e) for TPC-H Q3).
class RuleEngine {
 public:
  RuleEngine(Memo* memo, bool enable_agg_pushdown)
      : memo_(memo), enable_agg_pushdown_(enable_agg_pushdown) {}

  void Run() {
    bool changed = true;
    int rounds = 0;
    while (changed && memo_->mexprs_.size() < kMaxExprs && rounds < 32) {
      ++rounds;
      size_t before = memo_->mexprs_.size();
      for (size_t id = 0; id < memo_->mexprs_.size(); ++id) {
        if (memo_->mexprs_.size() >= kMaxExprs) break;
        Apply(static_cast<int>(id));
      }
      changed = memo_->mexprs_.size() != before;
    }
  }

 private:
  void Apply(int id) {
    // Note: mexprs_ may reallocate during rule application; re-read by id.
    PlanKind kind = memo_->mexprs_[id].payload->kind();
    if (kind == PlanKind::kJoin) {
      JoinCommute(id);
      JoinAssoc(id, /*left=*/true);
      JoinAssoc(id, /*left=*/false);
    } else if (kind == PlanKind::kAggregate && enable_agg_pushdown_) {
      EagerAggJoin(id);
      EagerAggUnion(id);
    } else if (kind == PlanKind::kScan) {
      ExpandReplicas(id);
    }
  }

  // For replicated tables, each replica site is an alternative scan in the
  // same group (its own location's policies govern it).
  void ExpandReplicas(int id) {
    const MExpr expr = memo_->mexprs_[id];
    auto table = memo_->ctx_->catalog().GetTable(expr.payload->table);
    if (!table.ok() || !(*table)->replicated) return;
    const std::vector<TableFragment>& fragments = (*table)->fragments;
    for (size_t f = 0; f < fragments.size(); ++f) {
      if (static_cast<int>(f) == expr.payload->fragment_ordinal) continue;
      auto replica = std::make_shared<PlanNode>(*expr.payload);
      replica->children().clear();
      replica->fragment_ordinal = static_cast<int>(f);
      replica->scan_location = fragments[f].location;
      memo_->InsertExpr(replica, {}, expr.group);
    }
  }

  bool GroupHasAttrs(int group, const std::vector<AttrId>& ids) const {
    const std::vector<OutputCol>& outs = memo_->groups_[group].outputs;
    for (AttrId id : ids) {
      bool found = false;
      for (const OutputCol& c : outs) {
        if (c.id == id) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  bool CoveredByGroups(const Expr& e, int g1, int g2) const {
    std::vector<AttrId> ids;
    e.CollectAttrIds(&ids);
    for (AttrId id : ids) {
      bool found = false;
      for (int g : {g1, g2}) {
        for (const OutputCol& c : memo_->groups_[g].outputs) {
          if (c.id == id) {
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (!found) return false;
    }
    return true;
  }

  void JoinCommute(int id) {
    const MExpr expr = memo_->mexprs_[id];
    auto payload = std::make_shared<PlanNode>(PlanKind::kJoin);
    payload->conjuncts = expr.payload->conjuncts;
    memo_->InsertExpr(payload, {expr.child_groups[1], expr.child_groups[0]},
                      expr.group);
  }

  // Join(Join(B,C), D) => Join(B, Join(C,D))   (left = true)
  // Join(B, Join(C,D)) => Join(Join(B,C), D)   (left = false)
  void JoinAssoc(int id, bool left) {
    const MExpr outer = memo_->mexprs_[id];
    int nested_group = outer.child_groups[left ? 0 : 1];
    int other_group = outer.child_groups[left ? 1 : 0];
    // Snapshot: the group may grow while we iterate.
    std::vector<int> members = memo_->groups_[nested_group].mexprs;
    for (int inner_id : members) {
      const MExpr inner = memo_->mexprs_[inner_id];
      if (inner.payload->kind() != PlanKind::kJoin) continue;
      int b = inner.child_groups[0];
      int c = inner.child_groups[1];
      // Conjunct pool from both joins.
      std::vector<ExprPtr> pool = outer.payload->conjuncts;
      pool.insert(pool.end(), inner.payload->conjuncts.begin(),
                  inner.payload->conjuncts.end());
      int new_inner_l, new_inner_r, kept_side;
      if (left) {
        // (B ⋈ C) ⋈ D  =>  B ⋈ (C ⋈ D)
        new_inner_l = c;
        new_inner_r = other_group;
        kept_side = b;
      } else {
        // B ⋈ (C ⋈ D)  =>  (B ⋈ C) ⋈ D ; here nested = (C ⋈ D).
        new_inner_l = other_group;
        new_inner_r = b;
        kept_side = c;
      }
      std::vector<ExprPtr> inner_conjuncts, outer_conjuncts;
      for (const ExprPtr& p : pool) {
        if (CoveredByGroups(*p, new_inner_l, new_inner_r)) {
          inner_conjuncts.push_back(p);
        } else {
          outer_conjuncts.push_back(p);
        }
      }
      // Avoid introducing cross products (unless the query itself is one).
      if (inner_conjuncts.empty() && !pool.empty()) continue;
      if (outer_conjuncts.empty() && !pool.empty()) continue;

      auto new_inner = std::make_shared<PlanNode>(PlanKind::kJoin);
      new_inner->conjuncts = std::move(inner_conjuncts);
      int inner_group =
          memo_->InsertExpr(new_inner, {new_inner_l, new_inner_r});

      auto new_outer = std::make_shared<PlanNode>(PlanKind::kJoin);
      new_outer->conjuncts = std::move(outer_conjuncts);
      if (left) {
        memo_->InsertExpr(new_outer, {kept_side, inner_group}, outer.group);
      } else {
        memo_->InsertExpr(new_outer, {inner_group, kept_side}, outer.group);
      }
    }
  }

  // True when the aggregate's calls can be partially computed (decomposable
  // functions, arguments over base attributes only).
  static bool CallsPushable(const PlanNode& agg) {
    if (agg.agg_calls.empty()) return false;
    for (const AggCall& call : agg.agg_calls) {
      if (call.fn == AggFn::kAvg) return false;
      std::vector<AttrId> ids;
      call.arg->CollectAttrIds(&ids);
      for (AttrId id : ids) {
        if (IsSyntheticAttr(id)) return false;
      }
    }
    return true;
  }

  // Allocates (or retrieves from the per-query cache) the synthetic output
  // attributes for a partial aggregate identified by `cache_key`.
  std::vector<AttrId> PartialOutIds(size_t cache_key,
                                    const std::vector<AggCall>& calls) {
    auto& cache = memo_->ctx_->partial_agg_ids();
    auto it = cache.find(cache_key);
    if (it != cache.end()) return it->second;
    std::vector<AttrId> out_ids;
    for (size_t i = 0; i < calls.size(); ++i) {
      AttrInfo info;
      info.name = "partial_" + std::to_string(cache_key % 99991) + "_" +
                  std::to_string(i);
      info.type = calls[i].fn == AggFn::kCount ? DataType::kInt64
                                               : calls[i].arg->type();
      info.width = 8;
      out_ids.push_back(memo_->ctx_->AddSynthetic(std::move(info)));
    }
    cache[cache_key] = out_ids;
    return out_ids;
  }

  // Partial SUMs and COUNTs merge by SUM; the merging call of a COUNT is
  // marked merges_counts, so it still finishes 0 over no rows.
  static AggFn OuterFnOf(AggFn fn) {
    return (fn == AggFn::kSum || fn == AggFn::kCount) ? AggFn::kSum : fn;
  }

  static ExprPtr PartialRef(AttrId id, AggFn fn, const ExprPtr& arg) {
    DataType t = fn == AggFn::kCount ? DataType::kInt64 : arg->type();
    return Expr::BoundColumn(id, "", "partial", "", t);
  }

  // Eager aggregation with a groupby-count correction (Yan & Larson):
  //
  //   Γ_G[f1(x), f2(y)](S ⋈ O)   with x over S, y over O
  //     => Γ_G[f1'(p1), sum(y * cnt)]( Γp_K[f1(x), count(*)](S) ⋈ O )
  //
  // where K = (G ∩ S) ∪ S's join attributes. Because every join conjunct's
  // S-attributes are in K, an O-row matches either all or none of a partial
  // group's rows, so multiplying O-side SUM/COUNT contributions by the
  // partial count is exact for any join multiplicity. This is the rewrite
  // that produces the paper's aggregate-masking plans (Fig. 1(b), Fig. 5(e)).
  void EagerAggJoin(int id) {
    const MExpr agg_expr = memo_->mexprs_[id];
    const PlanNode& agg = *agg_expr.payload;
    if (!CallsPushable(agg)) return;
    int child_group = agg_expr.child_groups[0];
    std::vector<int> members = memo_->groups_[child_group].mexprs;
    for (int join_id : members) {
      const MExpr join_expr = memo_->mexprs_[join_id];
      if (join_expr.payload->kind() != PlanKind::kJoin) continue;
      for (int side = 0; side < 2; ++side) {
        int side_group = join_expr.child_groups[side];
        int other_group = join_expr.child_groups[1 - side];
        if (memo_->groups_[side_group].summary.is_aggregate) continue;

        // Classify calls: pushable to this side vs. kept above. Kept calls
        // must be entirely on the other side and duplication-correctable.
        std::vector<AggCall> pushed;        // partial calls (side)
        std::vector<size_t> pushed_slots;   // original call index
        std::vector<size_t> kept_slots;
        bool ok = true;
        for (size_t i = 0; i < agg.agg_calls.size(); ++i) {
          const AggCall& call = agg.agg_calls[i];
          std::vector<AttrId> ids;
          call.arg->CollectAttrIds(&ids);
          if (GroupHasAttrs(side_group, ids)) {
            pushed.push_back(call);
            pushed_slots.push_back(i);
          } else if (GroupHasAttrs(other_group, ids)) {
            // SUM is corrected by *cnt; MIN/MAX are duplication-invariant.
            if (call.fn == AggFn::kCount) {
              ok = false;
              break;
            }
            kept_slots.push_back(i);
          } else {
            ok = false;  // argument spans both sides
            break;
          }
        }
        if (!ok || pushed.empty()) continue;

        // Partial keys: side-visible group keys + side join attributes.
        std::vector<AttrId> keys;
        for (AttrId g : agg.group_ids) {
          if (GroupHasAttrs(side_group, {g})) keys.push_back(g);
        }
        for (const ExprPtr& c : join_expr.payload->conjuncts) {
          std::vector<AttrId> ids;
          c->CollectAttrIds(&ids);
          for (AttrId cid : ids) {
            if (GroupHasAttrs(side_group, {cid})) keys.push_back(cid);
          }
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

        // The duplication count, needed whenever calls stay above.
        bool with_count = !kept_slots.empty();
        if (with_count) {
          pushed.push_back(
              AggCall{AggFn::kCount, Expr::Literal(Value::Int64(1))});
        }

        size_t cache_key = static_cast<size_t>(side_group) * 2654435761u;
        for (AttrId k : keys) cache_key = cache_key * 1000003u ^ k;
        for (const AggCall& c : pushed) {
          cache_key = cache_key * 1000003u ^ c.arg->Hash();
          cache_key = cache_key * 31 ^ static_cast<size_t>(c.fn);
        }
        std::vector<AttrId> out_ids = PartialOutIds(cache_key, pushed);

        auto partial = std::make_shared<PlanNode>(PlanKind::kAggregate);
        partial->is_partial_agg = true;
        partial->group_ids = keys;
        partial->agg_calls = pushed;
        partial->agg_out_ids = out_ids;
        int partial_group = memo_->InsertExpr(partial, {side_group});

        auto new_join = std::make_shared<PlanNode>(PlanKind::kJoin);
        new_join->conjuncts = join_expr.payload->conjuncts;
        std::vector<int> join_children(2);
        join_children[side] = partial_group;
        join_children[1 - side] = other_group;
        int new_join_group = memo_->InsertExpr(new_join, join_children);

        // Rewritten outer calls, slot by slot.
        std::vector<AggCall> outer_calls(agg.agg_calls.size());
        for (size_t k = 0; k < pushed_slots.size(); ++k) {
          size_t slot = pushed_slots[k];
          const AggCall& orig = agg.agg_calls[slot];
          outer_calls[slot] =
              AggCall{OuterFnOf(orig.fn),
                      PartialRef(out_ids[k], orig.fn, orig.arg),
                      orig.fn == AggFn::kCount};
        }
        ExprPtr cnt_ref;
        if (with_count) {
          cnt_ref = PartialRef(out_ids.back(), AggFn::kCount, nullptr);
        }
        for (size_t slot : kept_slots) {
          const AggCall& orig = agg.agg_calls[slot];
          if (orig.fn == AggFn::kSum) {
            outer_calls[slot] = AggCall{
                AggFn::kSum, Expr::Binary(ExprOp::kMul, orig.arg, cnt_ref)};
          } else {
            outer_calls[slot] = orig;  // MIN/MAX: duplication-invariant
          }
        }

        auto outer = std::make_shared<PlanNode>(PlanKind::kAggregate);
        outer->group_ids = agg.group_ids;
        outer->agg_calls = std::move(outer_calls);
        outer->agg_out_ids = agg.agg_out_ids;
        outer->is_partial_agg = agg.is_partial_agg;
        memo_->InsertExpr(outer, {new_join_group}, agg_expr.group);
      }
    }
  }

  // Γ(U(b1..bk)) => Γ'( U(Γp(b1)..Γp(bk)) ): per-fragment partial
  // aggregation for distributed tables (§7.5).
  void EagerAggUnion(int id) {
    const MExpr agg_expr = memo_->mexprs_[id];
    const PlanNode& agg = *agg_expr.payload;
    if (!CallsPushable(agg)) return;
    int child_group = agg_expr.child_groups[0];
    std::vector<int> members = memo_->groups_[child_group].mexprs;
    for (int union_id : members) {
      const MExpr union_expr = memo_->mexprs_[union_id];
      if (union_expr.payload->kind() != PlanKind::kUnion) continue;

      // Branches partition the rows, so plain partial aggregation per
      // branch plus a combining aggregate is exact (no count correction).
      std::vector<AttrId> keys = agg.group_ids;
      std::sort(keys.begin(), keys.end());

      size_t cache_key = static_cast<size_t>(child_group) * 0x9E3779B9u;
      for (AttrId k : keys) cache_key = cache_key * 1000003u ^ k;
      for (const AggCall& c : agg.agg_calls) {
        cache_key = cache_key * 1000003u ^ c.arg->Hash();
        cache_key = cache_key * 31 ^ static_cast<size_t>(c.fn);
      }
      std::vector<AttrId> out_ids = PartialOutIds(cache_key, agg.agg_calls);

      auto partial = std::make_shared<PlanNode>(PlanKind::kAggregate);
      partial->is_partial_agg = true;
      partial->group_ids = keys;
      partial->agg_calls = agg.agg_calls;
      partial->agg_out_ids = out_ids;

      std::vector<AggCall> outer_calls;
      for (size_t i = 0; i < agg.agg_calls.size(); ++i) {
        const AggCall& orig = agg.agg_calls[i];
        outer_calls.push_back(AggCall{
            OuterFnOf(orig.fn), PartialRef(out_ids[i], orig.fn, orig.arg),
            orig.fn == AggFn::kCount});
      }

      std::vector<int> branch_groups;
      bool ok = true;
      for (int branch : union_expr.child_groups) {
        if (memo_->groups_[branch].summary.is_aggregate) {
          ok = false;
          break;
        }
        branch_groups.push_back(memo_->InsertExpr(partial, {branch}));
      }
      if (!ok) continue;

      auto new_union = std::make_shared<PlanNode>(PlanKind::kUnion);
      int new_union_group = memo_->InsertExpr(new_union, branch_groups);

      auto outer = std::make_shared<PlanNode>(PlanKind::kAggregate);
      outer->group_ids = agg.group_ids;
      outer->agg_calls = std::move(outer_calls);
      outer->agg_out_ids = agg.agg_out_ids;
      outer->is_partial_agg = agg.is_partial_agg;
      memo_->InsertExpr(outer, {new_union_group}, agg_expr.group);
    }
  }

  Memo* memo_;
  bool enable_agg_pushdown_;
};

void Memo::Explore(bool enable_agg_pushdown) {
  RuleEngine engine(this, enable_agg_pushdown);
  engine.Run();
}

}  // namespace cgq
