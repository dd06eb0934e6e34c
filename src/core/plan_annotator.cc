#include "core/plan_annotator.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace cgq {

double PlanAnnotator::OpCost(const MExpr& expr) const {
  const Group& g = memo_->group(expr.group);
  switch (expr.payload->kind()) {
    case PlanKind::kScan:
      return g.card.rows;
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kUnion: {
      double in = 0;
      for (int c : expr.child_groups) in += memo_->group(c).card.rows;
      return in;
    }
    case PlanKind::kJoin: {
      double in = 0;
      for (int c : expr.child_groups) in += memo_->group(c).card.rows;
      return in + g.card.rows;
    }
    case PlanKind::kAggregate:
      return memo_->group(expr.child_groups[0]).card.rows + g.card.rows;
    case PlanKind::kShip:
      return 0;
  }
  return 0;
}

LocationSet PlanAnnotator::Ar4Trait(int group_id, LocationSet sources) {
  Group& g = memo_->group(group_id);
  // AR4 needs a single-block expression over exactly one database. The
  // database is a property of the chosen plan (replicas!), so it is keyed
  // per winner's source set rather than per group.
  if (!g.summary.spg_valid || sources.Count() != 1) return LocationSet();
  LocationId db = sources.ToVector().front();
  auto it = g.ar4_cache.find(db);
  if (it != g.ar4_cache.end()) {
    ++rules_.ar4_cache_hits;
    return it->second;
  }
  ++rules_.ar4_evaluations;
  LocationSet result = evaluator_->Evaluate(g.summary, db);
  g.ar4_cache.emplace(db, result);
  return result;
}

void PlanAnnotator::PrewarmAr4(int root_group) {
  // Candidate single-database sources per group, bottom-up over the memo
  // DAG: a scan can be sourced at its fragment's site; a composite can be
  // entirely sourced at db d only when every child can. The union over a
  // group's alternatives covers every `sources` set (of size 1) a winner of
  // that group can carry, so every Ar4Trait call the search makes is
  // prewarmed.
  std::vector<LocationSet> single_db(memo_->num_groups());
  std::vector<char> computed(memo_->num_groups(), 0);
  auto sources_of = [&](auto&& self, int gid) -> LocationSet {
    if (computed[gid]) return single_db[gid];
    computed[gid] = 1;  // groups form a DAG, no cycles
    LocationSet s;
    for (int expr_id : memo_->group(gid).mexprs) {
      const MExpr& expr = memo_->mexpr(expr_id);
      if (expr.child_groups.empty()) {
        if (expr.payload->kind() == PlanKind::kScan) {
          s.Add(expr.payload->scan_location);
        }
        continue;
      }
      LocationSet inter = memo_->ctx()->catalog().locations().All();
      for (int c : expr.child_groups) {
        inter = inter.Intersect(self(self, c));
        if (inter.empty()) break;
      }
      s = s.Union(inter);
    }
    single_db[gid] = s;
    return s;
  };
  sources_of(sources_of, root_group);

  struct Item {
    int group;
    LocationId db;
  };
  std::vector<Item> items;
  const PolicyCatalog* policies = evaluator_->policies();
  std::vector<std::string> group_tables;
  for (size_t gid = 0; gid < memo_->num_groups(); ++gid) {
    Group& g = memo_->group(static_cast<int>(gid));
    if (!computed[gid] || !g.summary.spg_valid) continue;
    group_tables.clear();
    for (const auto& [alias, table] : g.summary.alias_tables) {
      group_tables.push_back(table);
    }
    for (LocationId db : single_db[gid].ToVector()) {
      if (g.ar4_cache.find(db) != g.ar4_cache.end()) continue;
      if (!policies->HasPoliciesFor(db, group_tables)) {
        // No expression governs any of the group's tables at db, so 𝒜 is
        // identically empty — cache the rejection without a walk.
        g.ar4_cache.emplace(db, LocationSet());
        ++rules_.ar4_prewarm_skips;
        continue;
      }
      items.push_back({static_cast<int>(gid), db});
    }
  }
  if (items.empty()) return;

  // Each task writes only its result slot; the group caches are filled
  // sequentially afterwards (unordered_map insertion is not thread-safe).
  // Workers do not inherit the caller's trace context, so it is
  // re-installed per item; the item ordinal keeps the span order
  // deterministic under any scheduling.
  TraceSession* trace = TraceSession::Current();
  int64_t trace_parent = TraceSession::CurrentSpanId();
  int trace_track = TraceSession::CurrentTrack();
  std::vector<LocationSet> results(items.size());
  pool_->ParallelFor(items.size(), static_cast<size_t>(width_), [&](size_t i) {
    ScopedTraceContext ctx(trace, trace_parent, trace_track);
    TraceSpan item_span("ar4_item", static_cast<int>(i));
    item_span.AddArg("group", items[i].group);
    item_span.AddArg("db", static_cast<int64_t>(items[i].db));
    results[i] =
        evaluator_->Evaluate(memo_->group(items[i].group).summary, items[i].db);
  });
  for (size_t i = 0; i < items.size(); ++i) {
    memo_->group(items[i].group).ar4_cache.emplace(items[i].db, results[i]);
  }
}

void PlanAnnotator::AddWinner(std::vector<Winner>* winners,
                              Winner candidate) const {
  // Dominance: an existing winner with superset traits, lower-or-equal
  // cost and the *same* source set makes the candidate useless, and vice
  // versa. Sources must match because ancestors' AR4 depends on them.
  for (const Winner& w : *winners) {
    if (candidate.ship_trait.IsSubsetOf(w.ship_trait) &&
        candidate.exec_trait.IsSubsetOf(w.exec_trait) &&
        w.sources == candidate.sources && w.cost <= candidate.cost) {
      return;
    }
  }
  winners->erase(
      std::remove_if(winners->begin(), winners->end(),
                     [&](const Winner& w) {
                       return w.ship_trait.IsSubsetOf(candidate.ship_trait) &&
                              w.exec_trait.IsSubsetOf(candidate.exec_trait) &&
                              w.sources == candidate.sources &&
                              candidate.cost <= w.cost;
                     }),
      winners->end());
  winners->push_back(std::move(candidate));
  if (winners->size() > kMaxWinnersPerGroup) {
    std::sort(winners->begin(), winners->end(),
              [](const Winner& a, const Winner& b) { return a.cost < b.cost; });
    winners->resize(kMaxWinnersPerGroup);
  }
}

const std::vector<Winner>& PlanAnnotator::Winners(int group_id) {
  Group& g = memo_->group(group_id);
  if (g.winners_computed) return g.winners;
  g.winners_computed = true;  // set first: groups form a DAG, no cycles

  const LocationSet all = memo_->ctx()->catalog().locations().All();

  for (int expr_id : g.mexprs) {
    const MExpr& expr = memo_->mexpr(expr_id);
    double op_cost = OpCost(expr);

    if (mode_ == Mode::kCostOnly) {
      // Traditional baseline: single cheapest plan; scans stay pinned to
      // their fragment's site, everything else may run anywhere.
      double cost = op_cost;
      std::vector<int> child_idx;
      bool ok = true;
      for (int c : expr.child_groups) {
        const std::vector<Winner>& cw = Winners(c);
        if (cw.empty()) {
          ok = false;
          break;
        }
        // Single winner in this mode.
        child_idx.push_back(0);
        cost += cw[0].cost;
      }
      if (!ok) continue;
      Winner w;
      w.exec_trait = expr.payload->kind() == PlanKind::kScan
                         ? LocationSet::Single(expr.payload->scan_location)
                         : all;
      w.ship_trait = all;
      w.cost = cost;
      w.mexpr = expr_id;
      w.child_winners = std::move(child_idx);
      if (g.winners.empty() || w.cost < g.winners[0].cost) {
        g.winners.assign(1, std::move(w));
      }
      continue;
    }

    // Compliant mode: enumerate combinations of child winners.
    if (expr.child_groups.empty()) {
      ++rules_.ar1_leaves;
      ++rules_.ar3_unions;
      Winner w;
      w.exec_trait = LocationSet::Single(expr.payload->scan_location);  // AR1
      w.sources = w.exec_trait;
      w.ship_trait =
          w.exec_trait.Union(Ar4Trait(group_id, w.sources));  // AR3 + AR4
      w.cost = op_cost;
      w.mexpr = expr_id;
      AddWinner(&g.winners, std::move(w));
      continue;
    }

    std::vector<const std::vector<Winner>*> child_winners;
    bool feasible = true;
    for (int c : expr.child_groups) {
      const std::vector<Winner>& cw = Winners(c);
      if (cw.empty()) {
        feasible = false;
        break;
      }
      child_winners.push_back(&cw);
    }
    if (!feasible) continue;

    // Odometer over child winner combinations (bounded: a UNION over many
    // fragments with rich frontiers could otherwise explode).
    constexpr size_t kMaxCombos = 100000;
    size_t combos = 0;
    std::vector<size_t> idx(expr.child_groups.size(), 0);
    while (combos++ < kMaxCombos) {
      LocationSet exec = all;
      LocationSet sources;
      double cost = op_cost;
      for (size_t i = 0; i < idx.size(); ++i) {
        const Winner& cw = (*child_winners[i])[idx[i]];
        exec = exec.Intersect(cw.ship_trait);  // AR2
        sources = sources.Union(cw.sources);
        cost += cw.cost;
      }
      ++rules_.ar2_intersections;
      if (!exec.empty()) {  // compliance-based cost function: ∞ otherwise
        ++rules_.ar3_unions;
        Winner w;
        w.exec_trait = exec;
        w.sources = sources;
        w.ship_trait = exec.Union(Ar4Trait(group_id, sources));  // AR3+AR4
        w.cost = cost;
        w.mexpr = expr_id;
        w.child_winners.assign(idx.begin(), idx.end());
        AddWinner(&g.winners, std::move(w));
      }
      // Advance the odometer.
      size_t k = 0;
      while (k < idx.size()) {
        if (++idx[k] < child_winners[k]->size()) break;
        idx[k] = 0;
        ++k;
      }
      if (k == idx.size()) break;
    }
  }
  return g.winners;
}

namespace {

// Implementation rule: physical join selection. Hash whenever a
// conjunct is a hash key across the two inputs; nested loop otherwise.
JoinMethod ChooseJoinMethod(const PlanNode& join) {
  auto side_has = [&](size_t side, AttrId id) {
    for (const OutputCol& c : join.child(side)->outputs) {
      if (c.id == id) return true;
    }
    return false;
  };
  for (const ExprPtr& c : join.conjuncts) {
    if (!IsHashJoinKey(*c)) continue;
    AttrId a = c->child(0)->attr_id();
    AttrId b = c->child(1)->attr_id();
    if ((side_has(0, a) && side_has(1, b)) ||
        (side_has(0, b) && side_has(1, a))) {
      return JoinMethod::kHash;
    }
  }
  return JoinMethod::kNestedLoop;
}

}  // namespace

PlanNodePtr PlanAnnotator::Extract(int group_id, const Winner& winner) {
  const Group& g = memo_->group(group_id);
  const MExpr& expr = memo_->mexpr(winner.mexpr);
  auto node = std::make_shared<PlanNode>(*expr.payload);
  node->children().clear();
  for (size_t i = 0; i < expr.child_groups.size(); ++i) {
    int cg = expr.child_groups[i];
    const Winner& cw = memo_->group(cg).winners[winner.child_winners[i]];
    node->children().push_back(Extract(cg, cw));
  }
  if (node->kind() == PlanKind::kJoin) {
    node->join_method = ChooseJoinMethod(*node);
  }
  node->outputs = g.outputs;
  node->exec_trait = winner.exec_trait;
  node->ship_trait = winner.ship_trait;
  node->est_rows = g.card.rows;
  node->est_row_bytes = g.card.row_bytes;
  node->local_cost = winner.cost;
  return node;
}

Result<PlanNodePtr> PlanAnnotator::BestPlan(int root_group,
                                            LocationSet required_result) {
  if (mode_ == Mode::kCompliant && pool_ != nullptr && width_ > 1) {
    TraceSpan prewarm_span("annotate.prewarm_ar4");
    PrewarmAr4(root_group);
  }
  TraceSpan search_span("annotate.search");
  const std::vector<Winner>& winners = Winners(root_group);
  search_span.AddArg("root_winners", static_cast<int64_t>(winners.size()));
  search_span.End();
  // Retrospective per-rule attribution: one marker span per annotation
  // rule with its application count, in rule order.
  {
    TraceSpan ar1("rule.AR1");
    ar1.AddArg("applications", rules_.ar1_leaves);
  }
  {
    TraceSpan ar2("rule.AR2");
    ar2.AddArg("applications", rules_.ar2_intersections);
  }
  {
    TraceSpan ar3("rule.AR3");
    ar3.AddArg("applications", rules_.ar3_unions);
  }
  {
    TraceSpan ar4("rule.AR4");
    ar4.AddArg("applications", rules_.ar4_evaluations);
    ar4.AddArg("cache_hits", rules_.ar4_cache_hits);
    ar4.AddArg("prewarm_skips", rules_.ar4_prewarm_skips);
  }
  const Winner* best = nullptr;
  for (const Winner& w : winners) {
    if (!required_result.empty() &&
        w.ship_trait.Intersect(required_result).empty()) {
      continue;  // this alternative cannot deliver the result there
    }
    if (best == nullptr || w.cost < best->cost) best = &w;
  }
  if (best == nullptr) {
    return Status::NonCompliant(
        winners.empty()
            ? "no compliant execution plan exists for this query under "
              "the current dataflow policies"
            : "no compliant execution plan can deliver the result at the "
              "required location(s)");
  }
  return Extract(root_group, *best);
}

}  // namespace cgq
