#include "core/policy.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/str_util.h"
#include "plan/binder.h"
#include "plan/planner_context.h"
#include "sql/parser.h"

namespace cgq {

namespace {

// Every element of `sub` appears in `super` (attribute lists are short and
// lower-cased, so linear find beats any set machinery).
bool StringsSubset(const std::vector<std::string>& sub,
                   const std::vector<std::string>& super) {
  for (const std::string& s : sub) {
    if (std::find(super.begin(), super.end(), s) == super.end()) return false;
  }
  return true;
}

// Bit mask of every column ref in the subtree. `*ok` is cleared when a ref
// cannot be mapped to a schema bit (unknown column, index >= 64).
uint64_t SubtreeColumnMask(const Expr& e, const Schema& schema, bool* ok) {
  if (e.op() == ExprOp::kColumnRef) {
    std::optional<size_t> i = schema.IndexOf(e.column());
    if (!i || *i >= 64) {
      *ok = false;
      return 0;
    }
    return uint64_t{1} << *i;
  }
  uint64_t mask = 0;
  for (const ExprPtr& c : e.children()) {
    mask |= SubtreeColumnMask(*c, schema, ok);
  }
  return mask;
}

void FlattenOr(const Expr& e, std::vector<const Expr*>* branches) {
  if (e.op() == ExprOp::kOr) {
    FlattenOr(*e.child(0), branches);
    FlattenOr(*e.child(1), branches);
    return;
  }
  branches->push_back(&e);
}

// Columns the premise must mention for this conclusion conjunct to be
// implied (absent a contradictory premise): a non-OR atom is only implied
// through constraints or structural matches on its own columns; an OR atom
// is implied when any one branch is, so only the columns common to every
// branch are truly required.
uint64_t ConjunctRequiredMask(const Expr& c, const Schema& schema, bool* ok) {
  if (c.op() != ExprOp::kOr) return SubtreeColumnMask(c, schema, ok);
  std::vector<const Expr*> branches;
  FlattenOr(c, &branches);
  uint64_t required = ~uint64_t{0};
  for (const Expr* b : branches) {
    required &= SubtreeColumnMask(*b, schema, ok);
  }
  return required;
}

// FNV-1a accumulator over fixed-width words and terminated strings.
struct Fnv64 {
  uint64_t h = 14695981039346656037ULL;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void MixStr(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // terminator, so {"ab","c"} != {"a","bc"}
    h *= 1099511628211ULL;
  }
};

// Seed of a (location, table) fingerprint, so distinct empty dependency
// sets still hash apart.
uint64_t PairSeed(LocationId location, const std::string& table) {
  Fnv64 f;
  f.Mix(location);
  f.MixStr(table);
  return f.h;
}

// PolicyExpression::content_fp. The splitmix64 finish decorrelates the
// bits of related expressions, so their sum in a pair fingerprint does
// not cancel structurally.
uint64_t ContentFingerprint(const PolicyExpression& e) {
  Fnv64 f;
  f.Mix(e.predicate_fp.hi);
  f.Mix(e.predicate_fp.lo);
  f.Mix(e.to.bits());
  f.Mix(static_cast<uint64_t>(e.attributes.size()));
  for (const std::string& a : e.attributes) f.MixStr(a);
  f.Mix(static_cast<uint64_t>(e.agg_fns.size()));
  for (AggFn fn : e.agg_fns) f.Mix(static_cast<uint64_t>(fn));
  f.Mix(static_cast<uint64_t>(e.group_by.size()));
  for (const std::string& g : e.group_by) f.MixStr(g);
  uint64_t z = f.h + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Fills predicate_fp, content_fp and all column bitmasks of `expr`.
void ComputeDerived(const Catalog& catalog, PolicyExpression* expr) {
  expr->predicate_fp = FingerprintConjuncts(expr->predicate);
  expr->content_fp = ContentFingerprint(*expr);
  expr->ship_mask = 0;
  expr->group_mask = 0;
  expr->masks_valid = false;
  expr->pred_mask = 0;
  expr->pred_mask_valid = false;
  auto def = catalog.GetTable(expr->table);
  if (!def.ok()) return;
  const Schema& schema = (*def)->schema;
  bool ok = true;
  auto to_mask = [&](const std::vector<std::string>& cols, uint64_t* mask) {
    for (const std::string& c : cols) {
      std::optional<size_t> i = schema.IndexOf(c);
      if (!i || *i >= 64) {
        ok = false;
        return;
      }
      *mask |= uint64_t{1} << *i;
    }
  };
  to_mask(expr->attributes, &expr->ship_mask);
  to_mask(expr->group_by, &expr->group_mask);
  expr->masks_valid = ok;

  bool pred_ok = true;
  uint64_t pred_mask = 0;
  for (const ExprPtr& c : expr->predicate) {
    pred_mask |= ConjunctRequiredMask(*c, schema, &pred_ok);
  }
  expr->pred_mask = pred_ok ? pred_mask : 0;
  expr->pred_mask_valid = pred_ok;
}

}  // namespace

bool PolicyExpression::HasShipAttribute(const std::string& column) const {
  return std::find(attributes.begin(), attributes.end(), column) !=
         attributes.end();
}

bool PolicyExpression::HasGroupAttribute(const std::string& column) const {
  return std::find(group_by.begin(), group_by.end(), column) !=
         group_by.end();
}

bool PolicyExpression::AllowsAggFn(AggFn fn) const {
  return std::find(agg_fns.begin(), agg_fns.end(), fn) != agg_fns.end();
}

std::string PolicyExpression::ToString(
    const LocationCatalog& locations) const {
  std::string out = "ship " + Join(attributes, ", ");
  if (is_aggregate()) {
    out += " as aggregates ";
    for (size_t i = 0; i < agg_fns.size(); ++i) {
      if (i > 0) out += ", ";
      out += ToLower(AggFnToString(agg_fns[i]));
    }
  }
  out += " from " + table + " to ";
  if (to == locations.All()) {
    out += "*";
  } else {
    std::vector<std::string> names;
    for (LocationId l : to.ToVector()) names.push_back(locations.GetName(l));
    out += Join(names, ", ");
  }
  if (!predicate.empty()) {
    out += " where ";
    for (size_t i = 0; i < predicate.size(); ++i) {
      if (i > 0) out += " and ";
      out += predicate[i]->ToString();
    }
  }
  if (!group_by.empty()) {
    out += " group by " + Join(group_by, ", ");
  }
  return out;
}

bool PolicySubsumes(const PolicyExpression& super,
                    const PolicyExpression& sub) {
  if (super.table != sub.table) return false;
  if (!sub.to.IsSubsetOf(super.to)) return false;
  if (super.is_aggregate() || sub.is_aggregate()) return false;
  if (!StringsSubset(sub.attributes, super.attributes)) return false;
  // sub's rows must all satisfy super's condition: P_sub ⟹ P_super.
  return PredicateImplies(sub.predicate, super.predicate);
}

Status PolicyCatalog::set_index_mode(PolicyIndexMode mode) {
  if (TotalCount() != 0) {
    return Status::InvalidArgument(
        "policy index mode can only change while the catalog is empty");
  }
  mode_ = mode;
  return Status::OK();
}

Status PolicyCatalog::AddPolicyText(const std::string& location_name,
                                    const std::string& text) {
  CGQ_ASSIGN_OR_RETURN(LocationId location,
                       catalog_->locations().GetId(location_name));
  CGQ_ASSIGN_OR_RETURN(PolicyExprAst ast, ParsePolicyExpression(text));

  CGQ_ASSIGN_OR_RETURN(const TableDef* table, catalog_->GetTable(ast.table));

  PolicyExpression expr;
  expr.table = table->name;

  if (ast.ship_all) {
    for (const ColumnDef& col : table->schema.columns()) {
      expr.attributes.push_back(ToLower(col.name));
    }
  } else {
    for (const std::string& attr : ast.attributes) {
      if (!table->schema.IndexOf(attr)) {
        return Status::InvalidArgument("policy references unknown column '" +
                                       attr + "' of table '" + expr.table +
                                       "'");
      }
      expr.attributes.push_back(attr);
    }
  }

  expr.agg_fns = ast.agg_fns;
  if (!ast.group_by.empty() && ast.agg_fns.empty()) {
    return Status::InvalidArgument(
        "GROUP BY requires an AS AGGREGATES clause");
  }
  for (const std::string& g : ast.group_by) {
    if (!table->schema.IndexOf(g)) {
      return Status::InvalidArgument("policy GROUP BY references unknown "
                                     "column '" + g + "'");
    }
    expr.group_by.push_back(g);
  }

  if (ast.to_all) {
    expr.to = catalog_->locations().All();
  } else {
    for (const std::string& name : ast.to_locations) {
      CGQ_ASSIGN_OR_RETURN(LocationId l, catalog_->locations().GetId(name));
      expr.to.Add(l);
    }
  }

  if (ast.where != nullptr) {
    PlannerContext ctx(catalog_);
    CGQ_RETURN_NOT_OK(ctx.AddInstance(ast.alias, ast.table).status());
    CGQ_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(ast.where, ctx));
    expr.predicate = SplitConjuncts(bound);
  }

  return AddPolicy(location, std::move(expr));
}

void PolicyCatalog::EnsureLocation(LocationId location) {
  if (by_location_.size() <= location) by_location_.resize(location + 1);
  if (table_index_.size() <= location) table_index_.resize(location + 1);
  if (bucket_index_.size() <= location) bucket_index_.resize(location + 1);
}

Status PolicyCatalog::AddPolicy(LocationId location, PolicyExpression expr) {
  if (location >= catalog_->locations().num_locations()) {
    return Status::InvalidArgument("unknown location id " +
                                   std::to_string(location));
  }
  EnsureLocation(location);
  ComputeDerived(*catalog_, &expr);
  expr.id = next_id_++;

  std::vector<PolicyExpression>& exprs = by_location_[location];
  exprs.push_back(std::move(expr));
  const size_t index = exprs.size() - 1;
  const PolicyExpression& added = exprs[index];
  auto [pair, created] = table_index_[location].try_emplace(added.table);
  if (created) pair->second.fingerprint = PairSeed(location, added.table);
  pair->second.indices.push_back(index);
  pair->second.fingerprint += added.content_fp;
  if (mode_ == PolicyIndexMode::kHierarchical) IndexBucket(location, index);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status PolicyCatalog::RemovePolicy(int64_t id) {
  for (LocationId loc = 0; loc < by_location_.size(); ++loc) {
    std::vector<PolicyExpression>& exprs = by_location_[loc];
    for (size_t i = 0; i < exprs.size(); ++i) {
      if (exprs[i].id != id) continue;
      table_index_[loc][exprs[i].table].fingerprint -= exprs[i].content_fp;
      exprs.erase(exprs.begin() + static_cast<ptrdiff_t>(i));
      // Stored indices after `i` all shifted down by one.
      RebuildIndexes(loc);
      epoch_.fetch_add(1, std::memory_order_acq_rel);
      return Status::OK();
    }
  }
  return Status::NotFound("no policy with id " + std::to_string(id));
}

void PolicyCatalog::IndexBucket(LocationId location, size_t index) {
  const PolicyExpression& e = by_location_[location][index];
  TableBuckets& tb = bucket_index_[location][e.table];
  if (!e.masks_valid) {
    tb.unmaskable.push_back(index);
    return;
  }
  const uint64_t sig = e.ship_mask | e.group_mask;
  const uint64_t pred = e.pred_mask_valid ? e.pred_mask : 0;
  for (Bucket& b : tb.buckets) {
    if (b.signature == sig && b.pred_mask == pred &&
        b.pred_valid == e.pred_mask_valid) {
      b.entries.push_back(index);
      return;
    }
  }
  tb.buckets.push_back(Bucket{sig, pred, e.pred_mask_valid, {index}});
}

void PolicyCatalog::RebuildIndexes(LocationId location) {
  auto& index = table_index_[location];
  for (auto& [table, pair] : index) pair.indices.clear();
  bucket_index_[location].clear();
  const std::vector<PolicyExpression>& exprs = by_location_[location];
  for (size_t i = 0; i < exprs.size(); ++i) {
    index[exprs[i].table].indices.push_back(i);
    if (mode_ == PolicyIndexMode::kHierarchical) IndexBucket(location, i);
  }
}

uint64_t PolicyCatalog::TablePolicyFingerprint(
    LocationId location, const std::string& table) const {
  const TablePolicies* pair = FindPair(location, table);
  const uint64_t h =
      pair != nullptr ? pair->fingerprint : PairSeed(location, table);
  return h == 0 ? 1 : h;  // reserve 0 for "not computed"
}

const PolicyCatalog::TablePolicies* PolicyCatalog::FindPair(
    LocationId location, const std::string& table) const {
  if (location >= table_index_.size()) return nullptr;
  auto it = table_index_[location].find(table);
  return it != table_index_[location].end() ? &it->second : nullptr;
}

const std::vector<PolicyExpression>& PolicyCatalog::For(
    LocationId location) const {
  static const std::vector<PolicyExpression> kEmpty;
  if (location >= by_location_.size()) return kEmpty;
  return by_location_[location];
}

const std::vector<size_t>& PolicyCatalog::ForTable(
    LocationId location, const std::string& table) const {
  static const std::vector<size_t> kEmpty;
  const TablePolicies* pair = FindPair(location, table);
  return pair != nullptr ? pair->indices : kEmpty;
}

void PolicyCatalog::AppendCandidates(LocationId location,
                                     const std::string& table,
                                     uint64_t query_mask, bool mask_exact,
                                     uint64_t premise_cap,
                                     bool premise_capped,
                                     std::vector<size_t>* out,
                                     size_t* prefiltered) const {
  if (mode_ == PolicyIndexMode::kFlat) {
    const std::vector<size_t>& in_table = ForTable(location, table);
    out->insert(out->end(), in_table.begin(), in_table.end());
    return;
  }
  if (location >= bucket_index_.size()) return;
  auto it = bucket_index_[location].find(table);
  if (it == bucket_index_[location].end()) return;
  const TableBuckets& tb = it->second;
  for (const Bucket& b : tb.buckets) {
    if (mask_exact && (b.signature & query_mask) == 0) continue;
    if (b.pred_valid && premise_capped && (b.pred_mask & ~premise_cap) != 0) {
      // The shared predicate needs a column some (non-contradictory)
      // instance premise never constrains: P_q ⟹ P_e fails for every
      // entry, none can grant anything.
      if (prefiltered != nullptr) *prefiltered += b.entries.size();
      continue;
    }
    out->insert(out->end(), b.entries.begin(), b.entries.end());
  }
  out->insert(out->end(), tb.unmaskable.begin(), tb.unmaskable.end());
}

std::optional<LocationSet> PolicyCatalog::FindEvalMemo(uint64_t a,
                                                       uint64_t b) const {
  const EvalShard& shard = eval_shards_[a % kMemoShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(MemoKey{a, b});
  if (it == shard.map.end()) return std::nullopt;
  return it->second;
}

void PolicyCatalog::StoreEvalMemo(uint64_t a, uint64_t b,
                                  LocationSet legal) const {
  EvalShard& shard = eval_shards_[a % kMemoShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.size() >= kMemoShardCap) shard.map.clear();
  shard.map[MemoKey{a, b}] = legal;
}

bool PolicyCatalog::HasPoliciesFor(
    LocationId location, const std::vector<std::string>& tables) const {
  for (const std::string& t : tables) {
    if (!ForTable(location, t).empty()) return true;
  }
  return false;
}

size_t PolicyCatalog::TotalCount() const {
  size_t n = 0;
  for (const auto& v : by_location_) n += v.size();
  return n;
}

PolicyCatalog::IndexStats PolicyCatalog::Stats() const {
  IndexStats out;
  out.active = TotalCount();
  for (const auto& per_loc : table_index_) {
    for (const auto& [table, pair] : per_loc) {
      if (!pair.indices.empty()) ++out.tables;
    }
  }
  for (const auto& per_loc : bucket_index_) {
    for (const auto& [table, tb] : per_loc) {
      out.buckets += tb.buckets.size();
      for (const Bucket& b : tb.buckets) {
        out.max_bucket = std::max(out.max_bucket, b.entries.size());
      }
      out.max_bucket = std::max(out.max_bucket, tb.unmaskable.size());
    }
  }
  return out;
}

void PolicyCatalog::ShuffleBucketsForTest(uint64_t seed) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  auto shuffle = [&next](auto& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next() % i]);
    }
  };
  for (auto& per_loc : bucket_index_) {
    for (auto& [table, tb] : per_loc) {
      shuffle(tb.buckets);
      for (Bucket& b : tb.buckets) shuffle(b.entries);
      shuffle(tb.unmaskable);
    }
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void PolicyCatalog::Clear() {
  by_location_.clear();
  table_index_.clear();
  bucket_index_.clear();
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace cgq
