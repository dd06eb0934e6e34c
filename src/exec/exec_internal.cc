#include "exec/exec_internal.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <string_view>
#include <variant>

#include "exec/vector/kernels.h"

namespace cgq {
namespace exec_internal {

Status CheckCancelled(const std::atomic<bool>* cancel) {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  return Status::OK();
}

RowLayout LayoutOf(const PlanNode& node) {
  std::vector<AttrId> ids;
  ids.reserve(node.outputs.size());
  for (const OutputCol& c : node.outputs) ids.push_back(c.id);
  return RowLayout(std::move(ids));
}

Result<std::vector<size_t>> PositionsOf(const std::vector<AttrId>& ids,
                                        const RowLayout& layout,
                                        const char* context) {
  std::vector<size_t> positions;
  positions.reserve(ids.size());
  for (AttrId id : ids) {
    size_t pos = layout.PositionOf(id);
    if (pos == RowLayout::kNotFound) {
      return Status::Internal(std::string(context) + " misses attr " +
                              std::to_string(id));
    }
    positions.push_back(pos);
  }
  return positions;
}

Result<bool> KeepRow(const std::vector<ExprPtr>& conjuncts, const Row& row,
                     const RowLayout& layout) {
  for (const ExprPtr& c : conjuncts) {
    CGQ_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*c, row, layout));
    if (!ok) return false;
  }
  return true;
}

Result<JoinSpec> JoinSpec::Make(const PlanNode& node, const RowLayout& left,
                                const RowLayout& right) {
  JoinSpec spec;

  // Split conjuncts into hash keys across the inputs and residuals.
  auto add_key = [&](AttrId l, AttrId r) {
    const size_t lp = left.PositionOf(l);
    const size_t rp = right.PositionOf(r);
    if (lp == RowLayout::kNotFound || rp == RowLayout::kNotFound) {
      return false;
    }
    spec.key_positions.emplace_back(lp, rp);
    return true;
  };
  for (const ExprPtr& c : node.conjuncts) {
    const bool is_key =
        IsHashJoinKey(*c) &&
        (add_key(c->child(0)->attr_id(), c->child(1)->attr_id()) ||
         add_key(c->child(1)->attr_id(), c->child(0)->attr_id()));
    if (!is_key) spec.residual.push_back(c);
  }

  std::vector<AttrId> ids = left.attrs();
  ids.insert(ids.end(), right.attrs().begin(), right.attrs().end());
  spec.combined = RowLayout(std::move(ids));

  // Map the node's canonical output order (which may differ from
  // left ++ right after commutes) to combined positions.
  RowLayout out = LayoutOf(node);
  CGQ_ASSIGN_OR_RETURN(spec.out_positions,
                       PositionsOf(out.attrs(), spec.combined,
                                   "join output"));
  return spec;
}

std::vector<size_t> JoinSpec::KeyColumns(bool left) const {
  std::vector<size_t> out;
  out.reserve(key_positions.size());
  for (auto [lp, rp] : key_positions) out.push_back(left ? lp : rp);
  return out;
}

Result<bool> JoinSpec::EmitIfMatch(const Row& l, const Row& r,
                                   std::vector<Row>* out) const {
  Row joined = l;
  joined.insert(joined.end(), r.begin(), r.end());
  for (const ExprPtr& c : residual) {
    CGQ_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*c, joined, combined));
    if (!ok) return false;
  }
  Row final_row(out_positions.size());
  for (size_t i = 0; i < out_positions.size(); ++i) {
    final_row[i] = joined[out_positions[i]];
  }
  out->push_back(std::move(final_row));
  return true;
}

vec::ColumnBatch Remap(vec::ColumnBatch in,
                       const std::vector<size_t>& positions,
                       const RowLayout& layout) {
  vec::ColumnBatch out;
  out.layout = layout;
  out.columns.reserve(positions.size());
  for (size_t p : positions) out.columns.push_back(in.columns[p]);
  out.sel = std::move(in.sel);
  return out;
}

void AppendRows(const vec::ColumnBatch& batch, size_t begin, size_t end,
                std::vector<vec::ColumnVector>* cols) {
  for (size_t c = 0; c < cols->size(); ++c) {
    (*cols)[c].AppendSelected(*batch.columns[c], batch.sel.data() + begin,
                              end - begin);
  }
}

namespace {

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// One key cell, whatever its column's tag: NULL, int64, double or the
/// bytes of a string. Its == is RowKey's structural equality.
using Cell = std::variant<std::monostate, int64_t, double, std::string_view>;

Cell CellAt(const vec::ColumnVector& col, size_t row) {
  if (col.tag == vec::ColumnTag::kValue) {
    const Value& v = col.vals[row];
    if (v.is_int64()) return v.int64();
    if (v.is_double()) return v.dbl();
    if (v.is_string()) return std::string_view(v.str());
    return {};
  }
  if (col.nulls.IsNull(row)) return {};
  if (col.tag == vec::ColumnTag::kInt64) return col.i64[row];
  if (col.tag == vec::ColumnTag::kDouble) return col.f64[row];
  return std::string_view(col.str[row]);
}

uint64_t HashCell(const Cell& c) {
  if (const int64_t* i = std::get_if<int64_t>(&c)) return *i;
  if (const double* d = std::get_if<double>(&c)) {
    return std::bit_cast<uint64_t>(*d == 0 ? 0.0 : *d);  // -0.0 as 0.0
  }
  if (const auto* s = std::get_if<std::string_view>(&c)) {
    return std::hash<std::string_view>()(*s);
  }
  return kGolden;  // NULL
}

}  // namespace

void KeyIndex::HashRows(const vec::ColumnBatch& batch,
                        const std::vector<size_t>& keys,
                        std::vector<uint64_t>* hashes,
                        std::vector<bool>* nulls) {
  const size_t n = batch.NumRows();
  const uint32_t* sel = batch.sel.data();
  hashes->assign(n, 0);
  nulls->assign(n, false);
  uint64_t* h = hashes->data();
  // The multiply spreads into the top bits (the table's slots), the
  // shift back into the low ones (spill partitions take a modulo).
  auto mix = [](uint64_t* acc, uint64_t cell) {
    const uint64_t m = (*acc ^ cell) * kGolden;
    *acc = m ^ (m >> 32);
  };
  for (size_t c : keys) {
    const vec::ColumnVector& col = *batch.columns[c];
    // HashCell of each typed cell, a NULL one as kGolden.
    auto typed = [&](auto cell_hash) {
      const bool any_null = col.nulls.AnyNull();
      for (size_t k = 0; k < n; ++k) {
        const uint32_t i = sel[k];
        if (any_null && col.nulls.IsNull(i)) {
          (*nulls)[k] = true;
          mix(&h[k], kGolden);
        } else {
          mix(&h[k], cell_hash(i));
        }
      }
    };
    switch (col.tag) {
      case vec::ColumnTag::kInt64:
        typed([&](uint32_t i) { return static_cast<uint64_t>(col.i64[i]); });
        break;
      case vec::ColumnTag::kDouble:
        typed([&](uint32_t i) {
          const double d = col.f64[i];
          return std::bit_cast<uint64_t>(d == 0 ? 0.0 : d);
        });
        break;
      case vec::ColumnTag::kString:
        typed([&](uint32_t i) {
          return static_cast<uint64_t>(
              std::hash<std::string_view>()(col.str[i]));
        });
        break;
      case vec::ColumnTag::kValue:
        for (size_t k = 0; k < n; ++k) {
          const Cell cell = CellAt(col, sel[k]);
          if (cell.index() == 0) (*nulls)[k] = true;
          mix(&h[k], HashCell(cell));
        }
        break;
    }
  }
}

struct KeyIndex::KeyMatch {
  /// The shared tag of the batch's and the stored key column, or kValue
  /// to compare through CellAt.
  vec::ColumnTag tag;
  const vec::ColumnVector* col;
  vec::ColumnVector* key;

  /// Appends `row`'s cell to the stored keys, typed where it compares
  /// typed (such a cell is never NULL).
  void Append(uint32_t row) const {
    switch (tag) {
      case vec::ColumnTag::kInt64:
        return key->AppendInt64(col->i64[row]);
      case vec::ColumnTag::kDouble:
        return key->AppendDouble(col->f64[row]);
      case vec::ColumnTag::kString:
        return key->AppendString(col->str[row]);
      case vec::ColumnTag::kValue:
        return key->AppendFrom(*col, row);
    }
  }

  bool Equal(uint32_t id, uint32_t row) const {
    switch (tag) {
      case vec::ColumnTag::kInt64:
        return !key->nulls.IsNull(id) && key->i64[id] == col->i64[row];
      case vec::ColumnTag::kDouble:  // -0.0 == 0.0; NaN equals nothing
        return !key->nulls.IsNull(id) && key->f64[id] == col->f64[row];
      case vec::ColumnTag::kString:
        return !key->nulls.IsNull(id) && key->str[id] == col->str[row];
      case vec::ColumnTag::kValue:
        break;
    }
    return CellAt(*key, id) == CellAt(*col, row);
  }
};

void KeyIndex::Reserve(size_t n) {
  if (2 * n <= slots_.size()) return;
  const size_t capacity = std::bit_ceil(2 * n | 16);
  slots_.assign(capacity, Entry());
  shift_ = 64 - std::countr_zero(capacity);
  for (uint32_t id = 0; id < size(); ++id) {
    size_t s = hashes_[id] >> shift_;
    while (slots_[s].id != kNone) s = (s + 1) & (capacity - 1);
    slots_[s] = {id, static_cast<uint32_t>(hashes_[id])};
  }
}

inline size_t KeyIndex::Slot(const std::vector<KeyMatch>& match,
                             uint32_t row, uint64_t hash) const {
  const uint32_t check = static_cast<uint32_t>(hash);
  for (size_t s = hash >> shift_;; s = (s + 1) & (slots_.size() - 1)) {
    const Entry e = slots_[s];
    if (e.id == kNone) return s;
    if (e.check != check) continue;
    size_t c = 0;
    while (c < match.size() && match[c].Equal(e.id, row)) ++c;
    if (c == match.size()) return s;
  }
}

void KeyIndex::Lookup(const vec::ColumnBatch& batch,
                      const std::vector<size_t>& keys, Mode mode,
                      std::vector<uint32_t>* ids) {
  std::vector<uint64_t> hashes;
  std::vector<bool> nulls;
  HashRows(batch, keys, &hashes, &nulls);
  ids->assign(batch.NumRows(), kNone);
  keys_.resize(keys.size());
  std::vector<KeyMatch> match;
  match.reserve(keys.size());
  for (size_t c = 0; c < keys.size(); ++c) {
    const vec::ColumnVector& col = *batch.columns[keys[c]];
    vec::ColumnVector& key = keys_[c];
    // Only kGroup looks NULL cells up; the other modes skip their rows.
    const bool typed = col.tag != vec::ColumnTag::kValue &&
                       (mode != Mode::kGroup || !col.nulls.AnyNull());
    // An empty key column takes the tag its first (non-NULL) cell gives.
    if (typed && key.size() == 0) key.tag = col.tag;
    match.push_back(
        {typed && key.tag == col.tag ? col.tag : vec::ColumnTag::kValue,
         &col, &key});
  }
  for (size_t k = 0; k < batch.NumRows(); ++k) {
    if (nulls[k] && mode != Mode::kGroup) continue;
    if (mode != Mode::kProbe && 2 * (size() + 1) > slots_.size()) {
      Reserve(size() + 1);
    }
    if (slots_.empty()) return;  // a probe of an empty index
    const uint32_t row = batch.sel[k];
    const size_t s = Slot(match, row, hashes[k]);
    if (slots_[s].id == kNone && mode != Mode::kProbe) {
      slots_[s] = {static_cast<uint32_t>(size()),
                   static_cast<uint32_t>(hashes[k])};
      hashes_.push_back(hashes[k]);
      for (const KeyMatch& m : match) m.Append(row);
    }
    (*ids)[k] = slots_[s].id;
  }
}

void ColumnJoinTable::Index(const vec::ColumnBatch* batches, size_t n,
                            const std::vector<size_t>& keys) {
  size_t rows = 0;
  for (size_t b = 0; b < n; ++b) rows += batches[b].NumRows();
  index_.Reserve(rows);
  std::vector<uint32_t> ids, batch_ids;
  ids.reserve(rows);
  for (size_t b = 0; b < n; ++b) {
    index_.Lookup(batches[b], keys, KeyIndex::Mode::kBuild, &batch_ids);
    ids.insert(ids.end(), batch_ids.begin(), batch_ids.end());
  }
  heads_.assign(index_.size(), KeyIndex::kNone);
  next_.resize(rows);
  // Backwards, so that each chain runs in number order.
  for (uint32_t i = static_cast<uint32_t>(rows); i-- > 0;) {
    if (ids[i] == KeyIndex::kNone) continue;
    next_[i] = heads_[ids[i]];
    heads_[ids[i]] = i;
  }
}

Status ColumnJoinTable::Match(const vec::ColumnBatch& probe,
                              const std::vector<size_t>& keys,
                              const std::atomic<bool>* cancel,
                              vec::SelVec* built, vec::SelVec* probed) {
  std::vector<uint32_t> ids;
  index_.Lookup(probe, keys, KeyIndex::Mode::kProbe, &ids);
  for (size_t k = 0; k < probe.NumRows(); ++k) {
    if ((k & 0x3ff) == 0) CGQ_RETURN_NOT_OK(CheckCancelled(cancel));
    if (ids[k] == KeyIndex::kNone) continue;
    for (uint32_t i = heads_[ids[k]]; i != KeyIndex::kNone; i = next_[i]) {
      built->push_back(i);
      probed->push_back(probe.sel[k]);
    }
  }
  return Status::OK();
}

Status ColumnJoinTable::FlippedMatches(
    const vec::ColumnBatch& left, const std::vector<vec::ColumnBatch>& right,
    const JoinSpec& spec, const std::atomic<bool>* cancel,
    std::vector<vec::SelVec>* li, std::vector<vec::SelVec>* ri) {
  ColumnJoinTable table;
  table.Index(right.data(), right.size(), spec.KeyColumns(/*left=*/false));
  // Pairs (right row number, left row), left rows in input order.
  vec::SelVec rights, lefts;
  CGQ_RETURN_NOT_OK(table.Match(left, spec.KeyColumns(/*left=*/true), cancel,
                                &rights, &lefts));
  // Stable counting sort by right row number: per right row, its left
  // rows stay in input order, the build order of the unflipped join.
  const size_t num_right = table.next_.size();
  std::vector<uint32_t> start(num_right + 1, 0);
  for (uint32_t r : rights) ++start[r + 1];
  for (size_t r = 0; r < num_right; ++r) start[r + 1] += start[r];
  // Batch b's rows are numbered from first[b]; once sorted, its pairs
  // take places [start[first[b]], start[first[b + 1]]).
  std::vector<uint32_t> first(right.size() + 1, 0);
  std::vector<uint32_t> batch_start(right.size());
  std::vector<uint32_t> batch_of(num_right);
  li->assign(right.size(), {});
  ri->assign(right.size(), {});
  for (size_t b = 0; b < right.size(); ++b) {
    first[b + 1] = first[b] + static_cast<uint32_t>(right[b].NumRows());
    std::fill(batch_of.begin() + first[b], batch_of.begin() + first[b + 1],
              static_cast<uint32_t>(b));
    batch_start[b] = start[first[b]];
    (*li)[b].resize(start[first[b + 1]] - batch_start[b]);
    (*ri)[b].resize((*li)[b].size());
  }
  for (size_t k = 0; k < rights.size(); ++k) {
    const uint32_t r = rights[k];
    const uint32_t b = batch_of[r];
    const uint32_t place = start[r]++ - batch_start[b];
    (*li)[b][place] = lefts[k];
    (*ri)[b][place] = right[b].sel[r - first[b]];
  }
  return Status::OK();
}

JoinGather::JoinGather(const JoinSpec& spec) : residual_(spec.residual) {
  constexpr size_t kUnused = static_cast<size_t>(-1);
  std::vector<size_t> to_gathered(spec.combined.size(), kUnused);
  auto require = [&](size_t pos) {
    if (to_gathered[pos] == kUnused) {
      to_gathered[pos] = gathered_.size();
      gathered_.push_back(pos);
    }
  };
  for (size_t p : spec.out_positions) require(p);
  std::vector<AttrId> residual_ids;
  for (const ExprPtr& c : residual_) c->CollectAttrIds(&residual_ids);
  for (AttrId id : residual_ids) {
    size_t pos = spec.combined.PositionOf(id);
    if (pos != RowLayout::kNotFound) require(pos);
  }
  std::vector<AttrId> gathered_attrs;
  gathered_attrs.reserve(gathered_.size());
  for (size_t pos : gathered_) {
    gathered_attrs.push_back(spec.combined.attrs()[pos]);
  }
  gathered_layout_ = RowLayout(std::move(gathered_attrs));
  std::vector<AttrId> out_attrs;
  out_attrs.reserve(spec.out_positions.size());
  for (size_t p : spec.out_positions) {
    out_columns_.push_back(to_gathered[p]);
    out_attrs.push_back(spec.combined.attrs()[p]);
  }
  out_layout_ = RowLayout(std::move(out_attrs));
}

Result<vec::ColumnBatch> JoinGather::Gather(const vec::ColumnBatch& build,
                                            const vec::ColumnBatch& probe,
                                            const vec::SelVec& li,
                                            const vec::SelVec& ri) const {
  const size_t left_cols = build.NumColumns();
  vec::ColumnBatch matched;
  matched.layout = gathered_layout_;
  matched.columns.reserve(gathered_.size());
  for (size_t pos : gathered_) {
    const vec::ColumnVector& src = pos < left_cols
                                       ? *build.columns[pos]
                                       : *probe.columns[pos - left_cols];
    matched.columns.push_back(
        vec::MakeColumn(src.Gather(pos < left_cols ? li : ri)));
  }
  matched.sel = vec::RangeSel(0, li.size());
  if (!residual_.empty()) {
    vec::SelVec keep = std::move(matched.sel);
    CGQ_RETURN_NOT_OK(vec::FilterSel(residual_, matched, &keep));
    matched.sel = std::move(keep);
  }
  return Remap(std::move(matched), out_columns_, out_layout_);
}

void JoinHashTable::Build(const std::vector<Row>& left,
                          const JoinSpec& spec) {
  left_ = &left;
  table_.clear();
  table_.reserve(left.size());
  for (size_t i = 0; i < left.size(); ++i) {
    RowKey key;
    bool has_null = false;
    for (auto [lp, rp] : spec.key_positions) {
      has_null |= left[i][lp].is_null();
      key.values.push_back(left[i][lp]);
    }
    if (!has_null) table_[std::move(key)].push_back(i);
  }
}

Status HashAggregator::Init(const RowLayout& in_layout) {
  in_layout_ = in_layout;
  CGQ_ASSIGN_OR_RETURN(group_positions_,
                       PositionsOf(node_->group_ids, in_layout_,
                                   "aggregate input"));
  return Status::OK();
}

Status HashAggregator::Add(const Row& row) {
  RowKey key;
  for (size_t p : group_positions_) key.values.push_back(row[p]);
  auto it = group_index_.find(key);
  if (it == group_index_.end()) {
    GroupState state;
    state.key = key.values;
    for (const AggCall& call : node_->agg_calls) {
      state.accs.emplace_back(call);
    }
    it = group_index_.emplace(std::move(key), groups_.size()).first;
    groups_.push_back(std::move(state));
  }
  GroupState& state = groups_[it->second];
  for (size_t i = 0; i < node_->agg_calls.size(); ++i) {
    CGQ_ASSIGN_OR_RETURN(
        Value v, EvalExpr(*node_->agg_calls[i].arg, row, in_layout_));
    CGQ_RETURN_NOT_OK(state.accs[i].Add(v));
  }
  return Status::OK();
}

std::vector<Row> HashAggregator::Finish() {
  if (groups_.empty() && node_->group_ids.empty()) {
    GroupState state;
    for (const AggCall& call : node_->agg_calls) {
      state.accs.emplace_back(call);
    }
    groups_.push_back(std::move(state));
  }
  std::vector<Row> out;
  out.reserve(groups_.size());
  for (GroupState& state : groups_) {
    Row row = std::move(state.key);
    for (const AggAccumulator& acc : state.accs) {
      row.push_back(acc.Finish());
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace exec_internal
}  // namespace cgq
