#include "exec/exec_internal.h"

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

  // Split conjuncts into equi-pairs usable as hash keys and residuals.
  for (const ExprPtr& c : node.conjuncts) {
    bool is_key = false;
    if (c->op() == ExprOp::kEq && c->child(0)->op() == ExprOp::kColumnRef &&
        c->child(1)->op() == ExprOp::kColumnRef) {
      AttrId a = c->child(0)->attr_id();
      AttrId b = c->child(1)->attr_id();
      size_t la = left.PositionOf(a);
      size_t rb = right.PositionOf(b);
      if (la != RowLayout::kNotFound && rb != RowLayout::kNotFound) {
        spec.key_positions.emplace_back(la, rb);
        is_key = true;
      } else {
        size_t lb = left.PositionOf(b);
        size_t ra = right.PositionOf(a);
        if (lb != RowLayout::kNotFound && ra != RowLayout::kNotFound) {
          spec.key_positions.emplace_back(lb, ra);
          is_key = true;
        }
      }
    }
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
    const vec::ColumnVector& src = *batch.columns[c];
    vec::ColumnVector& dst = (*cols)[c];
    for (size_t k = begin; k < end; ++k) dst.AppendFrom(src, batch.sel[k]);
  }
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
      state.accs.emplace_back(call.fn);
    }
    it = group_index_.emplace(std::move(key), groups_.size()).first;
    groups_.push_back(std::move(state));
  }
  GroupState& state = groups_[it->second];
  for (size_t i = 0; i < node_->agg_calls.size(); ++i) {
    CGQ_ASSIGN_OR_RETURN(
        Value v, EvalExpr(*node_->agg_calls[i].arg, row, in_layout_));
    state.accs[i].Add(v);
  }
  return Status::OK();
}

std::vector<Row> HashAggregator::Finish() {
  if (groups_.empty() && node_->group_ids.empty()) {
    GroupState state;
    for (const AggCall& call : node_->agg_calls) {
      state.accs.emplace_back(call.fn);
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
