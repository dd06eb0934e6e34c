#include "exec/vector/vector_executor.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/batch_ops.h"
#include "exec/exec_internal.h"
#include "exec/spill_join.h"
#include "exec/vector/column_batch.h"
#include "exec/vector/kernels.h"
#include "expr/eval.h"

namespace cgq {
namespace {

using exec_internal::CheckCancelled;
using exec_internal::JoinSpec;
using exec_internal::LayoutOf;
using exec_internal::PositionsOf;
using exec_internal::RowKey;
using exec_internal::RowKeyHash;
using vec::ColumnBatch;
using vec::ColumnPtr;
using vec::ColumnTag;
using vec::ColumnVector;
using vec::SelVec;
using vec::VecVal;

/// Rearranges `in`'s columns into the order given by `positions`, under
/// the new `layout`. Columns are shared handles, so repeats and drops
/// cost nothing.
ColumnBatch SelectColumns(const ColumnBatch& in,
                          const std::vector<size_t>& positions,
                          RowLayout layout) {
  ColumnBatch out;
  out.layout = std::move(layout);
  out.columns.reserve(positions.size());
  for (size_t p : positions) out.columns.push_back(in.columns[p]);
  return out;
}

class VectorInterpreter {
 public:
  VectorInterpreter(const TableStore* store, const NetworkModel* net,
                    const ExecutorOptions* options, ExecMetrics* metrics)
      : store_(store), net_(net), options_(options), metrics_(metrics) {}

  Result<ColumnBatch> Exec(const PlanNode& node) {
    CGQ_RETURN_NOT_OK(CheckCancelled(options_->cancel.get()));
    switch (node.kind()) {
      case PlanKind::kScan:
        return ExecScan(node);
      case PlanKind::kFilter:
        return ExecFilter(node);
      case PlanKind::kProject:
        return ExecProject(node);
      case PlanKind::kJoin:
        return ExecJoin(node);
      case PlanKind::kAggregate:
        return ExecAggregate(node);
      case PlanKind::kUnion:
        return ExecUnion(node);
      case PlanKind::kShip:
        return ExecShip(node);
    }
    return Status::Internal("unhandled plan kind");
  }

 private:
  /// Selection-vector chunk granularity (rows per kernel invocation).
  size_t ChunkRows() const {
    return options_->batch_size > 0
               ? static_cast<size_t>(options_->batch_size)
               : static_cast<size_t>(kDefaultBatchSize);
  }

  /// Rows of `batch` passing every conjunct, evaluated chunk-at-a-time.
  Result<SelVec> PassingRows(const ColumnBatch& batch,
                             const std::vector<ExprPtr>& conjuncts) {
    const size_t n = batch.NumRows();
    SelVec keep;
    keep.reserve(n);
    const size_t chunk = ChunkRows();
    for (size_t base = 0; base < n; base += chunk) {
      CGQ_RETURN_NOT_OK(CheckCancelled(options_->cancel.get()));
      const size_t end = std::min(base + chunk, n);
      SelVec sel;
      sel.reserve(end - base);
      for (size_t i = base; i < end; ++i) {
        sel.push_back(static_cast<uint32_t>(i));
      }
      CGQ_RETURN_NOT_OK(vec::FilterSel(conjuncts, batch, &sel));
      keep.insert(keep.end(), sel.begin(), sel.end());
    }
    return keep;
  }

  Result<ColumnBatch> ExecScan(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(
        size_t fragment_rows,
        store_->FragmentRows(node.scan_location, node.table));
    RowLayout layout = LayoutOf(node);
    metrics_->rows_scanned += static_cast<int64_t>(fragment_rows);
    // Memory mode shares the store's cached columnar fragment: the
    // conversion runs once per fragment, not once per execution, and the
    // columns are immutable so sharing is safe. Disk mode streams the
    // fragment's blocks into fresh columns instead (nothing cached).
    // Only the query-local layout wrapper is built here.
    CGQ_ASSIGN_OR_RETURN(
        std::shared_ptr<const std::vector<ColumnPtr>> columns,
        store_->GetColumnar(node.scan_location, node.table,
                            &metrics_->storage_blocks_read));
    const size_t width = layout.size();
    ColumnBatch out;
    out.layout = std::move(layout);
    if (columns->size() != width) {
      if (fragment_rows != 0) {
        return Status::Internal("stored row width mismatch for table '" +
                                node.table + "'");
      }
      out.columns.reserve(width);
      for (size_t c = 0; c < width; ++c) {
        out.columns.push_back(vec::MakeColumn(ColumnVector()));
      }
      return out;
    }
    out.columns = *columns;
    return out;
  }

  Result<ColumnBatch> ExecFilter(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(ColumnBatch in, Exec(*node.child(0)));
    CGQ_ASSIGN_OR_RETURN(SelVec keep, PassingRows(in, node.conjuncts));
    if (keep.size() == in.NumRows()) return in;
    return in.Gather(keep);
  }

  Result<ColumnBatch> ExecProject(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(ColumnBatch in, Exec(*node.child(0)));
    CGQ_ASSIGN_OR_RETURN(
        std::vector<size_t> positions,
        PositionsOf(node.project_ids, in.layout, "projection input"));
    return SelectColumns(in, positions, LayoutOf(node));
  }

  Result<ColumnBatch> ExecJoin(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(ColumnBatch left, Exec(*node.child(0)));
    CGQ_ASSIGN_OR_RETURN(ColumnBatch right, Exec(*node.child(1)));
    CGQ_ASSIGN_OR_RETURN(JoinSpec spec,
                         JoinSpec::Make(node, left.layout, right.layout));

    if (spec.RequiresNestedLoop() ||
        node.join_method == JoinMethod::kNestedLoop ||
        node.join_method == JoinMethod::kSortMerge) {
      // Rare methods (cross / non-equi / explicit sort-merge) reuse the
      // shared row machinery rather than a second columnar code path.
      return ExecJoinRowFallback(node, spec, left, right);
    }

    // The budget check reads the columnar batch in place (same bytes
    // ToRowBatch would report); rows are only materialized once the
    // spill path is actually taken, so an under-budget join never pays
    // for — or gets charged the memory of — a row-form copy.
    if (options_->memory_budget_bytes > 0 &&
        left.ByteSize() >
            static_cast<double>(options_->memory_budget_bytes)) {
      // Build side over budget: grace spill through the shared row
      // machinery — byte-identical to the columnar hash path below.
      return ExecJoinSpill(node, spec, vec::ToRowBatch(left),
                           vec::ToRowBatch(right));
    }

    // Build/probe on columns, collecting matched (left, right) index
    // pairs: probe rows in input order, matches in build (insertion)
    // order per key — the defined match order. Rows with a NULL key do
    // not participate.
    std::vector<uint32_t> li, ri;
    CGQ_RETURN_NOT_OK(HashJoinMatches(left, right, spec, &li, &ri));

    // Only the columns the output or the residual reference are gathered
    // out of the conceptual combined (left ++ right) batch.
    const size_t left_cols = left.NumColumns();
    const size_t width = left_cols + right.NumColumns();
    constexpr size_t kUnused = static_cast<size_t>(-1);
    std::vector<size_t> to_reduced(width, kUnused);
    std::vector<size_t> needed;
    auto require = [&](size_t pos) {
      if (to_reduced[pos] == kUnused) {
        to_reduced[pos] = needed.size();
        needed.push_back(pos);
      }
    };
    for (size_t p : spec.out_positions) require(p);
    std::vector<AttrId> residual_ids;
    for (const ExprPtr& c : spec.residual) c->CollectAttrIds(&residual_ids);
    for (AttrId id : residual_ids) {
      size_t pos = spec.combined.PositionOf(id);
      if (pos != RowLayout::kNotFound) require(pos);
    }

    ColumnBatch reduced;
    std::vector<AttrId> reduced_attrs;
    reduced_attrs.reserve(needed.size());
    for (size_t pos : needed) {
      reduced_attrs.push_back(spec.combined.attrs()[pos]);
    }
    reduced.layout = RowLayout(std::move(reduced_attrs));
    reduced.columns.reserve(needed.size());
    for (size_t pos : needed) {
      const ColumnVector& src = pos < left_cols
                                    ? *left.columns[pos]
                                    : *right.columns[pos - left_cols];
      reduced.columns.push_back(
          vec::MakeColumn(src.Gather(pos < left_cols ? li : ri)));
    }
    if (!spec.residual.empty()) {
      CGQ_ASSIGN_OR_RETURN(SelVec keep, PassingRows(reduced, spec.residual));
      if (keep.size() != reduced.NumRows()) {
        reduced = reduced.Gather(keep);
      }
    }
    std::vector<size_t> out_positions;
    out_positions.reserve(spec.out_positions.size());
    for (size_t p : spec.out_positions) out_positions.push_back(to_reduced[p]);
    return SelectColumns(reduced, out_positions, LayoutOf(node));
  }

  /// Equi-join match finder. The single-int64-key shape (every TPC-H
  /// join) gets a primitive-key hash table; the general shape hashes
  /// materialized RowKeys exactly like the row backend.
  Status HashJoinMatches(const ColumnBatch& left, const ColumnBatch& right,
                         const JoinSpec& spec, std::vector<uint32_t>* li,
                         std::vector<uint32_t>* ri) {
    const size_t n_left = left.NumRows();
    const size_t n_right = right.NumRows();
    if (spec.key_positions.size() == 1) {
      const ColumnVector& lk = *left.columns[spec.key_positions[0].first];
      const ColumnVector& rk = *right.columns[spec.key_positions[0].second];
      if (lk.tag == ColumnTag::kInt64 && rk.tag == ColumnTag::kInt64) {
        std::unordered_map<int64_t, std::vector<uint32_t>> table;
        table.reserve(n_left);
        for (size_t i = 0; i < n_left; ++i) {
          if (lk.nulls.IsNull(i)) continue;
          table[lk.i64[i]].push_back(static_cast<uint32_t>(i));
        }
        for (size_t r = 0; r < n_right; ++r) {
          if ((r & 0x3ff) == 0) {
            CGQ_RETURN_NOT_OK(CheckCancelled(options_->cancel.get()));
          }
          if (rk.nulls.IsNull(r)) continue;
          auto it = table.find(rk.i64[r]);
          if (it == table.end()) continue;
          for (uint32_t l : it->second) {
            li->push_back(l);
            ri->push_back(static_cast<uint32_t>(r));
          }
        }
        return Status::OK();
      }
    }
    std::unordered_map<RowKey, std::vector<uint32_t>, RowKeyHash> table;
    table.reserve(n_left);
    for (size_t i = 0; i < n_left; ++i) {
      RowKey key;
      bool has_null = false;
      for (auto [lp, rp] : spec.key_positions) {
        Value v = left.columns[lp]->GetValue(i);
        has_null |= v.is_null();
        key.values.push_back(std::move(v));
      }
      if (!has_null) table[std::move(key)].push_back(static_cast<uint32_t>(i));
    }
    for (size_t r = 0; r < n_right; ++r) {
      if ((r & 0x3ff) == 0) {
        CGQ_RETURN_NOT_OK(CheckCancelled(options_->cancel.get()));
      }
      RowKey key;
      bool has_null = false;
      for (auto [lp, rp] : spec.key_positions) {
        Value v = right.columns[rp]->GetValue(r);
        has_null |= v.is_null();
        key.values.push_back(std::move(v));
      }
      if (has_null) continue;
      auto it = table.find(key);
      if (it == table.end()) continue;
      for (uint32_t l : it->second) {
        li->push_back(l);
        ri->push_back(static_cast<uint32_t>(r));
      }
    }
    return Status::OK();
  }

  Result<ColumnBatch> ExecJoinSpill(const PlanNode& node,
                                    const JoinSpec& spec, RowBatch lb,
                                    RowBatch rb) {
    exec_internal::SpillHashJoin join(
        &spec,
        exec_internal::SpillHashJoin::MakeSpillDir(options_->spill_dir),
        exec_internal::SpillHashJoin::PickPartitions(
            static_cast<uint64_t>(lb.ByteSize()),
            options_->memory_budget_bytes),
        options_->cancel.get());
    CGQ_RETURN_NOT_OK(join.Init());
    for (const Row& row : lb.rows) CGQ_RETURN_NOT_OK(join.AddBuild(row));
    for (const Row& row : rb.rows) CGQ_RETURN_NOT_OK(join.AddProbe(row));
    std::vector<Row> out_rows;
    CGQ_RETURN_NOT_OK(join.Finish([&](Row row) {
      out_rows.push_back(std::move(row));
      return Status::OK();
    }));
    metrics_->spill_partitions += join.partitions();
    metrics_->spill_bytes += join.spill_bytes();
    return vec::FromRows(LayoutOf(node), out_rows);
  }

  Result<ColumnBatch> ExecJoinRowFallback(const PlanNode& node,
                                          const JoinSpec& spec,
                                          const ColumnBatch& left,
                                          const ColumnBatch& right) {
    RowBatch lb = vec::ToRowBatch(left);
    RowBatch rb = vec::ToRowBatch(right);
    std::vector<Row> out_rows;
    if (spec.RequiresNestedLoop() ||
        node.join_method == JoinMethod::kNestedLoop) {
      for (const Row& l : lb.rows) {
        CGQ_RETURN_NOT_OK(CheckCancelled(options_->cancel.get()));
        for (const Row& r : rb.rows) {
          CGQ_RETURN_NOT_OK(spec.EmitIfMatch(l, r, &out_rows).status());
        }
      }
    } else {
      CGQ_RETURN_NOT_OK(exec_internal::SortMergeJoin(
          lb.rows, rb.rows, spec.key_positions,
          [&](const Row& l, const Row& r) {
            return spec.EmitIfMatch(l, r, &out_rows).status();
          }));
    }
    return vec::FromRows(LayoutOf(node), out_rows);
  }

  Result<ColumnBatch> ExecAggregate(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(ColumnBatch in, Exec(*node.child(0)));
    CGQ_ASSIGN_OR_RETURN(
        std::vector<size_t> group_positions,
        PositionsOf(node.group_ids, in.layout, "aggregate input"));

    // Arguments evaluate column-at-a-time over the whole input; rows then
    // fold into their group's accumulators in input order (the exact
    // accumulation order of the scalar AggAccumulator).
    const size_t n = in.NumRows();
    SelVec all = vec::IdentitySel(n);
    std::vector<VecVal> args;
    args.reserve(node.agg_calls.size());
    for (const AggCall& call : node.agg_calls) {
      CGQ_ASSIGN_OR_RETURN(VecVal v, vec::EvalExprVec(*call.arg, in, all));
      args.push_back(std::move(v));
    }

    struct GroupState {
      Row key;
      std::vector<AggAccumulator> accs;
    };
    auto new_group = [&node](Row key) {
      GroupState state;
      state.key = std::move(key);
      state.accs.reserve(node.agg_calls.size());
      for (const AggCall& call : node.agg_calls) {
        state.accs.emplace_back(call.fn);
      }
      return state;
    };
    std::unordered_map<RowKey, size_t, RowKeyHash> group_index;
    std::vector<GroupState> groups;

    if (group_positions.empty()) {
      // Global aggregate: one group, no keying.
      groups.push_back(new_group(Row()));
      for (size_t i = 0; i < n; ++i) {
        for (size_t a = 0; a < args.size(); ++a) {
          groups[0].accs[a].Add(args[a].At(all, i));
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        RowKey key;
        for (size_t p : group_positions) {
          key.values.push_back(in.columns[p]->GetValue(i));
        }
        auto it = group_index.find(key);
        if (it == group_index.end()) {
          Row key_row = key.values;
          it = group_index.emplace(std::move(key), groups.size()).first;
          groups.push_back(new_group(std::move(key_row)));
        }
        GroupState& state = groups[it->second];
        for (size_t a = 0; a < args.size(); ++a) {
          state.accs[a].Add(args[a].At(all, i));
        }
      }
    }

    ColumnBatch out;
    out.layout = LayoutOf(node);
    std::vector<ColumnVector> cols(out.layout.size());
    for (ColumnVector& c : cols) c.Reserve(groups.size());
    for (GroupState& state : groups) {
      size_t c = 0;
      for (const Value& v : state.key) cols[c++].AppendValue(v);
      for (const AggAccumulator& acc : state.accs) {
        cols[c++].AppendValue(acc.Finish());
      }
    }
    out.columns.reserve(cols.size());
    for (ColumnVector& c : cols) {
      out.columns.push_back(vec::MakeColumn(std::move(c)));
    }
    return out;
  }

  Result<ColumnBatch> ExecUnion(const PlanNode& node) {
    ColumnBatch out;
    out.layout = LayoutOf(node);
    std::vector<ColumnVector> acc(out.layout.size());
    for (const PlanNodePtr& child : node.children()) {
      CGQ_ASSIGN_OR_RETURN(ColumnBatch b, Exec(*child));
      // Remap to the union's canonical attribute order.
      CGQ_ASSIGN_OR_RETURN(
          std::vector<size_t> positions,
          PositionsOf(out.layout.attrs(), b.layout, "union branch"));
      const size_t rows = b.NumRows();
      for (size_t c = 0; c < positions.size(); ++c) {
        const ColumnVector& src = *b.columns[positions[c]];
        for (size_t i = 0; i < rows; ++i) acc[c].AppendFrom(src, i);
      }
    }
    out.columns.reserve(acc.size());
    for (ColumnVector& c : acc) {
      out.columns.push_back(vec::MakeColumn(std::move(c)));
    }
    return out;
  }

  Result<ColumnBatch> ExecShip(const PlanNode& node) {
    CGQ_ASSIGN_OR_RETURN(ColumnBatch in, Exec(*node.child(0)));
    // The transfer happens in row form through the same one-message
    // ShipChannel as the row interpreter, so fault simulation, retries and
    // the ships / rows / bytes accounting stay byte-identical across
    // backends. The channel delivers exactly the rows that were sent
    // (retries resend, never mutate), so on success the already-columnar
    // input doubles as the received batch — no row -> column rebuild.
    ShipChannel channel(node.ship_from, node.ship_to, /*capacity=*/0, net_,
                        options_->retry);
    CGQ_RETURN_NOT_OK(channel.Send(vec::ToRowBatch(in)));
    channel.CloseProducer();
    RowBatch row_out;
    const bool delivered = channel.Pop(&row_out);

    metrics_->AddShipEdge(channel.stats());
    if (!delivered) {
      ColumnBatch empty;
      empty.layout = in.layout;
      empty.columns.reserve(in.NumColumns());
      for (size_t c = 0; c < in.NumColumns(); ++c) {
        empty.columns.push_back(vec::MakeColumn(ColumnVector()));
      }
      return empty;
    }
    return in;
  }

  const TableStore* store_;
  const NetworkModel* net_;
  const ExecutorOptions* options_;
  ExecMetrics* metrics_;
};

}  // namespace

Result<QueryResult> ExecuteVectorPlan(const PlanNode& plan,
                                      const TableStore* store,
                                      const NetworkModel* net,
                                      const ExecutorOptions& options) {
  QueryResult result;
  VectorInterpreter interp(store, net, &options, &result.metrics);
  CGQ_ASSIGN_OR_RETURN(ColumnBatch batch, interp.Exec(plan));
  for (const OutputCol& c : plan.outputs) {
    result.column_names.push_back(c.name);
  }
  RowBatch rows = vec::ToRowBatch(batch);
  result.rows = std::move(rows.rows);
  return result;
}

}  // namespace cgq
