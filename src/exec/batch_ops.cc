#include "exec/batch_ops.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "exec/exec_internal.h"
#include "exec/executor.h"
#include "exec/spill_join.h"
#include "exec/vector/kernels.h"

namespace cgq {
namespace exec_internal {

using vec::ColumnBatch;
using vec::ColumnVector;
using vec::SelVec;
using vec::VecVal;

Status DrainBatchOp(BatchOp* op, const std::atomic<bool>* cancel,
                    int64_t* rows_out, const BatchSink& sink) {
  while (true) {
    CGQ_RETURN_NOT_OK(CheckCancelled(cancel));
    CGQ_ASSIGN_OR_RETURN(OptBatch batch, op->Next());
    if (!batch) return Status::OK();
    if (batch->NumRows() == 0) continue;
    *rows_out += static_cast<int64_t>(batch->NumRows());
    CGQ_RETURN_NOT_OK(sink(std::move(*batch)));
  }
}

namespace {

Status WidthMismatch(const std::string& table) {
  return Status::Internal("stored row width mismatch for table '" + table +
                          "'");
}

/// Re-chunks a stream of batches into batches of exactly `batch_size`
/// rows (the last may be shorter), preserving row order. An output batch
/// that lies inside one input is a window of it; only batches straddling
/// two inputs copy rows.
class Chunker {
 public:
  Chunker(const RowLayout* layout, size_t batch_size)
      : layout_(layout), batch_size_(batch_size) {}

  void Add(ColumnBatch batch) {
    if (batch.NumRows() == 0) return;
    pending_ += batch.NumRows();
    pieces_.push_back(std::move(batch));
  }

  bool HasFullBatch() const { return pending_ >= batch_size_; }
  bool Empty() const { return pending_ == 0; }

  ColumnBatch Take() {
    const size_t n = std::min(batch_size_, pending_);
    pending_ -= n;
    ColumnBatch& front = pieces_.front();
    if (pos_ == 0 && front.NumRows() == n) {
      ColumnBatch out = std::move(front);
      pieces_.pop_front();
      return out;
    }
    if (front.NumRows() - pos_ >= n) {
      ColumnBatch out = front.Slice(pos_, pos_ + n);
      Advance(n);
      return out;
    }
    std::vector<ColumnVector> cols(layout_->size());
    for (size_t need = n; need > 0;) {
      const ColumnBatch& piece = pieces_.front();
      const size_t take = std::min(need, piece.NumRows() - pos_);
      AppendRows(piece, pos_, pos_ + take, &cols);
      Advance(take);
      need -= take;
    }
    return vec::DenseBatch(*layout_, std::move(cols), n);
  }

 private:
  void Advance(size_t n) {
    pos_ += n;
    if (pos_ == pieces_.front().NumRows()) {
      pieces_.pop_front();
      pos_ = 0;
    }
  }

  const RowLayout* layout_;
  const size_t batch_size_;
  std::deque<ColumnBatch> pieces_;
  size_t pos_ = 0;  ///< rows of pieces_.front() already taken
  size_t pending_ = 0;
};

/// An operator whose output is its own row stream re-chunked to
/// batch_size: subclasses add output to `out_` from Fill().
class ChunkedOp : public BatchOp {
 public:
  Result<OptBatch> Next() final {
    while (true) {
      if (out_.HasFullBatch() || (done_ && !out_.Empty())) {
        ColumnBatch batch = out_.Take();
        if (rows_emitted_ != nullptr) {
          *rows_emitted_ += static_cast<int64_t>(batch.NumRows());
        }
        return OptBatch(std::move(batch));
      }
      if (done_) return OptBatch();
      CGQ_ASSIGN_OR_RETURN(done_, Fill());
    }
  }

  const RowLayout& layout() const final { return layout_; }

 protected:
  ChunkedOp(RowLayout layout, size_t batch_size,
            int64_t* rows_emitted = nullptr)
      : layout_(std::move(layout)),
        out_(&layout_, batch_size),
        rows_emitted_(rows_emitted) {}

  /// Adds the next stretch of output (possibly none) to `out_`; returns
  /// true once the input is exhausted and all output has been added.
  virtual Result<bool> Fill() = 0;

  RowLayout layout_;
  Chunker out_;

 private:
  int64_t* rows_emitted_;
  bool done_ = false;
};

/// Drains `op` into one dense batch (the materialized side of a join).
Result<ColumnBatch> DrainToColumns(BatchOp* op,
                                   const std::atomic<bool>* cancel) {
  std::vector<ColumnVector> cols(op->layout().size());
  size_t rows = 0;
  while (true) {
    CGQ_RETURN_NOT_OK(CheckCancelled(cancel));
    CGQ_ASSIGN_OR_RETURN(OptBatch b, op->Next());
    if (!b) break;
    AppendRows(*b, 0, b->NumRows(), &cols);
    rows += b->NumRows();
  }
  return vec::DenseBatch(op->layout(), std::move(cols), rows);
}

/// The scan of one fragment, in either storage mode: each cursor chunk
/// (a memory column run or a decoded disk block) is re-chunked to
/// batch_size. Windows inside one chunk share its columns. `layout` is
/// the node's outputs, or the subset a masked cursor yields (BuildScan).
class ScanOp : public ChunkedOp {
 public:
  ScanOp(const PlanNode* node, RowLayout layout, TableStore::Cursor cursor,
         size_t batch_size, FragmentCounters* counters)
      : ChunkedOp(std::move(layout), batch_size, &counters->rows_scanned),
        node_(node),
        cursor_(std::move(cursor)),
        counters_(counters) {}

 protected:
  Result<bool> Fill() override {
    ColumnBatch block;
    Result<bool> next = cursor_.Next(&block);
    // A masked cursor refuses a chunk of another width this way.
    if (next.status().IsInvalidArgument()) return WidthMismatch(node_->table);
    CGQ_ASSIGN_OR_RETURN(bool more, std::move(next));
    counters_->blocks_read += cursor_.blocks_read() - blocks_folded_;
    blocks_folded_ = cursor_.blocks_read();
    if (!more) return true;
    if (block.NumColumns() != layout_.size()) {
      return WidthMismatch(node_->table);
    }
    block.layout = layout_;
    out_.Add(std::move(block));
    return false;
  }

 private:
  const PlanNode* node_;
  TableStore::Cursor cursor_;
  FragmentCounters* counters_;
  int64_t blocks_folded_ = 0;
};

/// Narrows each batch's selection to the rows passing every conjunct;
/// batches with no survivor are skipped.
class FilterOp : public BatchOp {
 public:
  FilterOp(const PlanNode* node, BatchOpPtr child)
      : node_(node), child_(std::move(child)) {}

  Result<OptBatch> Next() override {
    while (true) {
      CGQ_ASSIGN_OR_RETURN(OptBatch in, child_->Next());
      if (!in) return OptBatch();
      SelVec sel = std::move(in->sel);
      CGQ_RETURN_NOT_OK(vec::FilterSel(node_->conjuncts, *in, &sel));
      if (sel.empty()) continue;
      in->sel = std::move(sel);
      return OptBatch(std::move(*in));
    }
  }

  const RowLayout& layout() const override { return child_->layout(); }

 private:
  const PlanNode* node_;
  BatchOpPtr child_;
};

class ProjectOp : public BatchOp {
 public:
  static Result<BatchOpPtr> Make(const PlanNode* node, BatchOpPtr child) {
    CGQ_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                         PositionsOf(node->project_ids, child->layout(),
                                     "projection input"));
    return BatchOpPtr(
        new ProjectOp(node, std::move(child), std::move(positions)));
  }

  Result<OptBatch> Next() override {
    CGQ_ASSIGN_OR_RETURN(OptBatch in, child_->Next());
    if (!in) return OptBatch();
    return OptBatch(Remap(std::move(*in), positions_, layout_));
  }

  const RowLayout& layout() const override { return layout_; }

 private:
  ProjectOp(const PlanNode* node, BatchOpPtr child,
            std::vector<size_t> positions)
      : child_(std::move(child)),
        positions_(std::move(positions)),
        layout_(LayoutOf(*node)) {}

  BatchOpPtr child_;
  std::vector<size_t> positions_;
  RowLayout layout_;
};

class UnionOp : public BatchOp {
 public:
  static Result<BatchOpPtr> Make(const PlanNode* node,
                                 std::vector<BatchOpPtr> children) {
    RowLayout layout = LayoutOf(*node);
    std::vector<std::vector<size_t>> remaps;
    remaps.reserve(children.size());
    for (const BatchOpPtr& child : children) {
      CGQ_ASSIGN_OR_RETURN(
          std::vector<size_t> positions,
          PositionsOf(layout.attrs(), child->layout(), "union branch"));
      remaps.push_back(std::move(positions));
    }
    return BatchOpPtr(new UnionOp(std::move(layout), std::move(children),
                                  std::move(remaps)));
  }

  Result<OptBatch> Next() override {
    while (current_ < children_.size()) {
      CGQ_ASSIGN_OR_RETURN(OptBatch in, children_[current_]->Next());
      if (!in) {
        ++current_;
        continue;
      }
      return OptBatch(Remap(std::move(*in), remaps_[current_], layout_));
    }
    return OptBatch();
  }

  const RowLayout& layout() const override { return layout_; }

 private:
  UnionOp(RowLayout layout, std::vector<BatchOpPtr> children,
          std::vector<std::vector<size_t>> remaps)
      : layout_(std::move(layout)),
        children_(std::move(children)),
        remaps_(std::move(remaps)) {}

  RowLayout layout_;
  std::vector<BatchOpPtr> children_;
  std::vector<std::vector<size_t>> remaps_;
  size_t current_ = 0;
};

/// Join: the left side is drained into columns. Joins without equi-keys
/// drain the right side and pair each left row with every right row, one
/// left row per Fill (left-major output). A hash join whose left side
/// exceeds the memory budget takes the grace spill. Any other hash join
/// indexes its smaller input: it buffers right batches until the right
/// side ends or its rows or bytes reach the left side's. A right side
/// that ended smaller is indexed (ColumnJoinTable::FlippedMatches) and
/// its pairs are gathered one buffered batch per Fill; otherwise the
/// left side is indexed, and the buffered batches, then the rest of the
/// right side, probe it one batch per Fill. Either way the pairs reach
/// the same JoinGather step in the same order.
class JoinOp : public ChunkedOp {
 public:
  JoinOp(const PlanNode* node, BatchOpPtr left, BatchOpPtr right,
         size_t batch_size, const BatchOpEnv& env)
      : ChunkedOp(LayoutOf(*node), batch_size),
        node_(node),
        left_(std::move(left)),
        right_(std::move(right)),
        cancel_(env.cancel),
        memory_budget_bytes_(env.memory_budget_bytes),
        spill_dir_(env.spill_dir),
        counters_(env.counters) {}

 protected:
  Result<bool> Fill() override {
    if (!initialized_) {
      initialized_ = true;
      return Init();
    }
    CGQ_RETURN_NOT_OK(CheckCancelled(cancel_));
    if (spec_.RequiresNestedLoop()) {
      const uint32_t l = next_left_++;
      CGQ_RETURN_NOT_OK(AddMatches(inner_, SelVec(inner_.NumRows(), l),
                                   inner_.sel));
      return next_left_ == build_.NumRows();
    }
    if (flipped_) {
      const size_t b = next_buffered_++;
      CGQ_RETURN_NOT_OK(
          AddMatches(buffered_[b], flipped_li_[b], flipped_ri_[b]));
      buffered_[b] = ColumnBatch();
      return next_buffered_ == buffered_.size();
    }
    OptBatch in;
    if (next_buffered_ < buffered_.size()) {
      in = std::move(buffered_[next_buffered_++]);
    } else {
      CGQ_ASSIGN_OR_RETURN(in, right_->Next());
    }
    if (!in) {
      if (spill_ != nullptr) CGQ_RETURN_NOT_OK(FinishSpill());
      return true;
    }
    if (spill_ != nullptr) {
      CGQ_RETURN_NOT_OK(spill_->AddProbe(*in));
      return false;
    }
    SelVec li, ri;
    CGQ_RETURN_NOT_OK(table_.Probe(*in, spec_, cancel_, &li, &ri));
    CGQ_RETURN_NOT_OK(AddMatches(*in, li, ri));
    return false;
  }

 private:
  /// Materializes the left side and picks the join path; true when the
  /// join has no output.
  Result<bool> Init() {
    CGQ_ASSIGN_OR_RETURN(build_, DrainToColumns(left_.get(), cancel_));
    CGQ_ASSIGN_OR_RETURN(
        spec_, JoinSpec::Make(*node_, left_->layout(), right_->layout()));
    gather_ = JoinGather(spec_);

    if (spec_.RequiresNestedLoop()) {
      CGQ_ASSIGN_OR_RETURN(inner_, DrainToColumns(right_.get(), cancel_));
      return build_.NumRows() == 0 || inner_.NumRows() == 0;
    }

    const double build_bytes = build_.ByteSize();
    if (memory_budget_bytes_ > 0 &&
        build_bytes > static_cast<double>(memory_budget_bytes_)) {
      // Build side over budget: grace spill. Probe batches stream into
      // the partitions from Fill(); output is byte-identical to the
      // in-memory hash path.
      spill_ = std::make_unique<SpillHashJoin>(
          &spec_, SpillHashJoin::MakeSpillDir(spill_dir_),
          SpillHashJoin::PickPartitions(static_cast<uint64_t>(build_bytes),
                                        memory_budget_bytes_),
          cancel_);
      CGQ_RETURN_NOT_OK(spill_->Init());
      CGQ_RETURN_NOT_OK(spill_->AddBuild(build_));
      build_ = ColumnBatch();
      return false;
    }

    // Buffer the right side while it stays below the left side in rows
    // and bytes.
    size_t right_rows = 0;
    double right_bytes = 0;
    while (true) {
      CGQ_RETURN_NOT_OK(CheckCancelled(cancel_));
      CGQ_ASSIGN_OR_RETURN(OptBatch in, right_->Next());
      if (!in) break;
      if (in->NumRows() == 0) continue;
      right_rows += in->NumRows();
      right_bytes += in->ByteSize();
      buffered_.push_back(std::move(*in));
      if (right_rows >= build_.NumRows() || right_bytes >= build_bytes) {
        table_.Build(build_, spec_);
        return false;
      }
    }
    flipped_ = true;
    CGQ_COUNTER_ADD("exec.join_flips", 1);
    CGQ_RETURN_NOT_OK(ColumnJoinTable::FlippedMatches(
        build_, buffered_, spec_, cancel_, &flipped_li_, &flipped_ri_));
    return buffered_.empty();
  }

  /// Adds the output of the (build row, `probe` row) pairs `li`/`ri`.
  Status AddMatches(const ColumnBatch& probe, const SelVec& li,
                    const SelVec& ri) {
    if (li.empty()) return Status::OK();
    CGQ_ASSIGN_OR_RETURN(ColumnBatch out,
                         gather_.Gather(build_, probe, li, ri));
    out_.Add(std::move(out));
    return Status::OK();
  }

  Status FinishSpill() {
    CGQ_RETURN_NOT_OK(spill_->Finish([&](ColumnBatch batch) {
      out_.Add(std::move(batch));
      return Status::OK();
    }));
    counters_->spill_partitions += spill_->partitions();
    counters_->spill_bytes += spill_->spill_bytes();
    spill_.reset();
    return Status::OK();
  }

  const PlanNode* node_;
  BatchOpPtr left_;
  BatchOpPtr right_;
  const std::atomic<bool>* cancel_;
  uint64_t memory_budget_bytes_;
  std::string spill_dir_;
  FragmentCounters* counters_;
  JoinSpec spec_;
  JoinGather gather_;
  ColumnBatch build_;  ///< the drained left side
  ColumnJoinTable table_;
  /// Hash joins: the right batches read to pick the indexed side, and
  /// the next one to probe or gather. A flipped join's pairs, per batch.
  std::vector<ColumnBatch> buffered_;
  size_t next_buffered_ = 0;
  bool flipped_ = false;
  std::vector<SelVec> flipped_li_;
  std::vector<SelVec> flipped_ri_;
  /// Nested loop: the drained right side, and the next left row to pair.
  ColumnBatch inner_;
  uint32_t next_left_ = 0;
  std::unique_ptr<SpillHashJoin> spill_;
  bool initialized_ = false;
};

/// Folds one evaluated aggregate argument into `accs`, row k into group
/// ids[k], in input order: one typed loop per batch, chosen by the
/// argument's tag (a constant, an int64/date or double column), and
/// Value by Value for string and kValue columns.
Status FoldArg(const VecVal& arg, const SelVec& sel,
               const std::vector<uint32_t>& ids,
               std::vector<AggAccumulator>* accs) {
  AggAccumulator* acc = accs->data();
  const size_t n = sel.size();
  if (arg.is_const) {
    for (size_t k = 0; k < n; ++k) {
      CGQ_RETURN_NOT_OK(acc[ids[k]].Add(arg.cval));
    }
    return Status::OK();
  }
  const ColumnVector& col = arg.col();
  const bool any_null = col.nulls.AnyNull();
  switch (col.tag) {
    case vec::ColumnTag::kInt64:
      for (size_t k = 0; k < n; ++k) {
        const size_t i = arg.IndexOf(sel, k);
        if (any_null && col.nulls.IsNull(i)) continue;
        if (!acc[ids[k]].AddInt64(col.i64[i])) return IntegerOverflow();
      }
      return Status::OK();
    case vec::ColumnTag::kDouble:
      for (size_t k = 0; k < n; ++k) {
        const size_t i = arg.IndexOf(sel, k);
        if (any_null && col.nulls.IsNull(i)) continue;
        acc[ids[k]].AddDouble(col.f64[i]);
      }
      return Status::OK();
    case vec::ColumnTag::kString:
    case vec::ColumnTag::kValue:
      for (size_t k = 0; k < n; ++k) {
        CGQ_RETURN_NOT_OK(acc[ids[k]].Add(arg.At(sel, k)));
      }
      return Status::OK();
  }
  return Status::OK();
}

/// Hash aggregation: arguments are evaluated per input batch, then each
/// argument folds into its call's per-group accumulators (FoldArg) in
/// input order, the accumulation order of HashAggregator. A KeyIndex
/// numbers the groups in first-seen order, which is the order they are
/// emitted in, and keeps each group's key cells for the output.
class AggregateOp : public ChunkedOp {
 public:
  AggregateOp(const PlanNode* node, BatchOpPtr child, size_t batch_size,
              const std::atomic<bool>* cancel)
      : ChunkedOp(LayoutOf(*node), batch_size),
        node_(node),
        child_(std::move(child)),
        cancel_(cancel) {}

 protected:
  Result<bool> Fill() override {
    CGQ_ASSIGN_OR_RETURN(
        std::vector<size_t> group_positions,
        PositionsOf(node_->group_ids, child_->layout(), "aggregate input"));
    const bool global = group_positions.empty();
    const std::vector<AggCall>& calls = node_->agg_calls;
    KeyIndex index;
    // Per call, one accumulator per group.
    std::vector<std::vector<AggAccumulator>> accs(calls.size());
    size_t groups = 0;
    auto add_groups = [&](size_t n) {
      for (size_t a = 0; a < calls.size(); ++a) {
        accs[a].resize(n, AggAccumulator(calls[a]));
      }
      groups = n;
    };
    // A global aggregate has exactly one group, even over no input.
    if (global) add_groups(1);

    VecVal arg;
    std::vector<uint32_t> ids;
    while (true) {
      CGQ_RETURN_NOT_OK(CheckCancelled(cancel_));
      CGQ_ASSIGN_OR_RETURN(OptBatch in, child_->Next());
      if (!in) break;
      if (global) {
        ids.assign(in->NumRows(), 0);
      } else {
        index.Lookup(*in, group_positions, KeyIndex::Mode::kGroup, &ids);
        add_groups(index.size());
      }
      for (size_t a = 0; a < calls.size(); ++a) {
        CGQ_ASSIGN_OR_RETURN(arg, vec::EvalExprVec(*calls[a].arg, *in,
                                                   in->sel));
        CGQ_RETURN_NOT_OK(FoldArg(arg, in->sel, ids, &accs[a]));
      }
    }

    std::vector<ColumnVector> cols = std::move(index.keys());
    cols.resize(layout_.size());
    for (size_t a = 0; a < calls.size(); ++a) {
      ColumnVector& col = cols[group_positions.size() + a];
      for (const AggAccumulator& acc : accs[a]) col.AppendValue(acc.Finish());
    }
    out_.Add(vec::DenseBatch(layout_, std::move(cols), groups));
    return true;
  }

 private:
  const PlanNode* node_;
  BatchOpPtr child_;
  const std::atomic<bool>* cancel_;
};

/// Source of a SHIP leaf, on either end of the wire: pulls its edge's
/// batches through BatchOpEnv::ship_recv. Its layout is the leaf's own
/// (LayoutOf(ship)); operators above it resolve columns by that static
/// layout, so a batch whose attrs differ from it (even a same-width
/// permutation) is refused.
class ShipSourceOp : public BatchOp {
 public:
  ShipSourceOp(const PlanNode* ship, ShipRecv recv)
      : ship_(ship), recv_(std::move(recv)), layout_(LayoutOf(*ship)) {}

  Result<OptBatch> Next() override {
    CGQ_ASSIGN_OR_RETURN(OptBatch batch, recv_(*ship_));
    if (batch && batch->layout.attrs() != layout_.attrs()) {
      return Status::InvalidArgument(
          "input batch of SHIP l" + std::to_string(ship_->ship_from) +
          "->l" + std::to_string(ship_->ship_to) +
          " does not carry its SHIP leaf's layout");
    }
    return batch;
  }
  const RowLayout& layout() const override { return layout_; }

 private:
  const PlanNode* ship_;
  ShipRecv recv_;
  RowLayout layout_;
};

/// The scan of `node`. `reads`, when set, holds every attr the
/// Filter*->Project chain directly above the scan reads; the scan then
/// yields only those of its columns, in stored order.
Result<BatchOpPtr> BuildScan(const PlanNode& node, const BatchOpEnv& env,
                             size_t batch_size,
                             const std::vector<AttrId>* reads) {
  RowLayout layout = LayoutOf(node);
  std::optional<vec::ColumnMask> keep;
  if (reads != nullptr) {
    keep.emplace();
    std::vector<AttrId> kept;
    for (const OutputCol& col : node.outputs) {
      const bool read =
          std::find(reads->begin(), reads->end(), col.id) != reads->end();
      keep->push_back(read);
      if (read) kept.push_back(col.id);
    }
    layout = RowLayout(std::move(kept));
  }
  CGQ_ASSIGN_OR_RETURN(TableStore::Cursor cursor,
                       env.store->Scan(node.scan_location, node.table,
                                       keep ? &*keep : nullptr));
  return BatchOpPtr(new ScanOp(&node, std::move(layout), std::move(cursor),
                               batch_size, env.counters));
}

/// BuildBatchOp, with `reads` as in BuildScan: a Project starts the set
/// with its projected attrs, each Filter below it adds its conjuncts'
/// attrs, and every other operator builds its children with none.
Result<BatchOpPtr> Build(const PlanNode& node, const BatchOpEnv& env,
                         const std::vector<AttrId>* reads) {
  const size_t batch_size = std::max<size_t>(1, env.batch_size);
  switch (node.kind()) {
    case PlanKind::kShip: {
      if (!env.ship_recv) {
        return Status::Internal("fragment subtree contains a SHIP but no "
                                "ship source was supplied");
      }
      return BatchOpPtr(new ShipSourceOp(&node, env.ship_recv));
    }
    case PlanKind::kScan:
      return BuildScan(node, env, batch_size, reads);
    case PlanKind::kFilter: {
      std::vector<AttrId> filter_reads;
      if (reads != nullptr) {
        filter_reads = *reads;
        for (const ExprPtr& c : node.conjuncts) {
          c->CollectAttrIds(&filter_reads);
        }
      }
      CGQ_ASSIGN_OR_RETURN(
          BatchOpPtr child,
          Build(*node.child(0), env, reads ? &filter_reads : nullptr));
      return BatchOpPtr(new FilterOp(&node, std::move(child)));
    }
    case PlanKind::kProject: {
      CGQ_ASSIGN_OR_RETURN(BatchOpPtr child,
                           Build(*node.child(0), env, &node.project_ids));
      return ProjectOp::Make(&node, std::move(child));
    }
    case PlanKind::kJoin: {
      CGQ_ASSIGN_OR_RETURN(BatchOpPtr left, Build(*node.child(0), env, nullptr));
      CGQ_ASSIGN_OR_RETURN(BatchOpPtr right,
                           Build(*node.child(1), env, nullptr));
      return BatchOpPtr(new JoinOp(&node, std::move(left), std::move(right),
                                   batch_size, env));
    }
    case PlanKind::kAggregate: {
      CGQ_ASSIGN_OR_RETURN(BatchOpPtr child,
                           Build(*node.child(0), env, nullptr));
      return BatchOpPtr(new AggregateOp(&node, std::move(child), batch_size,
                                        env.cancel));
    }
    case PlanKind::kUnion: {
      std::vector<BatchOpPtr> children;
      children.reserve(node.children().size());
      for (const PlanNodePtr& c : node.children()) {
        CGQ_ASSIGN_OR_RETURN(BatchOpPtr child, Build(*c, env, nullptr));
        children.push_back(std::move(child));
      }
      return UnionOp::Make(&node, std::move(children));
    }
  }
  return Status::Internal("unhandled plan kind");
}

}  // namespace

Result<BatchOpPtr> BuildBatchOp(const PlanNode& node, const BatchOpEnv& env) {
  return Build(node, env, nullptr);
}

Status RunFragmentTree(const PlanNode& root, const TableStore* store,
                       const ExecutorOptions& options, ShipRecv recv,
                       FragmentCounters* counters, const BatchSink& sink) {
  BatchOpEnv env;
  env.store = store;
  env.batch_size = static_cast<size_t>(std::max(1, options.batch_size));
  env.cancel = options.cancel.get();
  env.counters = counters;
  env.memory_budget_bytes = options.memory_budget_bytes;
  env.spill_dir = options.spill_dir;
  env.ship_recv = std::move(recv);
  CGQ_ASSIGN_OR_RETURN(BatchOpPtr op, BuildBatchOp(root, env));
  return DrainBatchOp(op.get(), env.cancel, &counters->rows_out, sink);
}

}  // namespace exec_internal
}  // namespace cgq
