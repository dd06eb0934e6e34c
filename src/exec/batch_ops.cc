#include "exec/batch_ops.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "exec/exec_internal.h"
#include "exec/spill_join.h"

namespace cgq {
namespace exec_internal {

Status CheckCancelled(const std::atomic<bool>* cancel) {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  return Status::OK();
}

Status DrainBatchOp(BatchOp* op, const std::atomic<bool>* cancel,
                    int64_t* rows_out,
                    const std::function<Status(RowBatch)>& sink) {
  while (true) {
    CGQ_RETURN_NOT_OK(CheckCancelled(cancel));
    CGQ_ASSIGN_OR_RETURN(OptBatch batch, op->Next());
    if (!batch) return Status::OK();
    if (batch->Empty()) continue;
    *rows_out += static_cast<int64_t>(batch->NumRows());
    CGQ_RETURN_NOT_OK(sink(std::move(*batch)));
  }
}

namespace {

class ScanOp : public BatchOp {
 public:
  ScanOp(const PlanNode* node, const std::vector<Row>* rows,
         size_t batch_size, int64_t* rows_scanned)
      : node_(node),
        rows_(rows),
        batch_size_(batch_size),
        rows_scanned_(rows_scanned),
        layout_(LayoutOf(*node)) {}

  Result<OptBatch> Next() override {
    if (offset_ >= rows_->size()) return OptBatch();
    size_t end = std::min(offset_ + batch_size_, rows_->size());
    RowBatch out;
    out.layout = layout_;
    out.rows.reserve(end - offset_);
    for (size_t i = offset_; i < end; ++i) {
      if ((*rows_)[i].size() != layout_.size()) {
        return Status::Internal("stored row width mismatch for table '" +
                                node_->table + "'");
      }
      out.rows.push_back((*rows_)[i]);
    }
    *rows_scanned_ += static_cast<int64_t>(out.rows.size());
    offset_ = end;
    return OptBatch(std::move(out));
  }

  const RowLayout& layout() const override { return layout_; }

 private:
  const PlanNode* node_;
  const std::vector<Row>* rows_;
  const size_t batch_size_;
  int64_t* rows_scanned_;
  RowLayout layout_;
  size_t offset_ = 0;
};

/// Serialized volume of the rows, matching RowBatch::ByteSize (the
/// build-side size a join compares against the memory budget).
double RowsByteSize(const std::vector<Row>& rows) {
  double bytes = 0;
  for (const Row& row : rows) {
    for (const Value& v : row) bytes += static_cast<double>(v.ByteSize());
  }
  return bytes;
}

/// Disk-mode scan: streams one fragment's checksummed blocks through a
/// TableStore::Cursor, re-chunked to batch_size (identical batch
/// boundaries to the in-memory ScanOp).
class DiskScanOp : public BatchOp {
 public:
  DiskScanOp(const PlanNode* node, TableStore::Cursor cursor,
             size_t batch_size, int64_t* rows_scanned,
             int64_t* storage_blocks_read)
      : node_(node),
        cursor_(std::move(cursor)),
        batch_size_(batch_size),
        rows_scanned_(rows_scanned),
        storage_blocks_read_(storage_blocks_read),
        layout_(LayoutOf(*node)) {}

  Result<OptBatch> Next() override {
    while (true) {
      if (buffer_.size() - pos_ >= batch_size_ ||
          (drained_ && pos_ < buffer_.size())) {
        return TakeBatch();
      }
      if (drained_) return OptBatch();
      if (pos_ > 0) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<ptrdiff_t>(pos_));
        pos_ = 0;
      }
      std::vector<Row> chunk;
      CGQ_ASSIGN_OR_RETURN(bool more, cursor_.Next(&chunk));
      if (storage_blocks_read_ != nullptr) {
        *storage_blocks_read_ += cursor_.blocks_read() - blocks_folded_;
        blocks_folded_ = cursor_.blocks_read();
      }
      if (!more) {
        drained_ = true;
        continue;
      }
      for (Row& r : chunk) {
        if (r.size() != layout_.size()) {
          return Status::Internal("stored row width mismatch for table '" +
                                  node_->table + "'");
        }
        buffer_.push_back(std::move(r));
      }
    }
  }

  const RowLayout& layout() const override { return layout_; }

 private:
  Result<OptBatch> TakeBatch() {
    size_t end = std::min(pos_ + batch_size_, buffer_.size());
    RowBatch out;
    out.layout = layout_;
    out.rows.assign(std::make_move_iterator(buffer_.begin() +
                                            static_cast<ptrdiff_t>(pos_)),
                    std::make_move_iterator(buffer_.begin() +
                                            static_cast<ptrdiff_t>(end)));
    pos_ = end;
    *rows_scanned_ += static_cast<int64_t>(out.rows.size());
    return OptBatch(std::move(out));
  }

  const PlanNode* node_;
  TableStore::Cursor cursor_;
  const size_t batch_size_;
  int64_t* rows_scanned_;
  int64_t* storage_blocks_read_;
  RowLayout layout_;
  std::vector<Row> buffer_;
  size_t pos_ = 0;
  int64_t blocks_folded_ = 0;
  bool drained_ = false;
};

class FilterOp : public BatchOp {
 public:
  FilterOp(const PlanNode* node, BatchOpPtr child)
      : node_(node), child_(std::move(child)) {}

  Result<OptBatch> Next() override {
    while (true) {
      CGQ_ASSIGN_OR_RETURN(OptBatch in, child_->Next());
      if (!in) return OptBatch();
      RowBatch out;
      out.layout = in->layout;
      for (Row& row : in->rows) {
        CGQ_ASSIGN_OR_RETURN(
            bool keep,
            exec_internal::KeepRow(node_->conjuncts, row, in->layout));
        if (keep) out.rows.push_back(std::move(row));
      }
      if (!out.rows.empty()) return OptBatch(std::move(out));
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
    RowBatch out;
    out.layout = layout_;
    out.rows.reserve(in->rows.size());
    for (const Row& row : in->rows) {
      Row projected;
      projected.reserve(positions_.size());
      for (size_t p : positions_) projected.push_back(row[p]);
      out.rows.push_back(std::move(projected));
    }
    return OptBatch(std::move(out));
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

/// Emits `rows` in batch_size chunks, preserving order.
class Chunker {
 public:
  explicit Chunker(size_t batch_size) : batch_size_(batch_size) {}

  void Add(std::vector<Row> rows) {
    if (rows_.empty()) {
      rows_ = std::move(rows);
    } else {
      rows_.insert(rows_.end(), std::make_move_iterator(rows.begin()),
                   std::make_move_iterator(rows.end()));
    }
  }

  bool HasFullBatch() const { return rows_.size() - pos_ >= batch_size_; }
  bool Empty() const { return pos_ >= rows_.size(); }

  RowBatch Take(const RowLayout& layout) {
    RowBatch out;
    out.layout = layout;
    size_t end = std::min(pos_ + batch_size_, rows_.size());
    out.rows.assign(std::make_move_iterator(rows_.begin() + pos_),
                    std::make_move_iterator(rows_.begin() + end));
    pos_ = end;
    if (pos_ >= rows_.size()) {
      rows_.clear();
      pos_ = 0;
    }
    return out;
  }

 private:
  const size_t batch_size_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class JoinOp : public BatchOp {
 public:
  JoinOp(const PlanNode* node, BatchOpPtr left, BatchOpPtr right,
         size_t batch_size, const BatchOpEnv& env)
      : node_(node),
        left_(std::move(left)),
        right_(std::move(right)),
        chunker_(batch_size),
        layout_(LayoutOf(*node)),
        cancel_(env.cancel),
        memory_budget_bytes_(env.memory_budget_bytes),
        spill_dir_(env.spill_dir),
        spill_partitions_(env.spill_partitions),
        spill_bytes_(env.spill_bytes) {}

  Result<OptBatch> Next() override {
    if (!initialized_) {
      CGQ_RETURN_NOT_OK(Init());
      initialized_ = true;
    }
    while (true) {
      if (chunker_.HasFullBatch() || (drained_ && !chunker_.Empty())) {
        return OptBatch(chunker_.Take(layout_));
      }
      if (drained_) return OptBatch();
      CGQ_ASSIGN_OR_RETURN(OptBatch in, right_->Next());
      if (!in) {
        if (spill_ != nullptr) {
          // Probe side fully routed to partitions: join partition pairs
          // and merge the runs back into reference order.
          std::vector<Row> matched;
          CGQ_RETURN_NOT_OK(spill_->Finish([&](Row row) {
            matched.push_back(std::move(row));
            return Status::OK();
          }));
          if (spill_partitions_ != nullptr) {
            *spill_partitions_ += spill_->partitions();
          }
          if (spill_bytes_ != nullptr) *spill_bytes_ += spill_->spill_bytes();
          spill_.reset();
          chunker_.Add(std::move(matched));
        }
        drained_ = true;
        continue;
      }
      if (spill_ != nullptr) {
        for (const Row& r : in->rows) CGQ_RETURN_NOT_OK(spill_->AddProbe(r));
        continue;
      }
      std::vector<Row> matched;
      for (const Row& r : in->rows) {
        CGQ_RETURN_NOT_OK(table_.Probe(r, spec_, [&](const Row& l) {
          return spec_.EmitIfMatch(l, r, &matched).status();
        }));
      }
      chunker_.Add(std::move(matched));
    }
  }

  const RowLayout& layout() const override { return layout_; }

 private:
  Status Init() {
    // The build (left) side is always fully materialized, mirroring the
    // row interpreter; the probe side streams for hash joins. Nested-loop
    // and sort-merge joins materialize both sides (their output order is
    // left-major, which a right-side stream cannot produce).
    std::vector<Row> left_rows;
    CGQ_RETURN_NOT_OK(Drain(left_.get(), &left_rows));
    CGQ_ASSIGN_OR_RETURN(
        spec_, JoinSpec::Make(*node_, left_->layout(), right_->layout()));

    if (spec_.RequiresNestedLoop() ||
        node_->join_method == JoinMethod::kNestedLoop) {
      std::vector<Row> right_rows;
      CGQ_RETURN_NOT_OK(Drain(right_.get(), &right_rows));
      std::vector<Row> matched;
      for (const Row& l : left_rows) {
        CGQ_RETURN_NOT_OK(CheckCancelled(cancel_));
        for (const Row& r : right_rows) {
          CGQ_RETURN_NOT_OK(spec_.EmitIfMatch(l, r, &matched).status());
        }
      }
      chunker_.Add(std::move(matched));
      drained_ = true;
    } else if (node_->join_method == JoinMethod::kSortMerge) {
      std::vector<Row> right_rows;
      CGQ_RETURN_NOT_OK(Drain(right_.get(), &right_rows));
      std::vector<Row> matched;
      CGQ_RETURN_NOT_OK(exec_internal::SortMergeJoin(
          left_rows, right_rows, spec_.key_positions,
          [&](const Row& l, const Row& r) {
            return spec_.EmitIfMatch(l, r, &matched).status();
          }));
      chunker_.Add(std::move(matched));
      drained_ = true;
    } else if (memory_budget_bytes_ > 0 &&
               RowsByteSize(left_rows) >
                   static_cast<double>(memory_budget_bytes_)) {
      // Build side over budget: grace spill. Probe batches stream into
      // the partitions from Next(); output is byte-identical to the
      // in-memory hash path.
      spill_ = std::make_unique<SpillHashJoin>(
          &spec_, SpillHashJoin::MakeSpillDir(spill_dir_),
          SpillHashJoin::PickPartitions(
              static_cast<uint64_t>(RowsByteSize(left_rows)),
              memory_budget_bytes_),
          cancel_);
      CGQ_RETURN_NOT_OK(spill_->Init());
      for (const Row& row : left_rows) {
        CGQ_RETURN_NOT_OK(spill_->AddBuild(row));
      }
    } else {
      build_rows_ = std::move(left_rows);
      table_.Build(build_rows_, spec_);
    }
    return Status::OK();
  }

  static Status Drain(BatchOp* op, std::vector<Row>* out) {
    while (true) {
      CGQ_ASSIGN_OR_RETURN(OptBatch b, op->Next());
      if (!b) return Status::OK();
      out->insert(out->end(), std::make_move_iterator(b->rows.begin()),
                  std::make_move_iterator(b->rows.end()));
    }
  }

  const PlanNode* node_;
  BatchOpPtr left_;
  BatchOpPtr right_;
  Chunker chunker_;
  RowLayout layout_;
  JoinSpec spec_;
  std::vector<Row> build_rows_;
  JoinHashTable table_;
  const std::atomic<bool>* cancel_ = nullptr;
  uint64_t memory_budget_bytes_ = 0;
  std::string spill_dir_;
  int64_t* spill_partitions_ = nullptr;
  int64_t* spill_bytes_ = nullptr;
  std::unique_ptr<SpillHashJoin> spill_;
  bool initialized_ = false;
  bool drained_ = false;
};

class AggregateOp : public BatchOp {
 public:
  AggregateOp(const PlanNode* node, BatchOpPtr child, size_t batch_size)
      : node_(node),
        child_(std::move(child)),
        chunker_(batch_size),
        layout_(LayoutOf(*node)) {}

  Result<OptBatch> Next() override {
    if (!finished_) {
      HashAggregator agg(node_);
      CGQ_RETURN_NOT_OK(agg.Init(child_->layout()));
      while (true) {
        CGQ_ASSIGN_OR_RETURN(OptBatch in, child_->Next());
        if (!in) break;
        for (const Row& row : in->rows) {
          CGQ_RETURN_NOT_OK(agg.Add(row));
        }
      }
      chunker_.Add(agg.Finish());
      finished_ = true;
    }
    if (chunker_.Empty()) return OptBatch();
    return OptBatch(chunker_.Take(layout_));
  }

  const RowLayout& layout() const override { return layout_; }

 private:
  const PlanNode* node_;
  BatchOpPtr child_;
  Chunker chunker_;
  RowLayout layout_;
  bool finished_ = false;
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
      const std::vector<size_t>& positions = remaps_[current_];
      RowBatch out;
      out.layout = layout_;
      out.rows.reserve(in->rows.size());
      for (const Row& row : in->rows) {
        Row mapped;
        mapped.reserve(positions.size());
        for (size_t p : positions) mapped.push_back(row[p]);
        out.rows.push_back(std::move(mapped));
      }
      return OptBatch(std::move(out));
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

}  // namespace

Result<BatchOpPtr> BuildBatchOp(const PlanNode& node, const BatchOpEnv& env) {
  const size_t batch_size = std::max<size_t>(1, env.batch_size);
  switch (node.kind()) {
    case PlanKind::kShip: {
      if (!env.ship_source) {
        return Status::Internal("fragment subtree contains a SHIP but no "
                                "ship source factory was supplied");
      }
      return env.ship_source(node);
    }
    case PlanKind::kScan: {
      if (env.store->storage_mode() == StorageMode::kDisk) {
        CGQ_ASSIGN_OR_RETURN(TableStore::Cursor cursor,
                             env.store->Scan(node.scan_location, node.table));
        return BatchOpPtr(new DiskScanOp(&node, std::move(cursor),
                                         batch_size, env.rows_scanned,
                                         env.storage_blocks_read));
      }
      CGQ_ASSIGN_OR_RETURN(const std::vector<Row>* rows,
                           env.store->Get(node.scan_location, node.table));
      return BatchOpPtr(
          new ScanOp(&node, rows, batch_size, env.rows_scanned));
    }
    case PlanKind::kFilter: {
      CGQ_ASSIGN_OR_RETURN(BatchOpPtr child, BuildBatchOp(*node.child(0), env));
      return BatchOpPtr(new FilterOp(&node, std::move(child)));
    }
    case PlanKind::kProject: {
      CGQ_ASSIGN_OR_RETURN(BatchOpPtr child, BuildBatchOp(*node.child(0), env));
      return ProjectOp::Make(&node, std::move(child));
    }
    case PlanKind::kJoin: {
      CGQ_ASSIGN_OR_RETURN(BatchOpPtr left, BuildBatchOp(*node.child(0), env));
      CGQ_ASSIGN_OR_RETURN(BatchOpPtr right, BuildBatchOp(*node.child(1), env));
      return BatchOpPtr(new JoinOp(&node, std::move(left), std::move(right),
                                   batch_size, env));
    }
    case PlanKind::kAggregate: {
      CGQ_ASSIGN_OR_RETURN(BatchOpPtr child, BuildBatchOp(*node.child(0), env));
      return BatchOpPtr(
          new AggregateOp(&node, std::move(child), batch_size));
    }
    case PlanKind::kUnion: {
      std::vector<BatchOpPtr> children;
      children.reserve(node.children().size());
      for (const PlanNodePtr& c : node.children()) {
        CGQ_ASSIGN_OR_RETURN(BatchOpPtr child, BuildBatchOp(*c, env));
        children.push_back(std::move(child));
      }
      return UnionOp::Make(&node, std::move(children));
    }
  }
  return Status::Internal("unhandled plan kind");
}

}  // namespace exec_internal
}  // namespace cgq
