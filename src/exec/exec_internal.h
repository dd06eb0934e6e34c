#ifndef CGQ_EXEC_EXEC_INTERNAL_H_
#define CGQ_EXEC_EXEC_INTERNAL_H_

#include <array>
#include <atomic>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "exec/vector/column_batch.h"
#include "expr/eval.h"
#include "plan/plan_node.h"

namespace cgq {
namespace exec_internal {

/// Operator machinery shared by the executor backends. The columnar
/// fragment runtime (exec/batch_ops.h) joins with one match finder
/// (ColumnJoinTable) and one gather-and-residual step (JoinGather): hash
/// probes, nested loops and the grace spill's partitions (spill_join.h)
/// all feed (build row, probe row) pairs into it. The row interpreter
/// (the kRow oracle) runs on JoinHashTable, EmitIfMatch and
/// HashAggregator. Both take JoinSpec. The two can only be validated
/// byte-for-byte because the orders below are *defined*, not accidents
/// of standard-library hash containers:
///
///  - Hash join: probe rows in input order; per probe row, matching build
///    rows in build (insertion) order.
///  - Nested loop: left (build) rows in input order; per left row,
///    right rows in input order.
///  - Aggregation: groups emitted in first-seen order of their keys.
///
/// (See DESIGN.md §12, "the row-reference validation contract".)

/// Cooperative cancellation (ExecutorOptions::cancel), checked per batch
/// and inside materialized-join loops. nullptr = not cancellable.
Status CheckCancelled(const std::atomic<bool>* cancel);

/// Layout of an operator's output rows.
RowLayout LayoutOf(const PlanNode& node);

/// Hash-table key wrapper with structural row equality.
struct RowKey {
  Row values;
  bool operator==(const RowKey& other) const {
    return RowsStructurallyEqual(values, other.values);
  }
};
struct RowKeyHash {
  size_t operator()(const RowKey& k) const { return HashRow(k.values); }
};

/// Positions of `ids` inside `layout`; error mentions `context` when an
/// attribute is missing.
Result<std::vector<size_t>> PositionsOf(const std::vector<AttrId>& ids,
                                        const RowLayout& layout,
                                        const char* context);

/// True when the row passes every conjunct (NULL-rejecting).
Result<bool> KeepRow(const std::vector<ExprPtr>& conjuncts, const Row& row,
                     const RowLayout& layout);

/// A join's physical recipe against concrete child layouts: equi-key
/// positions usable for hashing, residual conjuncts, and the
/// mapping from the concatenated (left ++ right) row to the node's
/// canonical output order.
struct JoinSpec {
  std::vector<std::pair<size_t, size_t>> key_positions;  // (left, right)
  std::vector<ExprPtr> residual;
  RowLayout combined;                // left ++ right
  std::vector<size_t> out_positions; // combined position per output attr

  static Result<JoinSpec> Make(const PlanNode& node, const RowLayout& left,
                               const RowLayout& right);

  /// True when the join has no usable equi-keys: it runs as a nested
  /// loop.
  bool RequiresNestedLoop() const { return key_positions.empty(); }

  /// Row oracle: applies the residual conjuncts to l ++ r; on success
  /// appends the reordered output row to `*out` and returns true.
  Result<bool> EmitIfMatch(const Row& l, const Row& r,
                           std::vector<Row>* out) const;
};

/// Rearranges column handles into `layout` (projection, union branches,
/// join output).
vec::ColumnBatch Remap(vec::ColumnBatch in,
                       const std::vector<size_t>& positions,
                       const RowLayout& layout);

/// Appends rows [begin, end) of `batch` (through its selection) to
/// `cols`, one per column.
void AppendRows(const vec::ColumnBatch& batch, size_t begin, size_t end,
                std::vector<vec::ColumnVector>* cols);

/// Equi-join match finder over columns, with the defined match order of
/// JoinHashTable: probe rows in input order; per probe row, build rows in
/// build (insertion) order. Rows with a NULL key do not participate. Keys
/// of up to four int64 build columns (every TPC-H join) are compared as
/// plain integers, with each key's build rows chained in insertion order;
/// other shapes hash RowKeys exactly like the row backend.
class ColumnJoinTable {
 public:
  /// `build` must be dense (its selection the identity).
  void Build(const vec::ColumnBatch& build, const JoinSpec& spec) {
    int_keys_ = spec.key_positions.size() <= kMaxIntKeys;
    for (auto [lp, rp] : spec.key_positions) {
      int_keys_ &= build.columns[lp]->tag == vec::ColumnTag::kInt64;
    }
    const size_t n = build.NumRows();
    if (int_keys_) {
      int_table_.reserve(n);
      next_.assign(n, kEnd);
      IntKey key;
      for (uint32_t i = 0; i < n; ++i) {
        if (!IntKeyOf(build, spec, /*build_side=*/true, i, &key)) continue;
        auto [it, inserted] = int_table_.try_emplace(key, i, i);
        if (!inserted) {
          next_[it->second.second] = i;
          it->second.second = i;
        }
      }
      return;
    }
    table_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      RowKey key;
      if (KeyOf(build, spec, /*build_side=*/true, i, &key)) {
        table_[std::move(key)].push_back(static_cast<uint32_t>(i));
      }
    }
  }

  /// Appends every match of `probe`'s rows as (build row, probe column
  /// row) pairs to `li` / `ri`.
  Status Probe(const vec::ColumnBatch& probe, const JoinSpec& spec,
               const std::atomic<bool>* cancel, vec::SelVec* li,
               vec::SelVec* ri) const {
    for (size_t k = 0; k < probe.NumRows(); ++k) {
      if ((k & 0x3ff) == 0) CGQ_RETURN_NOT_OK(CheckCancelled(cancel));
      const uint32_t r = probe.sel[k];
      if (int_keys_) {
        IntKey key;
        if (!IntKeyOf(probe, spec, /*build_side=*/false, r, &key)) continue;
        auto it = int_table_.find(key);
        if (it == int_table_.end()) continue;
        for (uint32_t l = it->second.first; l != kEnd; l = next_[l]) {
          li->push_back(l);
          ri->push_back(r);
        }
        continue;
      }
      RowKey key;
      if (!KeyOf(probe, spec, /*build_side=*/false, r, &key)) continue;
      auto it = table_.find(key);
      if (it == table_.end()) continue;
      for (uint32_t l : it->second) {
        li->push_back(l);
        ri->push_back(r);
      }
    }
    return Status::OK();
  }

 private:
  static constexpr size_t kMaxIntKeys = 4;
  static constexpr uint32_t kEnd = static_cast<uint32_t>(-1);
  /// Int64 key values; slots past the key count stay zero.
  using IntKey = std::array<int64_t, kMaxIntKeys>;
  struct IntKeyHash {
    size_t operator()(const IntKey& key) const {
      uint64_t h = 0;
      for (int64_t v : key) {
        h = (h ^ static_cast<uint64_t>(v)) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 29;
      }
      return static_cast<size_t>(h);
    }
  };

  /// The int64 join key of column row `i`; false when a key value is NULL
  /// or not an int64 (such a row equals no int64 build key).
  static bool IntKeyOf(const vec::ColumnBatch& batch, const JoinSpec& spec,
                       bool build_side, size_t i, IntKey* key) {
    *key = IntKey{};
    for (size_t c = 0; c < spec.key_positions.size(); ++c) {
      auto [lp, rp] = spec.key_positions[c];
      const vec::ColumnVector& col = *batch.columns[build_side ? lp : rp];
      if (col.tag == vec::ColumnTag::kInt64) {
        if (col.nulls.IsNull(i)) return false;
        (*key)[c] = col.i64[i];
        continue;
      }
      Value v = col.GetValue(i);
      if (!v.is_int64()) return false;
      (*key)[c] = v.int64();
    }
    return true;
  }

  /// The join key of column row `i`; false when a key value is NULL.
  static bool KeyOf(const vec::ColumnBatch& batch, const JoinSpec& spec,
                    bool build_side, size_t i, RowKey* key) {
    for (auto [lp, rp] : spec.key_positions) {
      Value v = batch.columns[build_side ? lp : rp]->GetValue(i);
      if (v.is_null()) return false;
      key->values.push_back(std::move(v));
    }
    return true;
  }

  bool int_keys_ = false;
  /// Int64 keys: key -> (first, last) build row of its chain, and the
  /// next build row of each row's chain, in insertion order.
  std::unordered_map<IntKey, std::pair<uint32_t, uint32_t>, IntKeyHash>
      int_table_;
  std::vector<uint32_t> next_;
  std::unordered_map<RowKey, std::vector<uint32_t>, RowKeyHash> table_;
};

/// The step every columnar join path ends in. Given matched (build row,
/// probe row) pairs, it gathers only the columns the output or the
/// residual reference out of the conceptual combined (build ++ probe)
/// batch, narrows the selection with the residual conjuncts and remaps
/// the columns to the join's output order. The result's selection
/// indexes the pairs: output row k is pair sel[k].
class JoinGather {
 public:
  JoinGather() = default;
  explicit JoinGather(const JoinSpec& spec);

  /// `build` holds the build-side columns; `probe` the probe-side
  /// columns, possibly followed by more (the spill's ordinals), which
  /// are never gathered. `li`/`ri` index their column rows.
  Result<vec::ColumnBatch> Gather(const vec::ColumnBatch& build,
                                  const vec::ColumnBatch& probe,
                                  const vec::SelVec& li,
                                  const vec::SelVec& ri) const;

  /// The join's output layout.
  const RowLayout& layout() const { return out_layout_; }

 private:
  std::vector<ExprPtr> residual_;
  /// Combined positions gathered per match, their layout, and the
  /// gathered position of every output column.
  std::vector<size_t> gathered_;
  RowLayout gathered_layout_;
  std::vector<size_t> out_columns_;
  RowLayout out_layout_;
};

/// The row oracle's build/probe hash table over the left input of an
/// equi-join. Building inserts left rows in index order; Probe emits
/// matches in build order per key (the defined order every backend must
/// reproduce).
class JoinHashTable {
 public:
  void Build(const std::vector<Row>& left, const JoinSpec& spec);

  /// Invokes `fn(left_row)` for every left row whose keys match
  /// `right_row` (skipping NULL keys), in build (insertion) order.
  template <typename Fn>
  Status Probe(const Row& right_row, const JoinSpec& spec,
               const Fn& fn) const {
    RowKey key;
    bool has_null = false;
    for (auto [lp, rp] : spec.key_positions) {
      has_null |= right_row[rp].is_null();
      key.values.push_back(right_row[rp]);
    }
    if (has_null) return Status::OK();
    auto it = table_.find(key);
    if (it == table_.end()) return Status::OK();
    for (size_t index : it->second) {
      CGQ_RETURN_NOT_OK(fn((*left_)[index]));
    }
    return Status::OK();
  }

 private:
  const std::vector<Row>* left_ = nullptr;
  /// Key -> left row indices in build order.
  std::unordered_map<RowKey, std::vector<size_t>, RowKeyHash> table_;
};

/// Streaming hash aggregation with the exact accumulation and output-order
/// semantics every backend must reproduce: rows are folded one at a time
/// in input order, and Finish() emits groups in first-seen order of their
/// keys.
class HashAggregator {
 public:
  /// `node` must outlive the aggregator.
  explicit HashAggregator(const PlanNode* node) : node_(node) {}

  Status Init(const RowLayout& in_layout);
  Status Add(const Row& row);
  /// SQL semantics: a global aggregate over an empty input yields one row.
  std::vector<Row> Finish();

 private:
  struct GroupState {
    Row key;
    std::vector<AggAccumulator> accs;
  };

  const PlanNode* node_;
  RowLayout in_layout_;
  std::vector<size_t> group_positions_;
  /// Key -> index into `groups_` (which keeps first-seen order).
  std::unordered_map<RowKey, size_t, RowKeyHash> group_index_;
  std::vector<GroupState> groups_;
};

}  // namespace exec_internal
}  // namespace cgq

#endif  // CGQ_EXEC_EXEC_INTERNAL_H_
