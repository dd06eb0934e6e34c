#ifndef CGQ_EXEC_EXEC_INTERNAL_H_
#define CGQ_EXEC_EXEC_INTERNAL_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "expr/eval.h"
#include "plan/plan_node.h"

namespace cgq {
namespace exec_internal {

/// Shared operator machinery of the executor backends. The row
/// interpreter runs on it; the columnar fragment runtime
/// (exec/batch_ops.h) re-implements scans, filters, hash joins and
/// aggregation against typed columns and delegates the rest (join specs,
/// sort-merge, nested loop, the grace spill). The two can only be
/// validated byte-for-byte because the orders below are *defined*, not
/// accidents of standard-library hash containers:
///
///  - Hash join: probe rows in input order; per probe row, matching build
///    rows in build (insertion) order.
///  - Aggregation: groups emitted in first-seen order of their keys.
///
/// (See DESIGN.md §12, "the row-reference validation contract".)

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
/// positions usable for hashing/merging, residual conjuncts, and the
/// mapping from the concatenated (left ++ right) row to the node's
/// canonical output order.
struct JoinSpec {
  std::vector<std::pair<size_t, size_t>> key_positions;  // (left, right)
  std::vector<ExprPtr> residual;
  RowLayout combined;                // left ++ right
  std::vector<size_t> out_positions; // combined position per output attr
  JoinMethod method = JoinMethod::kHash;

  static Result<JoinSpec> Make(const PlanNode& node, const RowLayout& left,
                               const RowLayout& right);

  /// True when nested-loop is required (no usable equi-keys).
  bool RequiresNestedLoop() const { return key_positions.empty(); }

  /// Applies the residual conjuncts to l ++ r; on success appends the
  /// reordered output row to `*out` and returns true.
  Result<bool> EmitIfMatch(const Row& l, const Row& r,
                           std::vector<Row>* out) const;
};

/// Build/probe hash table over the left input of an equi-join. Building
/// inserts left rows in index order; Probe emits matches in build order
/// per key (the defined order every backend must reproduce).
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

/// Classic sort-merge: sorts both inputs on the equi-keys and merges
/// duplicate blocks. Rows with NULL keys do not participate. `emit` is
/// `Status(const Row& left, const Row& right)`.
template <typename EmitFn>
Status SortMergeJoin(std::vector<Row>& left, std::vector<Row>& right,
                     const std::vector<std::pair<size_t, size_t>>& keys,
                     const EmitFn& emit) {
  auto key_compare = [&](const Row& a, const Row& b, bool a_left,
                         bool b_left) {
    for (auto [lp, rp] : keys) {
      const Value& va = a[a_left ? lp : rp];
      const Value& vb = b[b_left ? lp : rp];
      int c = va.Compare(vb);
      if (c != 0) return c;
    }
    return 0;
  };
  auto drop_null_keys = [&](std::vector<Row>* rows, bool is_left) {
    rows->erase(std::remove_if(rows->begin(), rows->end(),
                               [&](const Row& r) {
                                 for (auto [lp, rp] : keys) {
                                   if (r[is_left ? lp : rp].is_null()) {
                                     return true;
                                   }
                                 }
                                 return false;
                               }),
                rows->end());
  };
  drop_null_keys(&left, true);
  drop_null_keys(&right, false);
  auto sort_side = [&](std::vector<Row>* rows, bool is_left) {
    std::sort(rows->begin(), rows->end(), [&](const Row& a, const Row& b) {
      return key_compare(a, b, is_left, is_left) < 0;
    });
  };
  sort_side(&left, true);
  sort_side(&right, false);

  size_t i = 0, j = 0;
  while (i < left.size() && j < right.size()) {
    int c = key_compare(left[i], right[j], true, false);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      // Duplicate blocks with equal keys on both sides.
      size_t i_end = i + 1;
      while (i_end < left.size() &&
             key_compare(left[i], left[i_end], true, true) == 0) {
        ++i_end;
      }
      size_t j_end = j + 1;
      while (j_end < right.size() &&
             key_compare(right[j], right[j_end], false, false) == 0) {
        ++j_end;
      }
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          CGQ_RETURN_NOT_OK(emit(left[a], right[b]));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return Status::OK();
}

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
