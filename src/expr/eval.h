#ifndef CGQ_EXPR_EVAL_H_
#define CGQ_EXPR_EVAL_H_

#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "types/value.h"

namespace cgq {

/// Maps the AttrIds visible to an operator to positions in its rows.
class RowLayout {
 public:
  RowLayout() = default;
  explicit RowLayout(std::vector<AttrId> attrs) : attrs_(std::move(attrs)) {
    for (size_t i = 0; i < attrs_.size(); ++i) index_[attrs_[i]] = i;
  }

  const std::vector<AttrId>& attrs() const { return attrs_; }
  size_t size() const { return attrs_.size(); }

  /// Position of `id`, or npos when absent.
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  size_t PositionOf(AttrId id) const {
    auto it = index_.find(id);
    return it == index_.end() ? kNotFound : it->second;
  }
  bool Contains(AttrId id) const { return index_.count(id) != 0; }

 private:
  std::vector<AttrId> attrs_;
  std::unordered_map<AttrId, size_t> index_;
};

/// Evaluates a bound scalar expression against one row.
///
/// Boolean results are Int64 0/1 or NULL (SQL three-valued logic:
/// comparisons with NULL yield NULL; AND/OR use Kleene logic).
Result<Value> EvalExpr(const Expr& expr, const Row& row,
                       const RowLayout& layout);

/// SQL truthiness: non-null and non-zero / non-empty. The single
/// definition shared by the scalar evaluator and the vectorized kernels.
bool IsTruthyValue(const Value& v);

/// One comparison / arithmetic step with the exact NULL, promotion and
/// error semantics of EvalExpr. Exposed so the columnar kernels
/// (exec/vector/) fall back to the same scalar reference on untyped
/// columns instead of re-implementing the semantics.
Result<Value> EvalComparisonValues(ExprOp op, const Value& l,
                                   const Value& r);
Result<Value> EvalArithmeticValues(ExprOp op, const Value& l,
                                   const Value& r);

/// Evaluates a predicate: true iff the result is a non-null truthy value.
Result<bool> EvalPredicate(const Expr& pred, const Row& row,
                           const RowLayout& layout);

/// Incremental aggregate accumulator for one AggCall.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggFn fn) : fn_(fn) {}
  explicit AggAccumulator(const AggCall& call)
      : fn_(call.fn), merges_counts_(call.merges_counts) {}

  /// Folds one (already-evaluated) argument value. NULLs are ignored, per
  /// SQL semantics.
  void Add(const Value& v);

  /// Final value; NULL for empty SUM/AVG/MIN/MAX groups, 0 for COUNT
  /// and for a SUM that merges counts.
  Value Finish() const;

 private:
  AggFn fn_;
  bool merges_counts_ = false;
  int64_t count_ = 0;
  double sum_ = 0;
  bool sum_is_integral_ = true;
  Value min_;
  Value max_;
};

}  // namespace cgq

#endif  // CGQ_EXPR_EVAL_H_
