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

/// The error every exact int64 computation (`+ - *`, an integral SUM)
/// fails with when its result leaves int64: kInvalidArgument "integer
/// overflow" (see DESIGN.md §6).
Status IntegerOverflow();

/// Incremental aggregate accumulator for one AggCall. An integral SUM
/// (and AVG) accumulates exactly in int64 until the first double arrives;
/// from then on it continues as a double sum in input order, so every sum
/// whose partial sums stay below 2^53 is the same as a pure double fold.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggFn fn) : fn_(fn) {}
  explicit AggAccumulator(const AggCall& call)
      : fn_(call.fn), merges_counts_(call.merges_counts) {}

  /// Folds one (already-evaluated) argument value. NULLs are ignored, per
  /// SQL semantics. Fails IntegerOverflow() when an integral SUM leaves
  /// int64 (an AVG then continues in double instead), and
  /// kInvalidArgument for a SUM or AVG over a string.
  Status Add(const Value& v);

  /// Add of one non-null cell, without building its Value. AddInt64
  /// returns false where Add fails IntegerOverflow().
  [[nodiscard]] bool AddInt64(int64_t v) {
    ++count_;
    int64_t next = 0;
    switch (fn_) {
      case AggFn::kCount:
        return true;
      case AggFn::kSum:
      case AggFn::kAvg:
        if (sum_is_integral_ && !__builtin_add_overflow(isum_, v, &next)) {
          isum_ = next;
          return true;
        }
        if (sum_is_integral_) {
          if (fn_ == AggFn::kSum) return false;
          SwitchToDouble();  // an AVG's result is a double anyway
        }
        sum_ += static_cast<double>(v);
        return true;
      case AggFn::kMin:
      case AggFn::kMax:
        if (Value& m = fn_ == AggFn::kMin ? min_ : max_; m.is_int64()) {
          if (fn_ == AggFn::kMin ? v < m.int64() : v > m.int64()) {
            m = Value::Int64(v);
          }
        } else {
          FoldExtreme(Value::Int64(v));
        }
        return true;
    }
    return true;
  }
  void AddDouble(double v) {
    ++count_;
    switch (fn_) {
      case AggFn::kCount:
        return;
      case AggFn::kSum:
      case AggFn::kAvg:
        if (sum_is_integral_) SwitchToDouble();
        sum_ += v;
        return;
      case AggFn::kMin:
      case AggFn::kMax:
        // Value::Compare of two doubles: NaN compares equal to anything.
        if (Value& m = fn_ == AggFn::kMin ? min_ : max_; m.is_double()) {
          if (fn_ == AggFn::kMin ? v < m.dbl() : v > m.dbl()) {
            m = Value::Double(v);
          }
        } else {
          FoldExtreme(Value::Double(v));
        }
        return;
    }
  }

  /// Final value; NULL for empty SUM/AVG/MIN/MAX groups, 0 for COUNT
  /// and for a SUM that merges counts.
  Value Finish() const;

 private:
  void SwitchToDouble() {
    sum_ = static_cast<double>(isum_);
    sum_is_integral_ = false;
  }
  /// MIN/MAX step of a non-null value through Value::Compare.
  void FoldExtreme(const Value& v);

  AggFn fn_;
  bool merges_counts_ = false;
  int64_t count_ = 0;
  bool sum_is_integral_ = true;
  int64_t isum_ = 0;  ///< the exact sum while sum_is_integral_
  double sum_ = 0;    ///< the sum once a double arrived
  Value min_;
  Value max_;
};

}  // namespace cgq

#endif  // CGQ_EXPR_EVAL_H_
