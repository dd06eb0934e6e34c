#ifndef CGQ_EXEC_VECTOR_KERNELS_H_
#define CGQ_EXEC_VECTOR_KERNELS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/vector/column_batch.h"
#include "expr/expr.h"

namespace cgq {
namespace vec {

/// Result of evaluating an expression over the selected rows of a batch.
/// Exactly one representation is active:
///  - a constant (the same Value for every selected row),
///  - a reference to a batch column, indexed *through* the selection
///    vector (zero-copy column refs), or
///  - an owned column parallel to the selection vector (kernel outputs).
struct VecVal {
  bool is_const = false;
  Value cval;
  const ColumnVector* ref = nullptr;
  ColumnVector owned;

  static VecVal Const(Value v) {
    VecVal out;
    out.is_const = true;
    out.cval = std::move(v);
    return out;
  }
  static VecVal Ref(const ColumnVector* col) {
    VecVal out;
    out.ref = col;
    return out;
  }
  static VecVal Owned(ColumnVector col) {
    VecVal out;
    out.owned = std::move(col);
    return out;
  }

  const ColumnVector& col() const { return ref != nullptr ? *ref : owned; }
  /// Physical index of selected row `k` in col().
  size_t IndexOf(const SelVec& sel, size_t k) const {
    return ref != nullptr ? sel[k] : k;
  }
  /// Value of selected row `k` (materializing; kernels use typed access).
  Value At(const SelVec& sel, size_t k) const {
    return is_const ? cval : col().GetValue(IndexOf(sel, k));
  }
};

/// Vectorized EvalExpr: evaluates `expr` for every row in `sel` (a
/// batch's selection, ascending).
///
/// Produces the exact per-row values of the scalar evaluator (typed fast
/// paths mirror Value::Compare / EvalArithmeticValues semantics; kValue
/// columns degrade to the scalar reference elementwise). AND, OR, NOT,
/// comparisons, LIKE and IN are one selection-splitting evaluator that
/// runs every operand on exactly the rows where EvalExpr evaluates it
/// (AND's and OR's right operands only on the rows the left one left
/// undecided), so evaluation fails exactly when EvalExpr fails on some
/// selected row. Only *which* failing row's message surfaces first may
/// differ: kernels run operand by operand, not row by row (see
/// DESIGN.md §12).
Result<VecVal> EvalExprVec(const Expr& expr, const ColumnBatch& batch,
                           const SelVec& sel);

/// Narrows `*sel` to the rows passing every conjunct: each conjunct's
/// split keeps its TRUE rows. Conjuncts run in order, each only over the
/// survivors of the previous ones — the vectorized form of KeepRow's
/// short-circuit.
Status FilterSel(const std::vector<ExprPtr>& conjuncts,
                 const ColumnBatch& batch, SelVec* sel);

}  // namespace vec
}  // namespace cgq

#endif  // CGQ_EXEC_VECTOR_KERNELS_H_
