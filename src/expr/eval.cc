#include "expr/eval.h"

#include <cmath>

#include "common/str_util.h"

namespace cgq {

namespace {

Value BoolValue(bool b) { return Value::Int64(b ? 1 : 0); }

}  // namespace

bool IsTruthyValue(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int64()) return v.int64() != 0;
  if (v.is_double()) return v.dbl() != 0;
  return !v.str().empty();
}

Result<Value> EvalComparisonValues(ExprOp op, const Value& l,
                                   const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (l.is_string() != r.is_string()) {
    return Status::InvalidArgument("comparing incompatible value families");
  }
  int c = l.Compare(r);
  switch (op) {
    case ExprOp::kEq:
      return BoolValue(c == 0);
    case ExprOp::kNe:
      return BoolValue(c != 0);
    case ExprOp::kLt:
      return BoolValue(c < 0);
    case ExprOp::kLe:
      return BoolValue(c <= 0);
    case ExprOp::kGt:
      return BoolValue(c > 0);
    case ExprOp::kGe:
      return BoolValue(c >= 0);
    default:
      return Status::Internal("not a comparison");
  }
}

Result<Value> EvalArithmeticValues(ExprOp op, const Value& l,
                                   const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::InvalidArgument("arithmetic requires numeric operands");
  }
  if (op == ExprOp::kDiv) {
    double d = r.AsDouble();
    if (d == 0) return Value::Null();  // SQL engines differ; NULL is safe.
    return Value::Double(l.AsDouble() / d);
  }
  if (l.is_int64() && r.is_int64()) {
    int64_t a = l.int64(), b = r.int64(), out = 0;
    bool overflow = false;
    switch (op) {
      case ExprOp::kAdd:
        overflow = __builtin_add_overflow(a, b, &out);
        break;
      case ExprOp::kSub:
        overflow = __builtin_sub_overflow(a, b, &out);
        break;
      case ExprOp::kMul:
        overflow = __builtin_mul_overflow(a, b, &out);
        break;
      default:
        return Status::Internal("not arithmetic");
    }
    if (overflow) return IntegerOverflow();
    return Value::Int64(out);
  }
  double a = l.AsDouble(), b = r.AsDouble();
  switch (op) {
    case ExprOp::kAdd:
      return Value::Double(a + b);
    case ExprOp::kSub:
      return Value::Double(a - b);
    case ExprOp::kMul:
      return Value::Double(a * b);
    default:
      return Status::Internal("not arithmetic");
  }
}

Result<Value> EvalExpr(const Expr& expr, const Row& row,
                       const RowLayout& layout) {
  switch (expr.op()) {
    case ExprOp::kLiteral:
      return expr.literal();
    case ExprOp::kColumnRef: {
      size_t pos = layout.PositionOf(expr.attr_id());
      if (pos == RowLayout::kNotFound) {
        return Status::Internal("attr " + expr.ToString() +
                                " not in row layout");
      }
      return row[pos];
    }
    case ExprOp::kAnd: {
      CGQ_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.child(0), row, layout));
      if (!l.is_null() && !IsTruthyValue(l)) return BoolValue(false);
      CGQ_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.child(1), row, layout));
      if (!r.is_null() && !IsTruthyValue(r)) return BoolValue(false);
      if (l.is_null() || r.is_null()) return Value::Null();
      return BoolValue(true);
    }
    case ExprOp::kOr: {
      CGQ_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.child(0), row, layout));
      if (!l.is_null() && IsTruthyValue(l)) return BoolValue(true);
      CGQ_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.child(1), row, layout));
      if (!r.is_null() && IsTruthyValue(r)) return BoolValue(true);
      if (l.is_null() || r.is_null()) return Value::Null();
      return BoolValue(false);
    }
    case ExprOp::kNot: {
      CGQ_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.child(0), row, layout));
      if (v.is_null()) return Value::Null();
      return BoolValue(!IsTruthyValue(v));
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe: {
      CGQ_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.child(0), row, layout));
      CGQ_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.child(1), row, layout));
      return EvalComparisonValues(expr.op(), l, r);
    }
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv: {
      CGQ_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.child(0), row, layout));
      CGQ_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.child(1), row, layout));
      return EvalArithmeticValues(expr.op(), l, r);
    }
    case ExprOp::kLike:
    case ExprOp::kNotLike: {
      CGQ_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.child(0), row, layout));
      CGQ_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.child(1), row, layout));
      if (l.is_null() || r.is_null()) return Value::Null();
      if (!l.is_string() || !r.is_string()) {
        return Status::InvalidArgument("LIKE requires string operands");
      }
      bool m = LikeMatch(l.str(), r.str());
      return BoolValue(expr.op() == ExprOp::kLike ? m : !m);
    }
    case ExprOp::kIn: {
      CGQ_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.child(0), row, layout));
      if (v.is_null()) return Value::Null();
      for (const Value& candidate : expr.in_list()) {
        if (!candidate.is_null() && v.Equals(candidate)) {
          return BoolValue(true);
        }
      }
      return BoolValue(false);
    }
  }
  return Status::Internal("unhandled expression op");
}

Result<bool> EvalPredicate(const Expr& pred, const Row& row,
                           const RowLayout& layout) {
  CGQ_ASSIGN_OR_RETURN(Value v, EvalExpr(pred, row, layout));
  return !v.is_null() && IsTruthyValue(v);
}

Status IntegerOverflow() {
  return Status::InvalidArgument("integer overflow");
}

Status AggAccumulator::Add(const Value& v) {
  if (v.is_null()) return Status::OK();
  if (v.is_int64()) {
    return AddInt64(v.int64()) ? Status::OK() : IntegerOverflow();
  }
  if (v.is_double()) {
    AddDouble(v.dbl());
    return Status::OK();
  }
  if (fn_ == AggFn::kSum || fn_ == AggFn::kAvg) {
    return Status::InvalidArgument("SUM and AVG require a numeric argument");
  }
  ++count_;
  if (fn_ != AggFn::kCount) FoldExtreme(v);
  return Status::OK();
}

void AggAccumulator::FoldExtreme(const Value& v) {
  if (fn_ == AggFn::kMin) {
    if (min_.is_null() || v.Compare(min_) < 0) min_ = v;
  } else if (max_.is_null() || v.Compare(max_) > 0) {
    max_ = v;
  }
}

Value AggAccumulator::Finish() const {
  switch (fn_) {
    case AggFn::kCount:
      return Value::Int64(count_);
    case AggFn::kSum:
      if (count_ == 0) {
        return merges_counts_ ? Value::Int64(0) : Value::Null();
      }
      return sum_is_integral_ ? Value::Int64(isum_) : Value::Double(sum_);
    case AggFn::kAvg:
      if (count_ == 0) return Value::Null();
      return Value::Double(
          (sum_is_integral_ ? static_cast<double>(isum_) : sum_) /
          static_cast<double>(count_));
    case AggFn::kMin:
      return min_;
    case AggFn::kMax:
      return max_;
  }
  return Value::Null();
}

}  // namespace cgq
