#include "exec/vector/kernels.h"

#include <string>
#include <string_view>

#include "common/str_util.h"
#include "expr/eval.h"

namespace cgq {
namespace vec {

namespace {

/// Tri-state predicate outcome per selected row (SQL three-valued logic).
enum Tri : uint8_t { kTriFalse = 0, kTriTrue = 1, kTriNull = 2 };

/// One comparison/arithmetic operand classified for the typed fast paths.
/// kGeneric covers kValue columns; family mixes between the sides route
/// the whole kernel to the elementwise scalar fallback instead.
struct Operand {
  enum Kind {
    kConstInt,
    kConstDouble,
    kConstString,
    kIntCol,
    kDoubleCol,
    kStringCol,
    kGeneric,
  };
  Kind kind = kGeneric;
  int64_t ci = 0;
  double cd = 0;
  const std::string* cs = nullptr;
  const ColumnVector* col = nullptr;
  bool indirect = false;  ///< column indexed via sel (a batch-column ref)

  bool IsNumeric() const {
    return kind == kConstInt || kind == kConstDouble || kind == kIntCol ||
           kind == kDoubleCol;
  }
  bool IsString() const {
    return kind == kConstString || kind == kStringCol;
  }
  bool IsInt() const { return kind == kConstInt || kind == kIntCol; }
  bool IsCol() const {
    return kind == kIntCol || kind == kDoubleCol || kind == kStringCol;
  }

  size_t Index(const SelVec& sel, size_t k) const {
    return indirect ? sel[k] : k;
  }
  bool NullAt(const SelVec& sel, size_t k) const {
    return IsCol() && col->nulls.IsNull(Index(sel, k));
  }
  int64_t IntAt(const SelVec& sel, size_t k) const {
    return kind == kConstInt ? ci : col->i64[Index(sel, k)];
  }
  double DoubleAt(const SelVec& sel, size_t k) const {
    switch (kind) {
      case kConstInt:
        return static_cast<double>(ci);
      case kConstDouble:
        return cd;
      case kIntCol:
        return static_cast<double>(col->i64[Index(sel, k)]);
      default:
        return col->f64[Index(sel, k)];
    }
  }
  const std::string& StrAt(const SelVec& sel, size_t k) const {
    return kind == kConstString ? *cs : col->str[Index(sel, k)];
  }
};

Operand Classify(const VecVal& v) {
  Operand op;
  if (v.is_const) {
    // Const NULLs are short-circuited by the kernels before Classify.
    if (v.cval.is_int64()) {
      op.kind = Operand::kConstInt;
      op.ci = v.cval.int64();
    } else if (v.cval.is_double()) {
      op.kind = Operand::kConstDouble;
      op.cd = v.cval.dbl();
    } else if (v.cval.is_string()) {
      op.kind = Operand::kConstString;
      op.cs = &v.cval.str();
    }
    return op;
  }
  op.col = &v.col();
  op.indirect = v.ref != nullptr;
  switch (op.col->tag) {
    case ColumnTag::kInt64:
      op.kind = Operand::kIntCol;
      break;
    case ColumnTag::kDouble:
      op.kind = Operand::kDoubleCol;
      break;
    case ColumnTag::kString:
      op.kind = Operand::kStringCol;
      break;
    case ColumnTag::kValue:
      op.kind = Operand::kGeneric;
      break;
  }
  return op;
}

/// Fresh int64 boolean output column with `n` slots reserved.
ColumnVector BoolCol(size_t n) {
  ColumnVector out;
  out.tag = ColumnTag::kInt64;
  out.i64.reserve(n);
  return out;
}

void PushBool(ColumnVector* out, bool b) {
  out->i64.push_back(b ? 1 : 0);
  out->nulls.AppendBit(false);
}

void PushNull(ColumnVector* out) {
  switch (out->tag) {
    case ColumnTag::kInt64:
      out->i64.push_back(0);
      break;
    case ColumnTag::kDouble:
      out->f64.push_back(0);
      break;
    default:
      break;
  }
  out->nulls.AppendBit(true);
}

bool ApplyCmp(ExprOp op, int c) {
  switch (op) {
    case ExprOp::kEq:
      return c == 0;
    case ExprOp::kNe:
      return c != 0;
    case ExprOp::kLt:
      return c < 0;
    case ExprOp::kLe:
      return c <= 0;
    case ExprOp::kGt:
      return c > 0;
    default:
      return c >= 0;  // kGe
  }
}

/// Reads one operand of a typed comparison as T: a constant, or a column
/// payload P at sel[k] (a batch column) or at k (a kernel output).
template <typename T, typename P>
struct Reader {
  T constant{};
  const P* data = nullptr;
  const NullBitmap* nulls = nullptr;  ///< set when the column has NULLs
  bool indirect = false;

  size_t Index(const uint32_t* sel, size_t k) const {
    return indirect ? sel[k] : k;
  }
  bool Null(const uint32_t* sel, size_t k) const {
    return nulls != nullptr && nulls->IsNull(Index(sel, k));
  }
  T Get(const uint32_t* sel, size_t k) const {
    if (data == nullptr) return constant;
    return static_cast<T>(data[Index(sel, k)]);
  }
};

template <typename T, typename P>
Reader<T, P> ColumnReader(const Operand& op, const std::vector<P>& payload) {
  Reader<T, P> r;
  r.data = payload.data();
  if (op.col->nulls.AnyNull()) r.nulls = &op.col->nulls;
  r.indirect = op.indirect;
  return r;
}

template <typename T, typename P>
Reader<T, P> ConstReader(T constant) {
  Reader<T, P> r;
  r.constant = constant;
  return r;
}

/// Calls emit(k, null, c) for each selected row k in order: whether
/// either side is NULL, and the three-way comparison c (-1, 0 or 1; NaN
/// compares equal). emit may overwrite sel[j] for j <= k: sel[k] is read
/// before emit(k, ...) runs.
template <typename L, typename R, typename Emit>
void CompareEach(const L& l, const R& r, const SelVec& sel, Emit emit) {
  const uint32_t* rows = sel.data();
  const bool any_null = l.nulls != nullptr || r.nulls != nullptr;
  for (size_t k = 0; k < sel.size(); ++k) {
    const auto x = l.Get(rows, k);
    const auto y = r.Get(rows, k);
    const bool null = any_null && (l.Null(rows, k) || r.Null(rows, k));
    emit(k, null, x < y ? -1 : (x > y ? 1 : 0));
  }
}

/// CompareEach over a typed pair of operands: int/int compares as int64,
/// any other numeric pair as double, strings by their bytes. False, with
/// no emit, when the pair needs the scalar fallback (kValue columns,
/// family mixes).
template <typename Emit>
bool CompareTyped(const Operand& a, const Operand& b, const SelVec& sel,
                  Emit emit) {
  if (a.IsString() && b.IsString()) {
    auto str = [](const Operand& o) {
      return o.IsCol() ? ColumnReader<std::string_view>(o, o.col->str)
                       : ConstReader<std::string_view, std::string>(*o.cs);
    };
    CompareEach(str(a), str(b), sel, emit);
    return true;
  }
  if (!a.IsNumeric() || !b.IsNumeric()) return false;
  if (a.IsInt() && b.IsInt()) {
    auto i64 = [](const Operand& o) {
      return o.IsCol() ? ColumnReader<int64_t>(o, o.col->i64)
                       : ConstReader<int64_t, int64_t>(o.ci);
    };
    CompareEach(i64(a), i64(b), sel, emit);
    return true;
  }
  // At most one side is an int64 column; its payload widens per row.
  auto f64 = [](const Operand& o) {
    return o.kind == Operand::kDoubleCol
               ? ColumnReader<double>(o, o.col->f64)
               : ConstReader<double, double>(
                     o.kind == Operand::kConstInt ? static_cast<double>(o.ci)
                                                  : o.cd);
  };
  if (a.kind == Operand::kIntCol) {
    CompareEach(ColumnReader<double>(a, a.col->i64), f64(b), sel, emit);
  } else if (b.kind == Operand::kIntCol) {
    CompareEach(f64(a), ColumnReader<double>(b, b.col->i64), sel, emit);
  } else {
    CompareEach(f64(a), f64(b), sel, emit);
  }
  return true;
}

Result<VecVal> CompareVec(ExprOp op, const VecVal& l, const VecVal& r,
                          const SelVec& sel) {
  // NULL compared to anything is NULL — checked before operand families,
  // exactly like the scalar evaluator.
  if ((l.is_const && l.cval.is_null()) ||
      (r.is_const && r.cval.is_null())) {
    return VecVal::Const(Value::Null());
  }
  if (l.is_const && r.is_const) {
    CGQ_ASSIGN_OR_RETURN(Value v, EvalComparisonValues(op, l.cval, r.cval));
    return VecVal::Const(std::move(v));
  }
  const size_t n = sel.size();
  Operand a = Classify(l);
  Operand b = Classify(r);
  ColumnVector out = BoolCol(n);
  const bool typed =
      CompareTyped(a, b, sel, [&](size_t, bool null, int c) {
        if (null) {
          PushNull(&out);
        } else {
          PushBool(&out, ApplyCmp(op, c));
        }
      });
  if (!typed) {
    // kValue columns or family mixes: the scalar reference, elementwise.
    for (size_t k = 0; k < n; ++k) {
      CGQ_ASSIGN_OR_RETURN(
          Value v, EvalComparisonValues(op, l.At(sel, k), r.At(sel, k)));
      out.AppendValue(v);
    }
  }
  return VecVal::Owned(std::move(out));
}

/// Narrows `sel` to the rows where `l op r` holds, in one pass that
/// builds no boolean column: the rows CompareVec's result keeps. False,
/// with `sel` untouched, when the operands need CompareVec (two
/// constants, kValue columns, family mixes).
bool CompareSel(ExprOp op, const VecVal& l, const VecVal& r, SelVec* sel) {
  if (l.is_const && r.is_const) return false;
  if ((l.is_const && l.cval.is_null()) || (r.is_const && r.cval.is_null())) {
    sel->clear();
    return true;
  }
  // Bit c + 1 of `keep` is set when outcome c satisfies `op`.
  int keep = 0;
  for (int c = -1; c <= 1; ++c) keep |= ApplyCmp(op, c) << (c + 1);
  uint32_t* rows = sel->data();
  size_t out = 0;
  if (!CompareTyped(Classify(l), Classify(r), *sel,
                    [&](size_t k, bool null, int c) {
                      rows[out] = rows[k];
                      out += !null && ((keep >> (c + 1)) & 1);
                    })) {
    return false;
  }
  sel->resize(out);
  return true;
}

Result<VecVal> ArithmeticVec(ExprOp op, const VecVal& l, const VecVal& r,
                             const SelVec& sel) {
  if ((l.is_const && l.cval.is_null()) ||
      (r.is_const && r.cval.is_null())) {
    return VecVal::Const(Value::Null());
  }
  if (l.is_const && r.is_const) {
    CGQ_ASSIGN_OR_RETURN(Value v, EvalArithmeticValues(op, l.cval, r.cval));
    return VecVal::Const(std::move(v));
  }
  const size_t n = sel.size();
  Operand a = Classify(l);
  Operand b = Classify(r);
  ColumnVector out;
  if (a.IsNumeric() && b.IsNumeric()) {
    if (op == ExprOp::kDiv) {
      // Division is always double; a zero divisor yields NULL.
      out.tag = ColumnTag::kDouble;
      out.f64.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        if (a.NullAt(sel, k) || b.NullAt(sel, k)) {
          PushNull(&out);
          continue;
        }
        double d = b.DoubleAt(sel, k);
        if (d == 0) {
          PushNull(&out);
          continue;
        }
        out.f64.push_back(a.DoubleAt(sel, k) / d);
        out.nulls.AppendBit(false);
      }
    } else if (a.IsInt() && b.IsInt()) {
      out.tag = ColumnTag::kInt64;
      out.i64.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        if (a.NullAt(sel, k) || b.NullAt(sel, k)) {
          PushNull(&out);
          continue;
        }
        int64_t x = a.IntAt(sel, k), y = b.IntAt(sel, k), z = 0;
        const bool overflow = op == ExprOp::kAdd
                                  ? __builtin_add_overflow(x, y, &z)
                              : op == ExprOp::kSub
                                  ? __builtin_sub_overflow(x, y, &z)
                                  : __builtin_mul_overflow(x, y, &z);
        if (overflow) return IntegerOverflow();
        out.i64.push_back(z);
        out.nulls.AppendBit(false);
      }
    } else {
      out.tag = ColumnTag::kDouble;
      out.f64.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        if (a.NullAt(sel, k) || b.NullAt(sel, k)) {
          PushNull(&out);
          continue;
        }
        double x = a.DoubleAt(sel, k), y = b.DoubleAt(sel, k);
        out.f64.push_back(op == ExprOp::kAdd   ? x + y
                          : op == ExprOp::kSub ? x - y
                                               : x * y);
        out.nulls.AppendBit(false);
      }
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      CGQ_ASSIGN_OR_RETURN(
          Value v, EvalArithmeticValues(op, l.At(sel, k), r.At(sel, k)));
      out.AppendValue(v);
    }
  }
  return VecVal::Owned(std::move(out));
}

/// SQL truthiness of every selected row as a tri-state vector.
std::vector<uint8_t> TriOf(const VecVal& v, const SelVec& sel) {
  const size_t n = sel.size();
  std::vector<uint8_t> out(n);
  if (v.is_const) {
    uint8_t t = v.cval.is_null()
                    ? kTriNull
                    : (IsTruthyValue(v.cval) ? kTriTrue : kTriFalse);
    for (size_t k = 0; k < n; ++k) out[k] = t;
    return out;
  }
  const ColumnVector& c = v.col();
  for (size_t k = 0; k < n; ++k) {
    size_t i = v.IndexOf(sel, k);
    switch (c.tag) {
      case ColumnTag::kInt64:
        out[k] = c.nulls.IsNull(i) ? kTriNull
                                   : (c.i64[i] != 0 ? kTriTrue : kTriFalse);
        break;
      case ColumnTag::kDouble:
        out[k] = c.nulls.IsNull(i) ? kTriNull
                                   : (c.f64[i] != 0 ? kTriTrue : kTriFalse);
        break;
      case ColumnTag::kString:
        out[k] = c.nulls.IsNull(i)
                     ? kTriNull
                     : (!c.str[i].empty() ? kTriTrue : kTriFalse);
        break;
      case ColumnTag::kValue: {
        const Value& val = c.vals[i];
        out[k] = val.is_null()
                     ? kTriNull
                     : (IsTruthyValue(val) ? kTriTrue : kTriFalse);
        break;
      }
    }
  }
  return out;
}

Result<VecVal> LikeVec(ExprOp op, const VecVal& l, const VecVal& r,
                       const SelVec& sel) {
  if ((l.is_const && l.cval.is_null()) ||
      (r.is_const && r.cval.is_null())) {
    return VecVal::Const(Value::Null());
  }
  const bool negate = op == ExprOp::kNotLike;
  const size_t n = sel.size();
  Operand a = Classify(l);
  Operand b = Classify(r);
  ColumnVector out = BoolCol(n);
  if (a.IsString() && b.IsString()) {
    for (size_t k = 0; k < n; ++k) {
      if (a.NullAt(sel, k) || b.NullAt(sel, k)) {
        PushNull(&out);
        continue;
      }
      bool m = LikeMatch(a.StrAt(sel, k), b.StrAt(sel, k));
      PushBool(&out, negate ? !m : m);
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      Value lv = l.At(sel, k);
      Value rv = r.At(sel, k);
      if (lv.is_null() || rv.is_null()) {
        PushNull(&out);
        continue;
      }
      if (!lv.is_string() || !rv.is_string()) {
        return Status::InvalidArgument("LIKE requires string operands");
      }
      bool m = LikeMatch(lv.str(), rv.str());
      PushBool(&out, negate ? !m : m);
    }
  }
  return VecVal::Owned(std::move(out));
}

Result<VecVal> InVec(const Expr& expr, const ColumnBatch& batch,
                     const SelVec& sel) {
  CGQ_ASSIGN_OR_RETURN(VecVal needle,
                       EvalExprVec(*expr.child(0), batch, sel));
  auto member = [&expr](const Value& v) {
    for (const Value& candidate : expr.in_list()) {
      if (!candidate.is_null() && v.Equals(candidate)) return true;
    }
    return false;
  };
  if (needle.is_const) {
    if (needle.cval.is_null()) return VecVal::Const(Value::Null());
    return VecVal::Const(Value::Int64(member(needle.cval) ? 1 : 0));
  }
  const size_t n = sel.size();
  ColumnVector out = BoolCol(n);
  for (size_t k = 0; k < n; ++k) {
    Value v = needle.At(sel, k);
    if (v.is_null()) {
      PushNull(&out);
      continue;
    }
    PushBool(&out, member(v));
  }
  return VecVal::Owned(std::move(out));
}

}  // namespace

Result<VecVal> EvalExprVec(const Expr& expr, const ColumnBatch& batch,
                           const SelVec& sel) {
  switch (expr.op()) {
    case ExprOp::kLiteral:
      return VecVal::Const(expr.literal());
    case ExprOp::kColumnRef: {
      size_t pos = batch.layout.PositionOf(expr.attr_id());
      if (pos == RowLayout::kNotFound) {
        return Status::Internal("attr " + expr.ToString() +
                                " not in row layout");
      }
      return VecVal::Ref(batch.columns[pos].get());
    }
    case ExprOp::kAnd:
    case ExprOp::kOr: {
      CGQ_ASSIGN_OR_RETURN(VecVal lv,
                           EvalExprVec(*expr.child(0), batch, sel));
      CGQ_ASSIGN_OR_RETURN(VecVal rv,
                           EvalExprVec(*expr.child(1), batch, sel));
      std::vector<uint8_t> lt = TriOf(lv, sel);
      std::vector<uint8_t> rt = TriOf(rv, sel);
      const bool is_and = expr.op() == ExprOp::kAnd;
      ColumnVector out = BoolCol(sel.size());
      for (size_t k = 0; k < sel.size(); ++k) {
        // Kleene logic: a decided side dominates NULL on the other.
        uint8_t decided = is_and ? kTriFalse : kTriTrue;
        if (lt[k] == decided || rt[k] == decided) {
          PushBool(&out, !is_and);
        } else if (lt[k] == kTriNull || rt[k] == kTriNull) {
          PushNull(&out);
        } else {
          PushBool(&out, is_and);
        }
      }
      return VecVal::Owned(std::move(out));
    }
    case ExprOp::kNot: {
      CGQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(*expr.child(0), batch, sel));
      std::vector<uint8_t> t = TriOf(v, sel);
      ColumnVector out = BoolCol(sel.size());
      for (size_t k = 0; k < sel.size(); ++k) {
        if (t[k] == kTriNull) {
          PushNull(&out);
        } else {
          PushBool(&out, t[k] == kTriFalse);
        }
      }
      return VecVal::Owned(std::move(out));
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe: {
      CGQ_ASSIGN_OR_RETURN(VecVal l, EvalExprVec(*expr.child(0), batch, sel));
      CGQ_ASSIGN_OR_RETURN(VecVal r, EvalExprVec(*expr.child(1), batch, sel));
      return CompareVec(expr.op(), l, r, sel);
    }
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv: {
      CGQ_ASSIGN_OR_RETURN(VecVal l, EvalExprVec(*expr.child(0), batch, sel));
      CGQ_ASSIGN_OR_RETURN(VecVal r, EvalExprVec(*expr.child(1), batch, sel));
      return ArithmeticVec(expr.op(), l, r, sel);
    }
    case ExprOp::kLike:
    case ExprOp::kNotLike: {
      CGQ_ASSIGN_OR_RETURN(VecVal l, EvalExprVec(*expr.child(0), batch, sel));
      CGQ_ASSIGN_OR_RETURN(VecVal r, EvalExprVec(*expr.child(1), batch, sel));
      return LikeVec(expr.op(), l, r, sel);
    }
    case ExprOp::kIn:
      return InVec(expr, batch, sel);
  }
  return Status::Internal("unhandled expression op");
}

Status FilterSel(const std::vector<ExprPtr>& conjuncts,
                 const ColumnBatch& batch, SelVec* sel) {
  for (const ExprPtr& c : conjuncts) {
    if (sel->empty()) return Status::OK();
    VecVal v;
    if (IsComparisonOp(c->op())) {
      CGQ_ASSIGN_OR_RETURN(VecVal l, EvalExprVec(*c->child(0), batch, *sel));
      CGQ_ASSIGN_OR_RETURN(VecVal r, EvalExprVec(*c->child(1), batch, *sel));
      if (CompareSel(c->op(), l, r, sel)) continue;
      CGQ_ASSIGN_OR_RETURN(v, CompareVec(c->op(), l, r, *sel));
    } else {
      CGQ_ASSIGN_OR_RETURN(v, EvalExprVec(*c, batch, *sel));
    }
    if (v.is_const) {
      if (!v.cval.is_null() && IsTruthyValue(v.cval)) continue;
      sel->clear();
      return Status::OK();
    }
    SelVec next;
    next.reserve(sel->size());
    const ColumnVector& col = v.col();
    if (col.tag == ColumnTag::kInt64) {
      for (size_t k = 0; k < sel->size(); ++k) {
        size_t i = v.IndexOf(*sel, k);
        if (!col.nulls.IsNull(i) && col.i64[i] != 0) {
          next.push_back((*sel)[k]);
        }
      }
    } else {
      for (size_t k = 0; k < sel->size(); ++k) {
        Value val = v.At(*sel, k);
        if (!val.is_null() && IsTruthyValue(val)) next.push_back((*sel)[k]);
      }
    }
    *sel = std::move(next);
  }
  return Status::OK();
}

}  // namespace vec
}  // namespace cgq
