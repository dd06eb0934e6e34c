#include "exec/vector/kernels.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>

#include "common/str_util.h"
#include "expr/eval.h"

namespace cgq {
namespace vec {

namespace {

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

/// Collects a split of `sel` (see Split) in one pass: row sel[k] goes to
/// *t when it is TRUE and, when `f` is set, to *f when it is FALSE; NULL
/// rows go to neither. The sets take their final size when the writer
/// goes out of scope.
class SplitWriter {
 public:
  SplitWriter(const SelVec& sel, SelVec* t, SelVec* f)
      : rows_(sel.data()), t_(t), f_(f) {
    t_->resize(sel.size());
    t_rows_ = t_->data();
    if (f_ != nullptr) {
      f_->resize(sel.size());
      f_rows_ = f_->data();
    }
  }
  SplitWriter(const SplitWriter&) = delete;
  SplitWriter& operator=(const SplitWriter&) = delete;
  ~SplitWriter() {
    t_->resize(nt_);
    if (f_ != nullptr) f_->resize(nf_);
  }

  void Add(size_t k, bool null, bool truth) {
    const uint32_t row = rows_[k];
    t_rows_[nt_] = row;
    nt_ += !null & truth;
    if (f_rows_ != nullptr) {
      f_rows_[nf_] = row;
      nf_ += !null & !truth;
    }
  }
  /// Adds a row by the SQL truth of its value.
  void Add(size_t k, const Value& v) {
    Add(k, v.is_null(), IsTruthyValue(v));
  }

 private:
  const uint32_t* rows_;
  SelVec* t_;
  SelVec* f_;
  uint32_t* t_rows_ = nullptr;
  uint32_t* f_rows_ = nullptr;
  size_t nt_ = 0;
  size_t nf_ = 0;
};

/// Splits `sel` by the SQL truth of `v`'s rows (a predicate that is not
/// a boolean operator: a column, a literal, arithmetic).
void SplitTruth(const VecVal& v, const SelVec& sel, SelVec* t, SelVec* f) {
  SplitWriter out(sel, t, f);
  const size_t n = sel.size();
  if (v.is_const) {
    for (size_t k = 0; k < n; ++k) out.Add(k, v.cval);
    return;
  }
  const ColumnVector& c = v.col();
  for (size_t k = 0; k < n; ++k) {
    const size_t i = v.IndexOf(sel, k);
    switch (c.tag) {
      case ColumnTag::kInt64:
        out.Add(k, c.nulls.IsNull(i), c.i64[i] != 0);
        break;
      case ColumnTag::kDouble:
        out.Add(k, c.nulls.IsNull(i), c.f64[i] != 0);
        break;
      case ColumnTag::kString:
        out.Add(k, c.nulls.IsNull(i), !c.str[i].empty());
        break;
      case ColumnTag::kValue:
        out.Add(k, c.vals[i]);
        break;
    }
  }
}

Status SplitCompare(ExprOp op, const VecVal& l, const VecVal& r,
                    const SelVec& sel, SelVec* t, SelVec* f) {
  // NULL compared to anything is NULL — checked before operand families,
  // exactly like the scalar evaluator.
  if ((l.is_const && l.cval.is_null()) || (r.is_const && r.cval.is_null())) {
    return Status::OK();
  }
  if (l.is_const && r.is_const) {
    CGQ_ASSIGN_OR_RETURN(Value v, EvalComparisonValues(op, l.cval, r.cval));
    SplitTruth(VecVal::Const(std::move(v)), sel, t, f);
    return Status::OK();
  }
  // Bit c + 1 of `holds` is set when outcome c satisfies `op`.
  int holds = 0;
  for (int c = -1; c <= 1; ++c) holds |= ApplyCmp(op, c) << (c + 1);
  SplitWriter out(sel, t, f);
  if (CompareTyped(Classify(l), Classify(r), sel,
                   [&](size_t k, bool null, int c) {
                     out.Add(k, null, (holds >> (c + 1)) & 1);
                   })) {
    return Status::OK();
  }
  // kValue columns or family mixes: the scalar reference, elementwise.
  for (size_t k = 0; k < sel.size(); ++k) {
    CGQ_ASSIGN_OR_RETURN(
        Value v, EvalComparisonValues(op, l.At(sel, k), r.At(sel, k)));
    out.Add(k, v);
  }
  return Status::OK();
}

Status SplitLike(ExprOp op, const VecVal& l, const VecVal& r,
                 const SelVec& sel, SelVec* t, SelVec* f) {
  if ((l.is_const && l.cval.is_null()) || (r.is_const && r.cval.is_null())) {
    return Status::OK();
  }
  const bool negate = op == ExprOp::kNotLike;
  const Operand a = Classify(l);
  const Operand b = Classify(r);
  SplitWriter out(sel, t, f);
  if (a.IsString() && b.IsString()) {
    for (size_t k = 0; k < sel.size(); ++k) {
      const bool null = a.NullAt(sel, k) || b.NullAt(sel, k);
      out.Add(k, null,
              !null && LikeMatch(a.StrAt(sel, k), b.StrAt(sel, k)) != negate);
    }
    return Status::OK();
  }
  for (size_t k = 0; k < sel.size(); ++k) {
    const Value lv = l.At(sel, k);
    const Value rv = r.At(sel, k);
    if (lv.is_null() || rv.is_null()) continue;
    if (!lv.is_string() || !rv.is_string()) {
      return Status::InvalidArgument("LIKE requires string operands");
    }
    out.Add(k, false, LikeMatch(lv.str(), rv.str()) != negate);
  }
  return Status::OK();
}

/// IN with Value::Equals semantics on typed payloads: numeric families
/// unify (int64 with int64 exactly, any other pair as double), strings
/// match strings only, NULL candidates are skipped.
Status SplitIn(const Expr& expr, const ColumnBatch& batch, const SelVec& sel,
               SelVec* t, SelVec* f) {
  CGQ_ASSIGN_OR_RETURN(VecVal needle,
                       EvalExprVec(*expr.child(0), batch, sel));
  const std::vector<Value>& list = expr.in_list();
  SplitWriter out(sel, t, f);
  const size_t n = sel.size();
  if (needle.is_const || needle.col().tag == ColumnTag::kValue) {
    for (size_t k = 0; k < n; ++k) {
      const Value v = needle.At(sel, k);
      out.Add(k, v.is_null(),
              std::any_of(list.begin(), list.end(),
                          [&](const Value& c) { return v.Equals(c); }));
    }
    return Status::OK();
  }
  std::vector<int64_t> ints;
  std::vector<double> reals;
  std::vector<std::string_view> strs;
  for (const Value& c : list) {
    if (c.is_int64()) ints.push_back(c.int64());
    if (c.is_double()) reals.push_back(c.dbl());
    if (c.is_string()) strs.push_back(c.str());
  }
  // Value::Compare's numeric equality: as double, where NaN equals all.
  auto real_in = [&](double x) {
    bool in = false;
    for (double c : reals) in |= !(x < c) && !(x > c);
    return in;
  };
  const ColumnVector& col = needle.col();
  for (size_t k = 0; k < n; ++k) {
    const size_t i = needle.IndexOf(sel, k);
    bool in = false;
    switch (col.tag) {
      case ColumnTag::kInt64:
        for (int64_t c : ints) in |= c == col.i64[i];
        in = in || real_in(static_cast<double>(col.i64[i]));
        break;
      case ColumnTag::kDouble:
        for (int64_t c : ints) {
          const double x = col.f64[i], y = static_cast<double>(c);
          in |= !(x < y) && !(x > y);
        }
        in = in || real_in(col.f64[i]);
        break;
      default:  // kString
        for (std::string_view c : strs) in |= c == col.str[i];
        break;
    }
    out.Add(k, col.nulls.IsNull(i), in);
  }
  return Status::OK();
}

/// `a` without the rows of `b`, both ascending.
SelVec Minus(const SelVec& a, const SelVec& b) {
  SelVec out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

SelVec Intersect(const SelVec& a, const SelVec& b) {
  SelVec out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// The rows of two disjoint ascending selections, ascending.
SelVec Union(const SelVec& a, const SelVec& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  SelVec out(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
  return out;
}

/// The selection-splitting evaluator: the rows of `sel` (ascending, as a
/// batch's selection is) where `expr` is TRUE go to *t and, when `f` is
/// set, those where it is FALSE to *f, both ascending; the other rows
/// are NULL. Every operand runs on exactly the rows where EvalExpr
/// evaluates it: AND's right operand on the rows its left one did not
/// make FALSE, OR's on the rows its left one did not make TRUE. So a
/// split fails only when EvalExpr fails on one of the rows.
Status Split(const Expr& expr, const ColumnBatch& batch, const SelVec& sel,
             SelVec* t, SelVec* f) {
  t->clear();
  if (f != nullptr) f->clear();
  if (sel.empty()) return Status::OK();
  switch (expr.op()) {
    case ExprOp::kAnd:
    case ExprOp::kOr: {
      // `decided` takes the rows the left operand decides (FALSE for
      // AND, TRUE for OR); the right operand runs on the rest.
      const bool is_and = expr.op() == ExprOp::kAnd;
      SelVec decided, other;
      SelVec* lt = is_and ? &other : &decided;
      SelVec* lf = is_and ? &decided : &other;
      CGQ_RETURN_NOT_OK(Split(*expr.child(0), batch, sel, lt,
                              is_and || f != nullptr ? lf : nullptr));
      SelVec rest_rows;
      const SelVec* rest = &sel;
      if (!decided.empty()) {
        rest_rows = Minus(sel, decided);
        rest = &rest_rows;
      }
      SelVec rt, rf;
      CGQ_RETURN_NOT_OK(Split(*expr.child(1), batch, *rest, &rt,
                              f != nullptr ? &rf : nullptr));
      SelVec* rdecided = is_and ? &rf : &rt;
      SelVec* rother = is_and ? &rt : &rf;
      // Out: the rows either side decided, and the rows both sides left
      // undecided but not NULL (TRUE for AND, FALSE for OR). When the
      // left operand made no row NULL, `rest` is its undecided rows and
      // the right side's undecided rows are the answer.
      SelVec* out_decided = is_and ? f : t;
      SelVec* out_other = is_and ? t : f;
      if (out_decided != nullptr) *out_decided = Union(decided, *rdecided);
      if (out_other != nullptr) {
        *out_other = rest->size() == other.size()
                         ? std::move(*rother)
                         : Intersect(*rother, other);
      }
      return Status::OK();
    }
    case ExprOp::kNot: {
      SelVec ct, cf;
      CGQ_RETURN_NOT_OK(Split(*expr.child(0), batch, sel, &ct, &cf));
      *t = std::move(cf);
      if (f != nullptr) *f = std::move(ct);
      return Status::OK();
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
    case ExprOp::kLike:
    case ExprOp::kNotLike: {
      CGQ_ASSIGN_OR_RETURN(VecVal l, EvalExprVec(*expr.child(0), batch, sel));
      CGQ_ASSIGN_OR_RETURN(VecVal r, EvalExprVec(*expr.child(1), batch, sel));
      return IsComparisonOp(expr.op())
                 ? SplitCompare(expr.op(), l, r, sel, t, f)
                 : SplitLike(expr.op(), l, r, sel, t, f);
    }
    case ExprOp::kIn:
      return SplitIn(expr, batch, sel, t, f);
    default: {
      CGQ_ASSIGN_OR_RETURN(VecVal v, EvalExprVec(expr, batch, sel));
      SplitTruth(v, sel, t, f);
      return Status::OK();
    }
  }
}

/// The boolean column of a split of `sel`, parallel to it: 1 on the TRUE
/// rows, 0 on the FALSE rows, NULL on the others.
ColumnVector BoolColumn(const SelVec& sel, const SelVec& t,
                        const SelVec& f) {
  ColumnVector out;
  out.tag = ColumnTag::kInt64;
  out.i64.assign(sel.size(), 0);
  out.nulls = NullBitmap(sel.size());
  size_t pt = 0, pf = 0;
  for (size_t k = 0; k < sel.size(); ++k) {
    if (pt < t.size() && t[pt] == sel[k]) {
      out.i64[k] = 1;
      ++pt;
    } else if (pf < f.size() && f[pf] == sel[k]) {
      ++pf;
    } else {
      out.nulls.SetNull(k);
    }
  }
  return out;
}

}  // namespace

Result<VecVal> EvalExprVec(const Expr& expr, const ColumnBatch& batch,
                           const SelVec& sel) {
  // No row, nothing to evaluate (EvalExpr would not run either).
  if (sel.empty()) return VecVal::Owned(ColumnVector());
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
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv: {
      CGQ_ASSIGN_OR_RETURN(VecVal l, EvalExprVec(*expr.child(0), batch, sel));
      CGQ_ASSIGN_OR_RETURN(VecVal r, EvalExprVec(*expr.child(1), batch, sel));
      return ArithmeticVec(expr.op(), l, r, sel);
    }
    default: {
      // AND, OR, NOT, comparisons, LIKE and IN: the split, as a column.
      SelVec t, f;
      CGQ_RETURN_NOT_OK(Split(expr, batch, sel, &t, &f));
      return VecVal::Owned(BoolColumn(sel, t, f));
    }
  }
}

Status FilterSel(const std::vector<ExprPtr>& conjuncts,
                 const ColumnBatch& batch, SelVec* sel) {
  for (const ExprPtr& c : conjuncts) {
    if (sel->empty()) return Status::OK();
    SelVec keep;
    CGQ_RETURN_NOT_OK(Split(*c, batch, *sel, &keep, nullptr));
    *sel = std::move(keep);
  }
  return Status::OK();
}

}  // namespace vec
}  // namespace cgq
