#include "expr/expr.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"

namespace cgq {

const char* ExprOpToString(ExprOp op) {
  switch (op) {
    case ExprOp::kLiteral:
      return "literal";
    case ExprOp::kColumnRef:
      return "column";
    case ExprOp::kAnd:
      return "AND";
    case ExprOp::kOr:
      return "OR";
    case ExprOp::kNot:
      return "NOT";
    case ExprOp::kEq:
      return "=";
    case ExprOp::kNe:
      return "<>";
    case ExprOp::kLt:
      return "<";
    case ExprOp::kLe:
      return "<=";
    case ExprOp::kGt:
      return ">";
    case ExprOp::kGe:
      return ">=";
    case ExprOp::kAdd:
      return "+";
    case ExprOp::kSub:
      return "-";
    case ExprOp::kMul:
      return "*";
    case ExprOp::kDiv:
      return "/";
    case ExprOp::kLike:
      return "LIKE";
    case ExprOp::kNotLike:
      return "NOT LIKE";
    case ExprOp::kIn:
      return "IN";
  }
  return "?";
}

bool IsComparisonOp(ExprOp op) {
  switch (op) {
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      return true;
    default:
      return false;
  }
}

const char* AggFnToString(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "SUM";
    case AggFn::kAvg:
      return "AVG";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kCount:
      return "COUNT";
  }
  return "?";
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kLiteral;
  if (v.is_double()) {
    e->type_ = DataType::kDouble;
  } else if (v.is_string()) {
    e->type_ = DataType::kString;
  } else {
    e->type_ = DataType::kInt64;
  }
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::ParamLiteral(Value v, int ordinal) {
  auto e = std::const_pointer_cast<Expr>(Literal(std::move(v)));
  e->param_ordinal_ = ordinal;
  return e;
}

ExprPtr Expr::Column(std::string qualifier, std::string column) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kColumnRef;
  e->qualifier_ = std::move(qualifier);
  e->column_ = std::move(column);
  e->bound_ = false;
  return e;
}

ExprPtr Expr::BoundColumn(AttrId attr_id, std::string qualifier,
                          std::string column, std::string base_table,
                          DataType type) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kColumnRef;
  e->attr_id_ = attr_id;
  e->qualifier_ = std::move(qualifier);
  e->column_ = std::move(column);
  e->base_table_ = std::move(base_table);
  e->type_ = type;
  e->bound_ = true;
  return e;
}

ExprPtr Expr::Unary(ExprOp op, ExprPtr child) {
  CGQ_CHECK(op == ExprOp::kNot);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  e->type_ = DataType::kInt64;
  e->depth_ = child->depth_ + 1;
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::Binary(ExprOp op, ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  switch (op) {
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
      e->type_ = (left->type() == DataType::kDouble ||
                  right->type() == DataType::kDouble)
                     ? DataType::kDouble
                     : DataType::kInt64;
      break;
    case ExprOp::kDiv:
      e->type_ = DataType::kDouble;
      break;
    default:
      e->type_ = DataType::kInt64;  // boolean as 0/1
      break;
  }
  e->depth_ = std::max(left->depth_, right->depth_) + 1;
  e->children_ = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Expr::InList(ExprPtr needle, std::vector<Value> literals) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kIn;
  e->type_ = DataType::kInt64;
  e->depth_ = needle->depth_ + 1;
  e->children_ = {std::move(needle)};
  e->in_list_ = std::move(literals);
  return e;
}

ExprPtr Expr::InList(ExprPtr needle, std::vector<Value> literals,
                     std::vector<int> ordinals) {
  CGQ_CHECK(ordinals.empty() || ordinals.size() == literals.size());
  auto e = std::const_pointer_cast<Expr>(
      InList(std::move(needle), std::move(literals)));
  e->in_list_ordinals_ = std::move(ordinals);
  return e;
}

ExprPtr Expr::MakeConjunction(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return Literal(Value::Int64(1));
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Binary(ExprOp::kAnd, acc, conjuncts[i]);
  }
  return acc;
}

bool Expr::Equals(const Expr& other) const {
  if (op_ != other.op_) return false;
  switch (op_) {
    case ExprOp::kLiteral:
      return literal_.StructurallyEquals(other.literal_);
    case ExprOp::kColumnRef:
      if (bound_ != other.bound_) return false;
      if (bound_) return attr_id_ == other.attr_id_;
      return qualifier_ == other.qualifier_ && column_ == other.column_;
    default:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  if (in_list_.size() != other.in_list_.size()) return false;
  for (size_t i = 0; i < in_list_.size(); ++i) {
    if (!in_list_[i].StructurallyEquals(other.in_list_[i])) return false;
  }
  return true;
}

size_t Expr::Hash() const {
  size_t h = std::hash<int>()(static_cast<int>(op_));
  switch (op_) {
    case ExprOp::kLiteral:
      return h * 31 + literal_.Hash();
    case ExprOp::kColumnRef:
      if (bound_) return h * 31 + std::hash<uint32_t>()(attr_id_);
      return (h * 31 + std::hash<std::string>()(qualifier_)) * 31 +
             std::hash<std::string>()(column_);
    default:
      break;
  }
  for (const ExprPtr& c : children_) h = h * 1000003u ^ c->Hash();
  for (const Value& v : in_list_) h = h * 1000003u ^ v.Hash();
  return h;
}

std::string Expr::ToString() const {
  switch (op_) {
    case ExprOp::kLiteral:
      return literal_.ToString();
    case ExprOp::kColumnRef:
      return qualifier_.empty() ? column_ : qualifier_ + "." + column_;
    case ExprOp::kNot:
      return "NOT (" + children_[0]->ToString() + ")";
    case ExprOp::kIn: {
      std::string out = children_[0]->ToString() + " IN (";
      for (size_t i = 0; i < in_list_.size(); ++i) {
        if (i > 0) out += ", ";
        out += in_list_[i].ToString();
      }
      return out + ")";
    }
    case ExprOp::kAnd:
    case ExprOp::kOr: {
      const std::string l = children_[0]->ToString();
      const std::string r = children_[1]->ToString();
      return "(" + l + " " + ExprOpToString(op_) + " " + r + ")";
    }
    default: {
      // Parenthesize non-leaf operands so nesting stays readable.
      auto operand = [](const ExprPtr& e) {
        std::string s = e->ToString();
        return e->children().empty() ? s : "(" + s + ")";
      };
      return operand(children_[0]) + " " + ExprOpToString(op_) + " " +
             operand(children_[1]);
    }
  }
}

void Expr::CollectAttrIds(std::vector<AttrId>* out) const {
  if (op_ == ExprOp::kColumnRef) {
    out->push_back(attr_id_);
    return;
  }
  for (const ExprPtr& c : children_) c->CollectAttrIds(out);
}

void Expr::CollectBaseAttrs(std::vector<BaseAttr>* out) const {
  if (op_ == ExprOp::kColumnRef) {
    if (bound_ && !base_table_.empty()) {
      out->push_back(BaseAttr{base_table_, column_});
    }
    return;
  }
  for (const ExprPtr& c : children_) c->CollectBaseAttrs(out);
}

void Expr::CollectColumnRefs(std::vector<const Expr*>* out) const {
  if (op_ == ExprOp::kColumnRef) {
    out->push_back(this);
    return;
  }
  for (const ExprPtr& c : children_) c->CollectColumnRefs(out);
}

ExprPtr Expr::Substitute(
    const ExprPtr& e,
    const std::vector<std::pair<AttrId, ExprPtr>>& mapping) {
  if (e->op_ == ExprOp::kColumnRef) {
    for (const auto& [id, replacement] : mapping) {
      if (e->bound_ && e->attr_id_ == id) return replacement;
    }
    return e;
  }
  bool changed = false;
  std::vector<ExprPtr> new_children;
  new_children.reserve(e->children_.size());
  int depth = 0;
  for (const ExprPtr& c : e->children_) {
    ExprPtr nc = Substitute(c, mapping);
    changed |= (nc.get() != c.get());
    depth = std::max(depth, nc->depth_);
    new_children.push_back(std::move(nc));
  }
  if (!changed) return e;
  auto copy = std::shared_ptr<Expr>(new Expr(*e));
  copy->depth_ = depth + 1;
  copy->children_ = std::move(new_children);
  return copy;
}

std::string AggCall::ToString() const {
  return std::string(AggFnToString(fn)) + "(" + arg->ToString() + ")";
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred) {
  // Literal-TRUE conjuncts are dropped (the parser leaves them as
  // placeholders for extracted subquery predicates).
  std::vector<ExprPtr> out;
  if (pred == nullptr || pred->IsLiteralTrue()) return out;
  if (pred->op() == ExprOp::kAnd) {
    for (const ExprPtr& c : pred->children()) {
      std::vector<ExprPtr> sub = SplitConjuncts(c);
      out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
  }
  out.push_back(pred);
  return out;
}

}  // namespace cgq
