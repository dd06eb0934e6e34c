#ifndef CGQ_EXPR_EXPR_H_
#define CGQ_EXPR_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "types/value.h"

namespace cgq {

/// Identifies one attribute of one relation *instance* in a query.
/// Base-table instances use (relation index << 16) | column index; synthetic
/// attributes (outputs of partial aggregates) are allocated from a counter
/// starting at kFirstSyntheticAttr.
using AttrId = uint32_t;
constexpr AttrId kFirstSyntheticAttr = 1u << 20;

inline bool IsSyntheticAttr(AttrId id) { return id >= kFirstSyntheticAttr; }

/// Deepest expression the SQL parser admits (Expr::depth(), and its own
/// recursion), for queries and policy texts alike. Every pass over an
/// expression recurses once per level, so the bound keeps hostile nesting
/// a typed kInvalidArgument instead of a stack overflow. It sits below
/// SQLite's 1000 (SQLITE_MAX_EXPR_DEPTH) because one parenthesis level
/// recurses through ten grammar functions: about 10 KB of stack in a
/// Debug ASan build, where the bound must still leave the 8 MiB default
/// stack most of its room.
inline constexpr int kMaxExprDepth = 256;

/// An attribute of a *base table* (not an instance): what dataflow policies
/// talk about. Both fields are lower-cased.
struct BaseAttr {
  std::string table;
  std::string column;

  bool operator==(const BaseAttr& other) const = default;
  bool operator<(const BaseAttr& other) const {
    return table != other.table ? table < other.table : column < other.column;
  }
  std::string ToString() const { return table + "." + column; }
};

/// Node kinds of the scalar expression tree.
enum class ExprOp {
  kLiteral,
  kColumnRef,
  kAnd,
  kOr,
  kNot,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLike,
  kNotLike,
  kIn,  ///< child[0] IN (literal list)
};

const char* ExprOpToString(ExprOp op);
bool IsComparisonOp(ExprOp op);

/// Aggregate functions supported by queries and aggregate policy
/// expressions (§4.2).
enum class AggFn { kSum, kAvg, kMin, kMax, kCount };

const char* AggFnToString(AggFn fn);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable scalar expression node.
///
/// Expressions are created unbound by the SQL parser (column refs carry only
/// textual names) and bound by the Binder, which fills in `attr_id`,
/// `base_table` and `type`. All planner/optimizer code requires bound
/// expressions.
class Expr {
 public:
  // -- Factories -----------------------------------------------------------
  static ExprPtr Literal(Value v);
  /// Literal that originated from the `ordinal`-th literal token of the
  /// query text (parameterized plan caching). Ordinals are metadata: they
  /// never change Equals/Hash or evaluation, only which slot a cached
  /// plan rebinds when served with different constants.
  static ExprPtr ParamLiteral(Value v, int ordinal);
  /// Unbound column reference, `qualifier` may be empty.
  static ExprPtr Column(std::string qualifier, std::string column);
  /// Bound column reference.
  static ExprPtr BoundColumn(AttrId attr_id, std::string qualifier,
                             std::string column, std::string base_table,
                             DataType type);
  static ExprPtr Unary(ExprOp op, ExprPtr child);
  static ExprPtr Binary(ExprOp op, ExprPtr left, ExprPtr right);
  static ExprPtr InList(ExprPtr needle, std::vector<Value> literals);
  /// IN list whose values carry per-element param ordinals (-1 =
  /// untagged). `ordinals` must be empty or parallel to `literals`.
  static ExprPtr InList(ExprPtr needle, std::vector<Value> literals,
                        std::vector<int> ordinals);
  /// Conjunction of `conjuncts`; returns literal TRUE when empty, the sole
  /// element when singleton.
  static ExprPtr MakeConjunction(std::vector<ExprPtr> conjuncts);

  ExprOp op() const { return op_; }
  const Value& literal() const { return literal_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_[i]; }
  const std::vector<Value>& in_list() const { return in_list_; }
  /// Parallel to in_list() when the list is tagged; empty otherwise.
  const std::vector<int>& in_list_ordinals() const {
    return in_list_ordinals_;
  }
  /// Which literal token of the query text this literal came from; -1 for
  /// synthetic / policy literals that must never be rebound.
  int param_ordinal() const { return param_ordinal_; }
  /// Levels of the tree rooted here: 1 for a leaf.
  int depth() const { return depth_; }

  // Column-ref accessors.
  AttrId attr_id() const { return attr_id_; }
  const std::string& qualifier() const { return qualifier_; }
  const std::string& column() const { return column_; }
  const std::string& base_table() const { return base_table_; }
  bool is_bound() const { return op_ != ExprOp::kColumnRef || bound_; }

  DataType type() const { return type_; }

  bool IsLiteralTrue() const {
    return op_ == ExprOp::kLiteral && literal_.is_int64() &&
           literal_.int64() == 1;
  }

  /// Structural equality (literals compared structurally).
  bool Equals(const Expr& other) const;
  size_t Hash() const;

  /// SQL-ish rendering, e.g. "(c.acctbal > 100 AND o.status = 'F')".
  std::string ToString() const;

  /// Appends the AttrIds of all column refs in this tree to `out`.
  void CollectAttrIds(std::vector<AttrId>* out) const;
  /// Appends (table, column) of all bound base-table column refs.
  void CollectBaseAttrs(std::vector<BaseAttr>* out) const;
  /// Appends pointers to all column-ref nodes in this tree.
  void CollectColumnRefs(std::vector<const Expr*>* out) const;

  /// Returns a copy of this tree with every column ref whose attr_id appears
  /// in `mapping` replaced by the mapped expression.
  static ExprPtr Substitute(
      const ExprPtr& e,
      const std::vector<std::pair<AttrId, ExprPtr>>& mapping);

 private:
  Expr() = default;

  ExprOp op_ = ExprOp::kLiteral;
  Value literal_;
  std::vector<ExprPtr> children_;
  std::vector<Value> in_list_;
  std::vector<int> in_list_ordinals_;
  int param_ordinal_ = -1;
  int depth_ = 1;

  // Column-ref payload.
  AttrId attr_id_ = 0;
  bool bound_ = false;
  std::string qualifier_;   // relation alias as written (lower-cased)
  std::string column_;      // column name (lower-cased)
  std::string base_table_;  // canonical base table (lower-cased); bound only

  DataType type_ = DataType::kInt64;
};

/// An aggregate call `fn(arg)` as used in SELECT lists, Aggregate plan
/// operators, and query summaries.
struct AggCall {
  AggFn fn = AggFn::kSum;
  ExprPtr arg;  ///< never null
  /// Set on the SUM that merges partial COUNTs (eager aggregation): it
  /// finishes 0, not NULL, over no rows, as the COUNT it replaces does.
  bool merges_counts = false;

  bool Equals(const AggCall& other) const {
    return fn == other.fn && arg->Equals(*other.arg) &&
           merges_counts == other.merges_counts;
  }
  std::string ToString() const;
};

/// Splits a bound predicate into its top-level conjuncts (flattens AND).
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred);

}  // namespace cgq

#endif  // CGQ_EXPR_EXPR_H_
