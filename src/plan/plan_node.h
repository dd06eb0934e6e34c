#ifndef CGQ_PLAN_PLAN_NODE_H_
#define CGQ_PLAN_PLAN_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "expr/expr.h"

namespace cgq {

/// Operator kinds shared by logical plans (memo payloads) and physical
/// (located) plans. SHIP nodes exist only in final, located plans.
enum class PlanKind {
  kScan,       ///< one fragment of a base table at one location
  kFilter,     ///< conjunctive selection
  kProject,    ///< column selection/renaming (masking projection)
  kJoin,       ///< inner join with conjunctive predicate (may be cross)
  kAggregate,  ///< hash aggregation (also used for eager partial aggregates)
  kUnion,      ///< UNION ALL of table fragments (§7.5 distributed tables)
  kShip,       ///< transfer of the child's output between two sites
};

const char* PlanKindToString(PlanKind kind);

/// Physical join algorithm, chosen by the optimizer's implementation step.
enum class JoinMethod {
  kHash,       ///< build/probe on the equi-conjuncts (default)
  kNestedLoop, ///< fallback for non-equi / cross joins
};

const char* JoinMethodToString(JoinMethod method);

/// True when join conjunct `c` can be a hash key: `a = b` over two column
/// refs of one type family (int64/date, double or string). Hash keys
/// match structurally but `=` compares numerically, so a cross-family
/// `=` (int64 0 = double 0.0) stays a residual. The physical join choice
/// and the executors' JoinSpec both decide keys with this test.
bool IsHashJoinKey(const Expr& c);

/// One output column of a plan operator.
struct OutputCol {
  AttrId id = 0;
  std::string name;
  DataType type = DataType::kInt64;
};

class PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// A query plan operator.
///
/// The same structure serves three roles:
///  1. node of the normalized logical plan handed to the optimizer;
///  2. payload of a memo multi-expression (children empty, referenced by
///     group ids externally);
///  3. node of the final physical plan, annotated with traits, the selected
///     execution site, and cost estimates, possibly with SHIP nodes.
class PlanNode {
 public:
  explicit PlanNode(PlanKind kind) : kind_(kind) {}

  PlanKind kind() const { return kind_; }

  std::vector<PlanNodePtr>& children() { return children_; }
  const std::vector<PlanNodePtr>& children() const { return children_; }
  const PlanNodePtr& child(size_t i) const { return children_[i]; }

  // --- Scan payload ---
  std::string table;          ///< base table (lower-cased)
  std::string alias;          ///< relation instance alias (lower-cased)
  uint32_t rel_index = 0;     ///< instance index within the query
  LocationId scan_location = 0;
  int fragment_ordinal = 0;   ///< which fragment of a distributed table
  double row_fraction = 1.0;  ///< fraction of the table in this fragment

  // --- Filter / Join payload ---
  std::vector<ExprPtr> conjuncts;
  JoinMethod join_method = JoinMethod::kHash;  ///< physical choice (joins)

  // --- Project payload ---
  std::vector<AttrId> project_ids;
  std::vector<std::string> project_names;

  // --- Aggregate payload ---
  std::vector<AttrId> group_ids;
  std::vector<AggCall> agg_calls;
  std::vector<AttrId> agg_out_ids;  ///< parallel to agg_calls
  bool is_partial_agg = false;      ///< introduced by eager aggregation

  // --- Ship payload ---
  LocationId ship_from = 0;
  LocationId ship_to = 0;

  // --- Annotations (filled by planner / optimizer / site selector) ---
  std::vector<OutputCol> outputs;
  LocationSet exec_trait;  ///< ℰ: where this operator may legally run
  LocationSet ship_trait;  ///< 𝒮: where its output may legally be shipped
  LocationId location = 0;  ///< execution site chosen in phase 2
  double est_rows = 0;
  double est_row_bytes = 0;  ///< average bytes per output row
  double local_cost = 0;     ///< phase-1 cumulative cost of the subtree

  /// Estimated output bytes (est_rows * est_row_bytes).
  double EstBytes() const { return est_rows * est_row_bytes; }

  /// Payload equality, ignoring children and annotations. Conjunct order is
  /// insignificant.
  bool PayloadEquals(const PlanNode& other) const;
  /// Payload hash consistent with PayloadEquals.
  size_t PayloadHash() const;

  /// Short one-line description, e.g. "Join[o.custkey = c.custkey]".
  std::string Describe() const;

 private:
  PlanKind kind_;
  std::vector<PlanNodePtr> children_;
};

/// Computes the output columns of an operator given its children's outputs.
/// For payload-only use (memo), pass the child groups' canonical outputs.
std::vector<OutputCol> ComputeOutputs(
    const PlanNode& node,
    const std::vector<const std::vector<OutputCol>*>& child_outputs);

/// Renders an indented plan tree with per-node annotations; `locations` is
/// used to print location names (may be null).
std::string PlanToString(const PlanNode& root,
                         const LocationCatalog* locations);

/// Deep-copies a plan tree (annotations included).
PlanNodePtr ClonePlan(const PlanNode& root);

}  // namespace cgq

#endif  // CGQ_PLAN_PLAN_NODE_H_
