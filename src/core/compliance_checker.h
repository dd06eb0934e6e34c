#ifndef CGQ_CORE_COMPLIANCE_CHECKER_H_
#define CGQ_CORE_COMPLIANCE_CHECKER_H_

#include <optional>
#include <string>
#include <vector>

#include "core/policy_evaluator.h"
#include "plan/plan_node.h"

namespace cgq {

/// Outcome of verifying a located plan against Definition 1.
struct ComplianceReport {
  bool compliant = true;
  std::vector<std::string> violations;
};

/// Independent verifier of Definition 1 (§3.2) on a *located* physical plan
/// (locations assigned, SHIP operators materialized).
///
/// It re-derives, bottom-up and from scratch, where each subtree's output
/// may legally be shipped (via AR1–AR4 applied to the concrete tree) and
/// checks that every operator runs at a permitted site and every SHIP
/// targets a permitted location. It shares no state with the optimizer, so
/// it doubles as the oracle for Theorem-1 property tests and labels the
/// traditional optimizer's plans as compliant (C) / non-compliant (NC) in
/// the benchmarks (Fig. 5a, 6a).
///
/// With a non-null `steps`, the walk also records what it derived at
/// every SHIP and every violating operator, in post-order, for
/// ExplainCompliance to format.
struct ComplianceStep {
  const PlanNode* node = nullptr;
  /// Distance from the plan root.
  int depth = 0;
  /// SHIP: its input's shipping trait (the legal targets). Operator: its
  /// execution trait (the sites it may run at).
  LocationSet allowed;
  /// The SHIP targets, or the operator runs, outside `allowed`.
  bool violation = false;
  /// Legal SHIP whose input is a single-database block: that database
  /// and the attribute-wise grants the evaluator derives there (AR4).
  std::optional<LocationId> grant_db;
  std::vector<AttrGrant> grants;
};

ComplianceReport CheckCompliance(const PlanNode& located_root,
                                 const PolicyEvaluator& evaluator,
                                 const LocationCatalog& locations,
                                 std::vector<ComplianceStep>* steps = nullptr);

}  // namespace cgq

#endif  // CGQ_CORE_COMPLIANCE_CHECKER_H_
