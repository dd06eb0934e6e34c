#ifndef CGQ_CORE_EXPLAIN_H_
#define CGQ_CORE_EXPLAIN_H_

#include <string>

#include "core/policy_evaluator.h"
#include "plan/plan_node.h"

namespace cgq {

/// Renders a compliance provenance report for a located plan: for every
/// SHIP operator, *why* the transfer is legal — either the policy
/// expressions that grant each disclosed attribute of a single-database
/// subquery (AR4), or the derivation through the inputs' shipping traits
/// for cross-database intermediates (AR2/AR3). Violations are flagged
/// inline. The report only formats what CheckCompliance's one
/// Definition-1 walk derives (ComplianceStep), so it prints VIOLATION
/// exactly when that check reports one.
std::string ExplainCompliance(const PlanNode& located_root,
                              const PolicyEvaluator& evaluator,
                              const LocationCatalog& locations);

}  // namespace cgq

#endif  // CGQ_CORE_EXPLAIN_H_
