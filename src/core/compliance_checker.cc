#include "core/compliance_checker.h"

#include "plan/summary.h"

namespace cgq {

namespace {

struct SubtreeInfo {
  LocationSet ship_trait;
  QuerySummary summary;
};

SubtreeInfo Walk(const PlanNode& node, const PolicyEvaluator& evaluator,
                 const LocationCatalog& locations, int depth,
                 ComplianceReport* report,
                 std::vector<ComplianceStep>* steps) {
  std::vector<SubtreeInfo> child_info;
  std::vector<const QuerySummary*> child_summaries;
  for (const PlanNodePtr& c : node.children()) {
    child_info.push_back(
        Walk(*c, evaluator, locations, depth + 1, report, steps));
  }
  for (const SubtreeInfo& ci : child_info) {
    child_summaries.push_back(&ci.summary);
  }

  SubtreeInfo info;
  info.summary = SummarizeOp(node, child_summaries);

  if (node.kind() == PlanKind::kShip) {
    // A SHIP is legal iff its target is in the child's shipping trait; it
    // confers no new rights (relaying does not launder data).
    info.ship_trait = child_info[0].ship_trait;
    const bool legal = info.ship_trait.Contains(node.ship_to);
    if (!legal) {
      report->compliant = false;
      report->violations.push_back(
          "SHIP to " + locations.GetName(node.ship_to) +
          " violates the dataflow policies of its input (legal targets: " +
          locations.SetToString(info.ship_trait) + ")");
    }
    if (steps != nullptr) {
      ComplianceStep& step = steps->emplace_back();
      step.node = &node;
      step.depth = depth;
      step.allowed = info.ship_trait;
      step.violation = !legal;
      const QuerySummary& input = child_info[0].summary;
      if (legal && input.IsSingleDatabaseBlock()) {
        step.grant_db = input.source_locations.ToVector().front();
        (void)evaluator.Evaluate(input, *step.grant_db, &step.grants);
      }
    }
    return info;
  }

  // Execution trait of the concrete node (AR1 / AR2).
  LocationSet exec;
  if (node.kind() == PlanKind::kScan) {
    exec = LocationSet::Single(node.scan_location);
  } else {
    exec = locations.All();
    for (const SubtreeInfo& ci : child_info) {
      exec = exec.Intersect(ci.ship_trait);
    }
  }
  if (!exec.Contains(node.location)) {
    report->compliant = false;
    report->violations.push_back(
        node.Describe() + " executed at " + locations.GetName(node.location) +
        " but may only run at " + locations.SetToString(exec));
    if (steps != nullptr) {
      ComplianceStep& step = steps->emplace_back();
      step.node = &node;
      step.depth = depth;
      step.allowed = exec;
      step.violation = true;
    }
  }

  // Shipping trait: AR3 + AR4.
  info.ship_trait = exec;
  if (info.summary.IsSingleDatabaseBlock()) {
    LocationId db = info.summary.source_locations.ToVector().front();
    info.ship_trait =
        info.ship_trait.Union(evaluator.Evaluate(info.summary, db));
  }
  return info;
}

}  // namespace

ComplianceReport CheckCompliance(const PlanNode& located_root,
                                 const PolicyEvaluator& evaluator,
                                 const LocationCatalog& locations,
                                 std::vector<ComplianceStep>* steps) {
  ComplianceReport report;
  Walk(located_root, evaluator, locations, /*depth=*/0, &report, steps);
  return report;
}

}  // namespace cgq
