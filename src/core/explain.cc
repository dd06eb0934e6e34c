#include "core/explain.h"

#include <sstream>
#include <vector>

#include "core/compliance_checker.h"

namespace cgq {

namespace {

/// One line (a SHIP with legal grants: one line per grant more) of the
/// report for a step of the Definition-1 walk.
void FormatStep(const ComplianceStep& step, const LocationCatalog& locations,
                std::ostringstream* os) {
  const PlanNode& node = *step.node;
  auto indent = [&](int d) {
    for (int i = 0; i < d; ++i) *os << "  ";
  };
  indent(step.depth);
  if (node.kind() != PlanKind::kShip) {
    *os << node.Describe() << ": VIOLATION — runs at "
        << locations.GetName(node.location) << ", allowed "
        << locations.SetToString(step.allowed) << "\n";
    return;
  }
  *os << "SHIP " << locations.GetName(node.ship_from) << " -> "
      << locations.GetName(node.ship_to) << ": ";
  if (step.violation) {
    *os << "VIOLATION (legal targets " << locations.SetToString(step.allowed)
        << ")\n";
    return;
  }
  if (!step.grant_db) {
    *os << "legal; composite intermediate (multi-database or "
           "post-aggregation) — every input may ship to "
        << locations.GetName(node.ship_to)
        << " (AR2), so the result inherits the site (AR3)\n";
    return;
  }
  *os << "legal; single-database subquery of "
      << locations.GetName(*step.grant_db) << ", granted attribute-wise:\n";
  for (const AttrGrant& g : step.grants) {
    indent(step.depth + 1);
    *os << g.base.ToString();
    if (g.fn) *os << " [" << AggFnToString(*g.fn) << "]";
    *os << " -> " << locations.SetToString(g.granted);
    if (g.granted.Contains(node.ship_to) && !g.granted_by.empty()) {
      *os << "  via \"" << g.granted_by.front()->ToString(locations) << "\"";
      if (g.granted_by.size() > 1) {
        *os << " (+" << g.granted_by.size() - 1 << " more)";
      }
    } else if (!g.granted.Contains(node.ship_to)) {
      *os << "  (home/trait-derived)";
    }
    *os << "\n";
  }
}

}  // namespace

std::string ExplainCompliance(const PlanNode& located_root,
                              const PolicyEvaluator& evaluator,
                              const LocationCatalog& locations) {
  std::ostringstream os;
  os << "Compliance provenance (result at "
     << locations.GetName(located_root.location) << "):\n";
  std::vector<ComplianceStep> steps;
  (void)CheckCompliance(located_root, evaluator, locations, &steps);
  for (const ComplianceStep& step : steps) {
    FormatStep(step, locations, &os);
  }
  std::string out = os.str();
  if (out.find("SHIP") == std::string::npos) {
    out += "  plan is fully local: no cross-border transfers\n";
  }

  // Evaluator instrumentation: how much Goldstein–Larson work the verdict
  // above took, and how much of it the implication cache absorbed.
  PolicyEvalStats stats = evaluator.stats();
  std::ostringstream footer;
  footer.setf(std::ios::fixed);
  footer.precision(3);
  footer << "policy evaluation: " << stats.evaluations << " evaluations, "
         << stats.implication_tests << " implication tests";
  if (stats.implication_cache_hits + stats.implication_cache_misses > 0) {
    double rate = 100.0 * static_cast<double>(stats.implication_cache_hits) /
                  static_cast<double>(stats.implication_cache_hits +
                                      stats.implication_cache_misses);
    footer << " (" << stats.implication_cache_hits << " cache hits, "
           << stats.implication_cache_misses << " misses, ";
    footer.precision(1);
    footer << rate << "% hit rate)";
    footer.precision(3);
  }
  footer << ", eta=" << stats.eta << ", " << stats.eval_ms << " ms\n";
  out += footer.str();
  return out;
}

}  // namespace cgq
