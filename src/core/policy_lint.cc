#include "core/policy_lint.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"

namespace cgq {

namespace {

using Severity = PolicyLintFinding::Severity;

}  // namespace

std::vector<PolicyLintFinding> LintPolicies(const Catalog& catalog,
                                            const PolicyCatalog& policies) {
  std::vector<PolicyLintFinding> findings;
  const LocationCatalog& locs = catalog.locations();

  for (LocationId l = 0; l < locs.num_locations(); ++l) {
    const std::string& loc_name = locs.GetName(l);
    const std::vector<PolicyExpression>& exprs = policies.For(l);

    // Misplaced expressions & no-op targets.
    for (const PolicyExpression& e : exprs) {
      auto table = catalog.GetTable(e.table);
      if (!table.ok()) continue;  // validated at install; defensive
      if (!(*table)->LocationsOf().Contains(l)) {
        findings.push_back(
            {Severity::kWarning, loc_name,
             "expression \"" + e.ToString(locs) + "\" governs table '" +
                 e.table + "', which stores no fragment here; it will "
                 "never be consulted"});
      }
      if (e.to == LocationSet::Single(l)) {
        findings.push_back(
            {Severity::kInfo, loc_name,
             "expression \"" + e.ToString(locs) +
                 "\" only permits shipping to this location itself (a "
                 "no-op: data may always stay home)"});
      }
    }

    // Redundant (subsumed) basic expressions.
    for (size_t i = 0; i < exprs.size(); ++i) {
      for (size_t j = 0; j < exprs.size(); ++j) {
        if (i == j) continue;
        if (PolicySubsumes(exprs[i], exprs[j]) &&
            !PolicySubsumes(exprs[j], exprs[i])) {
          findings.push_back(
              {Severity::kInfo, loc_name,
               "expression \"" + exprs[j].ToString(locs) +
                   "\" is subsumed by \"" + exprs[i].ToString(locs) +
                   "\" and can be removed"});
        }
      }
    }

    // Attributes with no egress at all.
    for (const std::string& table_name : catalog.TableNames()) {
      auto table = catalog.GetTable(table_name);
      if (!table.ok() || !(*table)->LocationsOf().Contains(l)) continue;
      std::vector<std::string> stuck;
      for (const ColumnDef& col : (*table)->schema.columns()) {
        std::string column = ToLower(col.name);
        bool covered = false;
        for (const PolicyExpression& e : exprs) {
          if (e.table != table_name) continue;
          covered |= e.HasShipAttribute(column);
          covered |= e.is_aggregate() && e.HasGroupAttribute(column);
        }
        if (!covered) stuck.push_back(column);
      }
      if (!stuck.empty() &&
          stuck.size() < (*table)->schema.num_columns()) {
        findings.push_back(
            {Severity::kInfo, loc_name,
             "table '" + table_name + "': attribute(s) " +
                 Join(stuck, ", ") +
                 " have no egress expression and can never leave"});
      } else if (stuck.size() == (*table)->schema.num_columns()) {
        findings.push_back({Severity::kInfo, loc_name,
                            "table '" + table_name +
                                "' has no egress expressions at all; its "
                                "data is pinned here"});
      }
    }
  }
  return findings;
}

}  // namespace cgq
