#include <gtest/gtest.h>

#include "core/policy_lint.h"

namespace cgq {
namespace {

class PolicyLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* l : {"n", "e"}) {
      ASSERT_TRUE(catalog_.mutable_locations().AddLocation(l).ok());
    }
    TableDef t;
    t.name = "cust";
    t.schema = Schema({{"id", DataType::kInt64},
                       {"name", DataType::kString},
                       {"secret", DataType::kString}});
    t.fragments = {TableFragment{0, 1.0}};
    t.stats.row_count = 10;
    ASSERT_TRUE(catalog_.AddTable(t).ok());
    TableDef o;
    o.name = "ord";
    o.schema = Schema({{"id", DataType::kInt64}});
    o.fragments = {TableFragment{1, 1.0}};
    o.stats.row_count = 10;
    ASSERT_TRUE(catalog_.AddTable(o).ok());
    policies_ = std::make_unique<PolicyCatalog>(&catalog_);
  }

  bool HasFinding(const std::vector<PolicyLintFinding>& findings,
                  const std::string& needle) {
    for (const PolicyLintFinding& f : findings) {
      if (f.ToString().find(needle) != std::string::npos) return true;
    }
    return false;
  }

  Catalog catalog_;
  std::unique_ptr<PolicyCatalog> policies_;
};

TEST_F(PolicyLintTest, ReportsStuckAttributes) {
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship id, name from cust to e")
                  .ok());
  ASSERT_TRUE(policies_->AddPolicyText("e", "ship * from ord to *").ok());
  auto findings = LintPolicies(catalog_, *policies_);
  EXPECT_TRUE(HasFinding(findings, "secret")) << findings.size();
  EXPECT_TRUE(HasFinding(findings, "can never leave"));
}

TEST_F(PolicyLintTest, ReportsPinnedTables) {
  // No cust expressions at all.
  ASSERT_TRUE(policies_->AddPolicyText("e", "ship * from ord to *").ok());
  auto findings = LintPolicies(catalog_, *policies_);
  EXPECT_TRUE(HasFinding(findings, "pinned here"));
}

TEST_F(PolicyLintTest, ReportsMisplacedExpression) {
  // ord is stored at e, not n: the expression is dead.
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship id from ord to *").ok());
  auto findings = LintPolicies(catalog_, *policies_);
  EXPECT_TRUE(HasFinding(findings, "never be consulted"));
}

TEST_F(PolicyLintTest, ReportsNoOpSelfTarget) {
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship id from cust to n").ok());
  auto findings = LintPolicies(catalog_, *policies_);
  EXPECT_TRUE(HasFinding(findings, "no-op"));
}

TEST_F(PolicyLintTest, ReportsSubsumedExpression) {
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship id, name from cust to *")
                  .ok());
  ASSERT_TRUE(policies_
                  ->AddPolicyText("n", "ship id from cust to e "
                                       "where id > 10")
                  .ok());
  auto findings = LintPolicies(catalog_, *policies_);
  EXPECT_TRUE(HasFinding(findings, "subsumed"));
}

TEST_F(PolicyLintTest, ReportsSubsumedExpressionInHierarchicalIndex) {
  // The hierarchical index keeps every installed expression, so a narrow
  // policy shadowed by a later, wider one is still a pairwise finding.
  policies_ = std::make_unique<PolicyCatalog>(
      &catalog_, PolicyIndexMode::kHierarchical);
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship id from cust to e").ok());
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship * from cust to e").ok());
  auto findings = LintPolicies(catalog_, *policies_);
  EXPECT_TRUE(
      HasFinding(findings, "\"ship id from cust to e\" is subsumed by"));
}

TEST_F(PolicyLintTest, NoFalseSubsumptionAcrossConditions) {
  // Conditions point in different directions: neither subsumes.
  ASSERT_TRUE(policies_
                  ->AddPolicyText("n",
                                  "ship id from cust to e where id > 10")
                  .ok());
  ASSERT_TRUE(policies_
                  ->AddPolicyText("n",
                                  "ship id from cust to e where id < 5")
                  .ok());
  auto findings = LintPolicies(catalog_, *policies_);
  EXPECT_FALSE(HasFinding(findings, "subsumed"));
}

TEST_F(PolicyLintTest, CleanCatalogOnlyStuckInfoForCoveredSetup) {
  ASSERT_TRUE(policies_->AddPolicyText("n", "ship * from cust to *").ok());
  ASSERT_TRUE(policies_->AddPolicyText("e", "ship * from ord to *").ok());
  auto findings = LintPolicies(catalog_, *policies_);
  for (const PolicyLintFinding& f : findings) {
    EXPECT_NE(f.severity, PolicyLintFinding::Severity::kWarning)
        << f.ToString();
  }
}

}  // namespace
}  // namespace cgq
