#include <gtest/gtest.h>

#include <string>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "types/date.h"

namespace cgq {
namespace {

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// `n` copies of `term` joined by `op`: a left-deep chain.
std::string Chain(const std::string& term, const std::string& op, int n) {
  return term + Repeat(" " + op + " " + term, n - 1);
}

template <typename T>
void ExpectTooDeep(const Result<T>& r) {
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  EXPECT_NE(r.status().message().find("nests deeper than"),
            std::string::npos)
      << r.status();
}

TEST(LexerTest, BasicTokens) {
  auto r = Tokenize("SELECT a, b FROM t WHERE x >= 1.5");
  ASSERT_TRUE(r.ok());
  const auto& tokens = *r;
  EXPECT_EQ(tokens[0].text, "select");
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_EQ(tokens[2].type, TokenType::kComma);
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

TEST(LexerTest, Operators) {
  auto r = Tokenize("= <> != < <= > >= + - * /");
  ASSERT_TRUE(r.ok());
  std::vector<TokenType> expected = {
      TokenType::kEq, TokenType::kNe, TokenType::kNe,    TokenType::kLt,
      TokenType::kLe, TokenType::kGt, TokenType::kGe,    TokenType::kPlus,
      TokenType::kMinus, TokenType::kStar, TokenType::kSlash,
      TokenType::kEnd};
  ASSERT_EQ(r->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*r)[i].type, expected[i]) << i;
  }
}

TEST(LexerTest, StringLiteralWithEscapedQuote) {
  auto r = Tokenize("'it''s'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].type, TokenType::kString);
  EXPECT_EQ((*r)[0].text, "it's");
}

TEST(LexerTest, UnterminatedString) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, LineComment) {
  auto r = Tokenize("a -- comment here\n b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].text, "a");
  EXPECT_EQ((*r)[1].text, "b");
}

TEST(LexerTest, NumbersIntAndFloat) {
  auto r = Tokenize("42 3.14");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].int_value, 42);
  EXPECT_DOUBLE_EQ((*r)[1].float_value, 3.14);
}

TEST(ParserTest, SimpleSelect) {
  auto r = ParseQuery("SELECT name, acctbal FROM customer");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->select.size(), 2u);
  EXPECT_EQ(r->select[0].output_name, "name");
  EXPECT_EQ(r->from.size(), 1u);
  EXPECT_EQ(r->from[0].table, "customer");
  EXPECT_EQ(r->from[0].alias, "customer");
}

TEST(ParserTest, AliasesExplicitAndImplicit) {
  auto r = ParseQuery("SELECT c.name FROM customer AS c, orders o");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->from[0].alias, "c");
  EXPECT_EQ(r->from[1].alias, "o");
}

TEST(ParserTest, WhereWithPrecedence) {
  auto r = ParseQuery(
      "SELECT a FROM t WHERE a > 1 AND b < 2 OR c = 3");
  ASSERT_TRUE(r.ok()) << r.status();
  // OR binds loosest.
  EXPECT_EQ(r->where->op(), ExprOp::kOr);
  EXPECT_EQ(r->where->child(0)->op(), ExprOp::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto r = ParseQuery("SELECT a FROM t WHERE a + b * 2 > 10");
  ASSERT_TRUE(r.ok()) << r.status();
  const Expr& cmp = *r->where;
  EXPECT_EQ(cmp.op(), ExprOp::kGt);
  EXPECT_EQ(cmp.child(0)->op(), ExprOp::kAdd);
  EXPECT_EQ(cmp.child(0)->child(1)->op(), ExprOp::kMul);
}

TEST(ParserTest, Aggregates) {
  auto r = ParseQuery(
      "SELECT c.name, SUM(o.total) AS s, COUNT(o.id) FROM c, o "
      "GROUP BY c.name");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->select[0].agg.has_value());
  EXPECT_EQ(r->select[1].agg, AggFn::kSum);
  EXPECT_EQ(r->select[1].output_name, "s");
  EXPECT_EQ(r->select[2].agg, AggFn::kCount);
  ASSERT_EQ(r->group_by.size(), 1u);
  EXPECT_EQ(r->group_by[0]->column(), "name");
}

TEST(ParserTest, AggregateOverExpression) {
  auto r = ParseQuery(
      "SELECT SUM(l.extendedprice * (1 - l.discount)) AS revenue FROM l");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->select[0].agg, AggFn::kSum);
  EXPECT_EQ(r->select[0].expr->op(), ExprOp::kMul);
}

TEST(ParserTest, LikeInBetween) {
  auto r = ParseQuery(
      "SELECT a FROM t WHERE name LIKE '%BRASS%' AND x IN (1, 2, 3) "
      "AND y BETWEEN 5 AND 10 AND z NOT LIKE 'a%'");
  ASSERT_TRUE(r.ok()) << r.status();
  auto conjuncts = SplitConjuncts(r->where);
  ASSERT_EQ(conjuncts.size(), 5u);  // BETWEEN desugars to two conjuncts
  EXPECT_EQ(conjuncts[0]->op(), ExprOp::kLike);
  EXPECT_EQ(conjuncts[1]->op(), ExprOp::kIn);
  EXPECT_EQ(conjuncts[1]->in_list().size(), 3u);
  EXPECT_EQ(conjuncts[2]->op(), ExprOp::kGe);
  EXPECT_EQ(conjuncts[3]->op(), ExprOp::kLe);
  EXPECT_EQ(conjuncts[4]->op(), ExprOp::kNotLike);
}

TEST(ParserTest, DateLiteral) {
  auto r = ParseQuery("SELECT a FROM t WHERE d < DATE '1995-03-15'");
  ASSERT_TRUE(r.ok()) << r.status();
  const Expr& lit = *r->where->child(1);
  EXPECT_EQ(lit.op(), ExprOp::kLiteral);
  EXPECT_EQ(lit.literal().int64(), DaysFromCivil(1995, 3, 15));
}

TEST(ParserTest, OrderByLimit) {
  auto r = ParseQuery(
      "SELECT a, b FROM t ORDER BY b DESC, a LIMIT 10");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->order_by.size(), 2u);
  EXPECT_TRUE(r->order_by[0].descending);
  EXPECT_FALSE(r->order_by[1].descending);
  EXPECT_EQ(r->limit, 10);
}

// Nesting is bounded by kMaxExprDepth: at the bound an expression
// parses, one level past it the parse fails with a typed
// kInvalidArgument instead of overflowing the stack. The bound covers
// the parser's recursion (NOT, parentheses, unary minus) and the tree
// depth of the left-deep chains AND/OR/+/* build in a loop.
TEST(ParserTest, NestingBoundedAtMaxExprDepth) {
  const int bound = kMaxExprDepth;
  auto where = [](const std::string& predicate) {
    return ParseQuery("SELECT a FROM t WHERE " + predicate);
  };
  // k NOTs over a comparison nest k + 2 levels.
  auto nots = [&](int k) { return where(Repeat("NOT ", k) + "a = 1"); };
  auto at_bound = nots(bound - 2);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status();
  EXPECT_EQ(at_bound->where->depth(), bound);
  ExpectTooDeep(nots(bound - 1));
  ExpectTooDeep(nots(10000));

  // Parentheses add no tree level but one of recursion each; the WHERE
  // expression itself is the first.
  auto parens = [&](int k) {
    return where(Repeat("(", k) + "a = 1" + Repeat(")", k));
  };
  EXPECT_TRUE(parens(bound - 1).ok());
  ExpectTooDeep(parens(bound));
  ExpectTooDeep(parens(5000));

  // A chain of k comparisons nests k + 1 levels.
  for (const char* op : {"OR", "AND"}) {
    SCOPED_TRACE(op);
    auto chain = [&](int k) { return where(Chain("a = 0", op, k)); };
    auto r = chain(bound - 1);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->where->depth(), bound);
    ExpectTooDeep(chain(bound));
    ExpectTooDeep(chain(10000));
  }

  // A chain of k columns nests k levels.
  for (const char* op : {"+", "*"}) {
    SCOPED_TRACE(op);
    auto chain = [&](int k) {
      return ParseQuery("SELECT " + Chain("a", op, k) + " FROM t");
    };
    auto r = chain(bound);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->select[0].expr->depth(), bound);
    ExpectTooDeep(chain(bound + 1));
  }

  // Unary minus on a column is (0 - a): k minuses nest k + 1 levels.
  auto minuses = [&](int k) {
    return ParseQuery("SELECT " + Repeat("- ", k) + "a FROM t");
  };
  EXPECT_TRUE(minuses(bound - 1).ok());
  ExpectTooDeep(minuses(bound));
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseQuery("SELECT FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT a").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t extra garbage ,").ok());
}

TEST(ParserTest, NegativeNumbers) {
  auto r = ParseQuery("SELECT a FROM t WHERE x > -5");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->where->op(), ExprOp::kGt);
}

TEST(PolicyParserTest, BasicExpression) {
  auto r = ParsePolicyExpression(
      "ship custkey, name from Customer C to Asia, Europe");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->ship_all);
  EXPECT_EQ(r->attributes, (std::vector<std::string>{"custkey", "name"}));
  EXPECT_EQ(r->table, "customer");
  EXPECT_EQ(r->alias, "c");
  EXPECT_EQ(r->to_locations,
            (std::vector<std::string>{"asia", "europe"}));
  EXPECT_TRUE(r->agg_fns.empty());
}

TEST(PolicyParserTest, ShipStarToStar) {
  auto r = ParsePolicyExpression("ship * from nation to *");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->ship_all);
  EXPECT_TRUE(r->to_all);
}

TEST(PolicyParserTest, WithWhere) {
  auto r = ParsePolicyExpression(
      "ship mktseg, region from Customer to Europe "
      "where mktseg = 'commercial'");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_NE(r->where, nullptr);
  EXPECT_EQ(r->where->op(), ExprOp::kEq);
}

TEST(PolicyParserTest, AggregateExpression) {
  auto r = ParsePolicyExpression(
      "ship acctbal as aggregates sum, avg from Customer C to * "
      "group by mktseg, region");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->agg_fns, (std::vector<AggFn>{AggFn::kSum, AggFn::kAvg}));
  EXPECT_EQ(r->group_by, (std::vector<std::string>{"mktseg", "region"}));
}

TEST(PolicyParserTest, Table3Example) {
  auto r = ParsePolicyExpression(
      "ship partkey, mfgr, size, type, name from part to L4 "
      "where size > 40 OR type LIKE '%COPPER%'");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->attributes.size(), 5u);
  EXPECT_EQ(r->where->op(), ExprOp::kOr);
}

// Policy texts go through the same parser and the same bound.
TEST(PolicyParserTest, NestingBoundedAtMaxExprDepth) {
  auto policy = [](int nots) {
    return ParsePolicyExpression("ship * from t to * where " +
                                 Repeat("NOT ", nots) + "a = 1");
  };
  auto at_bound = policy(kMaxExprDepth - 2);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status();
  EXPECT_EQ(at_bound->where->depth(), kMaxExprDepth);
  ExpectTooDeep(policy(kMaxExprDepth - 1));
}

TEST(PolicyParserTest, RejectsBadSyntax) {
  EXPECT_FALSE(ParsePolicyExpression("ship from t to *").ok());
  EXPECT_FALSE(ParsePolicyExpression("ship a from t").ok());
  EXPECT_FALSE(ParsePolicyExpression("ship a to x from t").ok());
  EXPECT_FALSE(
      ParsePolicyExpression("ship a as aggregates bogus from t to *").ok());
}

}  // namespace
}  // namespace cgq
