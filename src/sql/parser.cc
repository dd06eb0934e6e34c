#include "sql/parser.h"

#include <cctype>
#include <optional>

#include "sql/lexer.h"
#include "types/date.h"

namespace cgq {

namespace {

// Keywords that terminate identifier-based clauses.
bool IsKeyword(const std::string& s) {
  static const char* kKeywords[] = {
      "select", "from",  "where", "group", "by",    "order", "asc",
      "desc",   "limit", "as",    "and",   "or",    "not",   "like",
      "in",     "between", "sum", "avg",   "min",   "max",   "count",
      "ship",   "to",    "aggregates", "date", "distinct", "having",
      "exists"};
  for (const char* k : kKeywords) {
    if (s == k) return true;
  }
  return false;
}

std::optional<AggFn> AggFnFromName(const std::string& s) {
  if (s == "sum") return AggFn::kSum;
  if (s == "avg") return AggFn::kAvg;
  if (s == "min") return AggFn::kMin;
  if (s == "max") return AggFn::kMax;
  if (s == "count") return AggFn::kCount;
  return std::nullopt;
}

/// Recursive-descent parser over a token stream. Methods return Status /
/// Result; the cursor is only advanced on success paths.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<QueryAst> ParseQuery();
  Result<PolicyExprAst> ParsePolicy();

 private:
  Status ParseQueryBody(QueryAst* q);

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenType t) const { return Peek().type == t; }
  bool CheckIdent(const char* word) const {
    return Peek().type == TokenType::kIdentifier && Peek().text == word;
  }
  bool Match(TokenType t) {
    if (!Check(t)) return false;
    ++pos_;
    return true;
  }
  bool MatchIdent(const char* word) {
    if (!CheckIdent(word)) return false;
    ++pos_;
    return true;
  }
  Status Expect(TokenType t, const char* what) {
    if (Match(t)) return Status::OK();
    return Err(std::string("expected ") + what);
  }
  Status ExpectIdent(const char* word) {
    if (MatchIdent(word)) return Status::OK();
    return Err(std::string("expected '") + word + "'");
  }
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(msg + " at offset " +
                                   std::to_string(Peek().offset));
  }

  // Expression grammar (loosest to tightest binding). Parens, subquery
  // bodies, NOT and unary minus recurse through Descend; every node built
  // goes through Nest. Both refuse past kMaxExprDepth.
  Result<ExprPtr> ParseExpr() { return Descend(&Parser::ParseOr); }
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();

  Result<ExprPtr> Descend(Result<ExprPtr> (Parser::*parse)()) {
    if (depth_ >= kMaxExprDepth) return TooDeep();
    ++depth_;
    Result<ExprPtr> e = (this->*parse)();
    --depth_;
    return e;
  }
  Result<ExprPtr> Nest(ExprPtr e) const {
    if (e->depth() > kMaxExprDepth) return TooDeep();
    return e;
  }
  Status TooDeep() const {
    return Err("expression nests deeper than " +
               std::to_string(kMaxExprDepth) + " levels");
  }

  Result<Value> ParseLiteralValue();
  /// Literal factory: tags the node with the next param ordinal when this
  /// parse is a query (never for policy expressions — policy constants
  /// must not be rebindable by the parameterized plan cache).
  ExprPtr MakeLiteral(Value v) {
    return tag_literals_ ? Expr::ParamLiteral(std::move(v),
                                              next_param_ordinal_++)
                         : Expr::Literal(std::move(v));
  }
  Result<std::string> ParseIdentifier(const char* what);
  Result<std::vector<std::string>> ParseNameList(const char* what);

  // Parses "(SELECT ...)" after the '(' was consumed.
  Result<std::shared_ptr<QueryAst>> ParseSubquery() {
    auto inner = std::make_shared<QueryAst>();
    CGQ_RETURN_NOT_OK(ParseQueryBody(inner.get()));
    CGQ_RETURN_NOT_OK(Expect(TokenType::kRParen, "')' after subquery"));
    return inner;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  QueryAst* current_query_ = nullptr;  // target for subquery predicates
  // Literal-token numbering for parameterized plan caching. Assigned in
  // token order (recursive descent creates literals left to right), which
  // is exactly the order ParameterizeSql() extracts them in.
  bool tag_literals_ = false;
  int next_param_ordinal_ = 0;
  int depth_ = 0;  // Descend recursion
};

Result<ExprPtr> Parser::ParseOr() {
  CGQ_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (MatchIdent("or")) {
    CGQ_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    CGQ_ASSIGN_OR_RETURN(left, Nest(Expr::Binary(ExprOp::kOr, left, right)));
  }
  return left;
}

Result<ExprPtr> Parser::ParseAnd() {
  CGQ_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (MatchIdent("and")) {
    CGQ_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    CGQ_ASSIGN_OR_RETURN(left, Nest(Expr::Binary(ExprOp::kAnd, left, right)));
  }
  return left;
}

Result<ExprPtr> Parser::ParseNot() {
  if (MatchIdent("not")) {
    CGQ_ASSIGN_OR_RETURN(ExprPtr inner, Descend(&Parser::ParseNot));
    return Nest(Expr::Unary(ExprOp::kNot, inner));
  }
  if (CheckIdent("exists") && Peek(1).type == TokenType::kLParen) {
    Advance();  // EXISTS
    Advance();  // '('
    if (!CheckIdent("select")) return Err("expected SELECT after EXISTS(");
    if (current_query_ == nullptr) {
      return Err("subquery not allowed in this context");
    }
    CGQ_ASSIGN_OR_RETURN(std::shared_ptr<QueryAst> inner, ParseSubquery());
    current_query_->subqueries.push_back(SubqueryPredicate{
        SubqueryPredicate::Kind::kExists, nullptr, std::move(inner)});
    return Expr::Literal(Value::Int64(1));  // placeholder conjunct
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  CGQ_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
  // [NOT] LIKE / IN / BETWEEN
  bool negated = false;
  size_t saved = pos_;
  if (MatchIdent("not")) {
    if (CheckIdent("like") || CheckIdent("in") || CheckIdent("between")) {
      negated = true;
    } else {
      pos_ = saved;
      return left;
    }
  }
  if (MatchIdent("like")) {
    CGQ_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
    return Nest(Expr::Binary(negated ? ExprOp::kNotLike : ExprOp::kLike,
                             left, pattern));
  }
  if (MatchIdent("in")) {
    CGQ_RETURN_NOT_OK(Expect(TokenType::kLParen, "'(' after IN"));
    if (CheckIdent("select")) {
      if (negated) return Err("NOT IN subqueries are not supported");
      if (current_query_ == nullptr) {
        return Err("subquery not allowed in this context");
      }
      CGQ_ASSIGN_OR_RETURN(std::shared_ptr<QueryAst> inner, ParseSubquery());
      current_query_->subqueries.push_back(SubqueryPredicate{
          SubqueryPredicate::Kind::kIn, left, std::move(inner)});
      return Expr::Literal(Value::Int64(1));  // placeholder conjunct
    }
    std::vector<Value> values;
    std::vector<int> ordinals;
    do {
      // One ordinal per IN element; a leading minus / DATE prefix folds
      // into the element the same way the normalizer folds it.
      int ordinal = tag_literals_ ? next_param_ordinal_++ : -1;
      CGQ_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      values.push_back(std::move(v));
      ordinals.push_back(ordinal);
    } while (Match(TokenType::kComma));
    CGQ_RETURN_NOT_OK(Expect(TokenType::kRParen, "')' after IN list"));
    ExprPtr in = tag_literals_
                     ? Expr::InList(left, std::move(values),
                                    std::move(ordinals))
                     : Expr::InList(left, std::move(values));
    return Nest(negated ? Expr::Unary(ExprOp::kNot, in) : in);
  }
  if (MatchIdent("between")) {
    CGQ_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    CGQ_RETURN_NOT_OK(ExpectIdent("and"));
    CGQ_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    ExprPtr range =
        Expr::Binary(ExprOp::kAnd, Expr::Binary(ExprOp::kGe, left, lo),
                     Expr::Binary(ExprOp::kLe, left, hi));
    return Nest(negated ? Expr::Unary(ExprOp::kNot, range) : range);
  }
  ExprOp op;
  switch (Peek().type) {
    case TokenType::kEq:
      op = ExprOp::kEq;
      break;
    case TokenType::kNe:
      op = ExprOp::kNe;
      break;
    case TokenType::kLt:
      op = ExprOp::kLt;
      break;
    case TokenType::kLe:
      op = ExprOp::kLe;
      break;
    case TokenType::kGt:
      op = ExprOp::kGt;
      break;
    case TokenType::kGe:
      op = ExprOp::kGe;
      break;
    default:
      return left;
  }
  Advance();
  // Scalar aggregate subquery: <expr> = (SELECT agg(...) ...).
  if (Check(TokenType::kLParen) && Peek(1).type == TokenType::kIdentifier &&
      Peek(1).text == "select") {
    if (op != ExprOp::kEq) {
      return Err("scalar subqueries support '=' comparisons only");
    }
    if (current_query_ == nullptr) {
      return Err("subquery not allowed in this context");
    }
    Advance();  // '('
    CGQ_ASSIGN_OR_RETURN(std::shared_ptr<QueryAst> inner, ParseSubquery());
    current_query_->subqueries.push_back(SubqueryPredicate{
        SubqueryPredicate::Kind::kEqAgg, left, std::move(inner)});
    return Expr::Literal(Value::Int64(1));  // placeholder conjunct
  }
  CGQ_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
  return Nest(Expr::Binary(op, left, right));
}

Result<ExprPtr> Parser::ParseAdditive() {
  CGQ_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
  while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
    ExprOp op = Check(TokenType::kPlus) ? ExprOp::kAdd : ExprOp::kSub;
    Advance();
    CGQ_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
    CGQ_ASSIGN_OR_RETURN(left, Nest(Expr::Binary(op, left, right)));
  }
  return left;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  CGQ_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
  while (Check(TokenType::kStar) || Check(TokenType::kSlash)) {
    ExprOp op = Check(TokenType::kStar) ? ExprOp::kMul : ExprOp::kDiv;
    Advance();
    CGQ_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
    CGQ_ASSIGN_OR_RETURN(left, Nest(Expr::Binary(op, left, right)));
  }
  return left;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    CGQ_ASSIGN_OR_RETURN(ExprPtr inner, Descend(&Parser::ParseUnary));
    // Fold negated numeric literals so -5 stays a literal (range
    // estimation and the implication test rely on column-vs-literal form).
    if (inner->op() == ExprOp::kLiteral) {
      const Value& v = inner->literal();
      // Keep the inner literal's param ordinal: the normalizer folds a
      // unary minus and its numeric literal into one (negated) parameter.
      if (v.is_int64()) {
        return Expr::ParamLiteral(Value::Int64(-v.int64()),
                                  inner->param_ordinal());
      }
      if (v.is_double()) {
        return Expr::ParamLiteral(Value::Double(-v.dbl()),
                                  inner->param_ordinal());
      }
    }
    return Nest(
        Expr::Binary(ExprOp::kSub, Expr::Literal(Value::Int64(0)), inner));
  }
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kInteger:
      Advance();
      return MakeLiteral(Value::Int64(t.int_value));
    case TokenType::kFloat:
      Advance();
      return MakeLiteral(Value::Double(t.float_value));
    case TokenType::kString:
      Advance();
      return MakeLiteral(Value::String(t.text));
    case TokenType::kLParen: {
      Advance();
      CGQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      CGQ_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return e;
    }
    case TokenType::kIdentifier: {
      if (t.text == "date") {
        Advance();
        if (!Check(TokenType::kString)) return Err("expected date string");
        const std::string text = Advance().text;
        CGQ_ASSIGN_OR_RETURN(int64_t days, ParseDate(text));
        return MakeLiteral(Value::Date(days));
      }
      if (IsKeyword(t.text)) return Err("unexpected keyword '" + t.text + "'");
      Advance();
      if (Match(TokenType::kDot)) {
        if (!Check(TokenType::kIdentifier)) return Err("expected column name");
        std::string column = Advance().text;
        return Expr::Column(t.text, column);
      }
      return Expr::Column("", t.text);
    }
    default:
      return Err("expected expression");
  }
}

Result<Value> Parser::ParseLiteralValue() {
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kInteger:
      Advance();
      return Value::Int64(t.int_value);
    case TokenType::kFloat:
      Advance();
      return Value::Double(t.float_value);
    case TokenType::kString:
      Advance();
      return Value::String(t.text);
    case TokenType::kIdentifier:
      if (t.text == "date") {
        Advance();
        if (!Check(TokenType::kString)) return Err("expected date string");
        CGQ_ASSIGN_OR_RETURN(int64_t days, ParseDate(Advance().text));
        return Value::Date(days);
      }
      return Err("expected literal");
    case TokenType::kMinus: {
      Advance();
      CGQ_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      if (v.is_int64()) return Value::Int64(-v.int64());
      if (v.is_double()) return Value::Double(-v.dbl());
      return Err("cannot negate literal");
    }
    default:
      return Err("expected literal");
  }
}

Result<std::string> Parser::ParseIdentifier(const char* what) {
  if (!Check(TokenType::kIdentifier) || IsKeyword(Peek().text)) {
    return Err(std::string("expected ") + what);
  }
  return Advance().text;
}

Result<std::vector<std::string>> Parser::ParseNameList(const char* what) {
  std::vector<std::string> names;
  do {
    CGQ_ASSIGN_OR_RETURN(std::string name, ParseIdentifier(what));
    names.push_back(std::move(name));
  } while (Match(TokenType::kComma));
  return names;
}

Result<QueryAst> Parser::ParseQuery() {
  QueryAst q;
  tag_literals_ = true;
  CGQ_RETURN_NOT_OK(ParseQueryBody(&q));
  Match(TokenType::kSemicolon);
  if (!Check(TokenType::kEnd)) return Err("unexpected trailing input");
  return q;
}

Status Parser::ParseQueryBody(QueryAst* out) {
  QueryAst& q = *out;
  QueryAst* saved = current_query_;
  current_query_ = &q;
  // Restore the enclosing query's subquery target on every exit path.
  struct Restore {
    Parser* parser;
    QueryAst* saved;
    ~Restore() { parser->current_query_ = saved; }
  } restore{this, saved};

  CGQ_RETURN_NOT_OK(ExpectIdent("select"));
  if (MatchIdent("distinct")) q.distinct = true;
  do {
    SelectItemAst item;
    // Aggregate call?
    if (Check(TokenType::kIdentifier) && AggFnFromName(Peek().text) &&
        Peek(1).type == TokenType::kLParen) {
      item.agg = AggFnFromName(Advance().text);
      Advance();  // '('
      if (item.agg == AggFn::kCount && Match(TokenType::kStar)) {
        // COUNT(*): count rows; represented as COUNT over the literal 1.
        item.expr = Expr::Literal(Value::Int64(1));
      } else {
        CGQ_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
      CGQ_RETURN_NOT_OK(Expect(TokenType::kRParen, "')' after aggregate"));
    } else {
      CGQ_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    }
    if (MatchIdent("as")) {
      CGQ_ASSIGN_OR_RETURN(item.output_name, ParseIdentifier("output name"));
    } else if (item.expr->op() == ExprOp::kColumnRef && !item.agg) {
      item.output_name = item.expr->column();
    } else {
      item.output_name = "col" + std::to_string(q.select.size());
      if (item.agg && item.expr->op() == ExprOp::kColumnRef) {
        item.output_name = std::string(AggFnToString(*item.agg)) + "_" +
                           item.expr->column();
        for (char& ch : item.output_name) {
          ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
        }
      }
    }
    q.select.push_back(std::move(item));
  } while (Match(TokenType::kComma));

  CGQ_RETURN_NOT_OK(ExpectIdent("from"));
  do {
    TableRefAst ref;
    CGQ_ASSIGN_OR_RETURN(ref.table, ParseIdentifier("table name"));
    if (MatchIdent("as")) {
      CGQ_ASSIGN_OR_RETURN(ref.alias, ParseIdentifier("table alias"));
    } else if (Check(TokenType::kIdentifier) && !IsKeyword(Peek().text)) {
      ref.alias = Advance().text;
    } else {
      ref.alias = ref.table;
    }
    q.from.push_back(std::move(ref));
  } while (Match(TokenType::kComma));

  if (MatchIdent("where")) {
    CGQ_ASSIGN_OR_RETURN(q.where, ParseExpr());
  }
  if (MatchIdent("group")) {
    CGQ_RETURN_NOT_OK(ExpectIdent("by"));
    do {
      CGQ_ASSIGN_OR_RETURN(ExprPtr col, ParsePrimary());
      if (col->op() != ExprOp::kColumnRef) {
        return Err("GROUP BY supports column references only");
      }
      q.group_by.push_back(std::move(col));
    } while (Match(TokenType::kComma));
  }
  if (MatchIdent("having")) {
    CGQ_ASSIGN_OR_RETURN(q.having, ParseExpr());
  }
  if (MatchIdent("order")) {
    CGQ_RETURN_NOT_OK(ExpectIdent("by"));
    do {
      OrderItemAst item;
      CGQ_ASSIGN_OR_RETURN(item.name, ParseIdentifier("order column"));
      if (MatchIdent("desc")) {
        item.descending = true;
      } else {
        MatchIdent("asc");
      }
      q.order_by.push_back(std::move(item));
    } while (Match(TokenType::kComma));
  }
  if (MatchIdent("limit")) {
    if (!Check(TokenType::kInteger)) return Err("expected LIMIT count");
    q.limit = Advance().int_value;
  }
  return Status::OK();
}

Result<PolicyExprAst> Parser::ParsePolicy() {
  PolicyExprAst p;
  CGQ_RETURN_NOT_OK(ExpectIdent("ship"));
  if (Match(TokenType::kStar)) {
    p.ship_all = true;
  } else {
    CGQ_ASSIGN_OR_RETURN(p.attributes, ParseNameList("attribute"));
  }
  if (MatchIdent("as")) {
    CGQ_RETURN_NOT_OK(ExpectIdent("aggregates"));
    do {
      // SUM/AVG/... are keywords, so read the raw identifier here.
      if (!Check(TokenType::kIdentifier)) return Err("expected aggregate fn");
      std::string fn = Advance().text;
      std::optional<AggFn> agg = AggFnFromName(fn);
      if (!agg) return Err("unknown aggregate function '" + fn + "'");
      p.agg_fns.push_back(*agg);
    } while (Match(TokenType::kComma));
  }
  CGQ_RETURN_NOT_OK(ExpectIdent("from"));
  CGQ_ASSIGN_OR_RETURN(p.table, ParseIdentifier("table name"));
  if (Check(TokenType::kIdentifier) && !IsKeyword(Peek().text)) {
    p.alias = Advance().text;
  } else {
    p.alias = p.table;
  }
  CGQ_RETURN_NOT_OK(ExpectIdent("to"));
  if (Match(TokenType::kStar)) {
    p.to_all = true;
  } else {
    CGQ_ASSIGN_OR_RETURN(p.to_locations, ParseNameList("location"));
  }
  if (MatchIdent("where")) {
    CGQ_ASSIGN_OR_RETURN(p.where, ParseExpr());
  }
  if (MatchIdent("group")) {
    CGQ_RETURN_NOT_OK(ExpectIdent("by"));
    CGQ_ASSIGN_OR_RETURN(p.group_by, ParseNameList("group-by attribute"));
  }
  Match(TokenType::kSemicolon);
  if (!Check(TokenType::kEnd)) return Err("unexpected trailing input");
  return p;
}

}  // namespace

Result<QueryAst> ParseQuery(const std::string& sql) {
  CGQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

Result<PolicyExprAst> ParsePolicyExpression(const std::string& text) {
  CGQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParsePolicy();
}

}  // namespace cgq
