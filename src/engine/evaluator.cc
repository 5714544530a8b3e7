#include "engine/evaluator.h"

#include <cmath>

#include "types/date.h"
#include "util/string_util.h"

namespace prefsql {
namespace {

Value BoolOrNull(std::optional<bool> b) {
  if (!b) return Value::Null();
  return Value::Bool(*b);
}

// Resolves a column reference against the scope chain (innermost first).
Result<Value> ResolveColumn(const Expr& e, const EvalContext& ctx) {
  for (const EvalContext* scope = &ctx; scope != nullptr;
       scope = scope->outer) {
    if (scope->schema == nullptr) continue;
    size_t idx = 0;
    switch (scope->schema->ResolveScoped(e.qualifier, e.column, &idx)) {
      case Schema::ResolveOutcome::kFound:
        return (*scope->row)[idx];
      case Schema::ResolveOutcome::kAmbiguous:
        return Status::InvalidArgument(
            "ambiguous column: " +
            (e.qualifier.empty() ? e.column : e.qualifier + "." + e.column));
      case Schema::ResolveOutcome::kNotFound:
        break;
    }
  }
  return Status::InvalidArgument(
      "unknown column: " +
      (e.qualifier.empty() ? e.column : e.qualifier + "." + e.column));
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  // Integer arithmetic stays integral except for division by non-divisor.
  bool both_int =
      l.type() == ValueType::kInt && r.type() == ValueType::kInt;
  auto ln = l.ToNumeric(), rn = r.ToNumeric();
  if (!ln || !rn) {
    // Dynamic typing, SQLite-flavored: arithmetic on a non-numeric operand
    // yields NULL rather than an error. The preference rewriter relies on
    // this (COALESCE(attr - target, worst) ranks garbage values worst, the
    // same way the native Score() functions do).
    return Value::Null();
  }
  switch (op) {
    case BinaryOp::kAdd:
      if (both_int) return Value::Int(l.AsInt() + r.AsInt());
      return Value::Double(*ln + *rn);
    case BinaryOp::kSub:
      if (both_int) return Value::Int(l.AsInt() - r.AsInt());
      return Value::Double(*ln - *rn);
    case BinaryOp::kMul:
      if (both_int) return Value::Int(l.AsInt() * r.AsInt());
      return Value::Double(*ln * *rn);
    case BinaryOp::kDiv:
      if (*rn == 0.0) return Value::Null();  // SQL: division by zero -> NULL
      if (both_int && l.AsInt() % r.AsInt() == 0) {
        return Value::Int(l.AsInt() / r.AsInt());
      }
      return Value::Double(*ln / *rn);
    case BinaryOp::kMod:
      if (*rn == 0.0) return Value::Null();
      if (both_int) return Value::Int(l.AsInt() % r.AsInt());
      return Value::Double(std::fmod(*ln, *rn));
    default:
      return Status::Internal("not an arithmetic operator");
  }
}

Result<Value> EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kEq:
      return BoolOrNull(l.SqlEquals(r));
    case BinaryOp::kNe: {
      auto eq = l.SqlEquals(r);
      if (!eq) return Value::Null();
      return Value::Bool(!*eq);
    }
    case BinaryOp::kLt:
      return BoolOrNull(l.SqlLess(r));
    case BinaryOp::kGt:
      return BoolOrNull(r.SqlLess(l));
    case BinaryOp::kLe: {
      auto gt = r.SqlLess(l);
      if (!gt) return Value::Null();
      return Value::Bool(!*gt);
    }
    case BinaryOp::kGe: {
      auto lt = l.SqlLess(r);
      if (!lt) return Value::Null();
      return Value::Bool(!*lt);
    }
    default:
      return Status::Internal("not a comparison operator");
  }
}

std::optional<bool> AsTruth(const Value& v) {
  if (v.is_null()) return std::nullopt;
  if (v.type() == ValueType::kBool) return v.AsBool();
  if (auto n = v.ToNumeric()) return *n != 0.0;
  return std::nullopt;
}

Result<Value> EvalScalarFunction(const Expr& e, const EvalContext& ctx,
                                 std::vector<Value> args) {
  const std::string& f = e.function_name;
  auto need = [&](size_t n) -> Status {
    if (args.size() == n) return Status::OK();
    return Status::InvalidArgument("function " + f + " expects " +
                                   std::to_string(n) + " argument(s)");
  };
  (void)ctx;
  if (f == "abs") {
    PSQL_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == ValueType::kInt) {
      return Value::Int(std::llabs(args[0].AsInt()));
    }
    auto n = args[0].ToNumeric();
    if (!n) return Status::InvalidArgument("abs requires a numeric argument");
    return Value::Double(std::fabs(*n));
  }
  if (f == "lower" || f == "upper") {
    PSQL_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != ValueType::kText) {
      return Status::InvalidArgument(f + " requires a text argument");
    }
    return Value::Text(f == "lower" ? ToLower(args[0].AsText())
                                    : ToUpper(args[0].AsText()));
  }
  if (f == "length") {
    PSQL_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != ValueType::kText) {
      return Status::InvalidArgument("length requires a text argument");
    }
    return Value::Int(static_cast<int64_t>(args[0].AsText().size()));
  }
  if (f == "coalesce") {
    for (auto& a : args) {
      if (!a.is_null()) return std::move(a);
    }
    return Value::Null();
  }
  if (f == "round") {
    if (args.size() != 1 && args.size() != 2) {
      return Status::InvalidArgument("round expects 1 or 2 arguments");
    }
    if (args[0].is_null()) return Value::Null();
    auto n = args[0].ToNumeric();
    if (!n) return Status::InvalidArgument("round requires numeric argument");
    double scale = 1.0;
    if (args.size() == 2) {
      auto digits = args[1].ToNumeric();
      if (!digits) {
        return Status::InvalidArgument("round digits must be numeric");
      }
      scale = std::pow(10.0, *digits);
    }
    return Value::Double(std::round(*n * scale) / scale);
  }
  if (f == "sqrt") {
    PSQL_RETURN_IF_ERROR(need(1));
    if (args[0].is_null()) return Value::Null();
    auto n = args[0].ToNumeric();
    if (!n || *n < 0) {
      return Status::InvalidArgument("sqrt requires a non-negative number");
    }
    return Value::Double(std::sqrt(*n));
  }
  if (f == "contains") {
    // Scalar twin of the CONTAINS base preference (case-insensitive).
    PSQL_RETURN_IF_ERROR(need(2));
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    if (args[0].type() != ValueType::kText ||
        args[1].type() != ValueType::kText) {
      return Value::Null();  // non-text haystack: no match information
    }
    return Value::Bool(ContainsIgnoreCase(args[0].AsText(), args[1].AsText()));
  }
  if (f == "top" || f == "level" || f == "distance") {
    return Status::InvalidArgument(
        "quality function " + ToUpper(f) +
        "() is only valid in a query with a PREFERRING clause");
  }
  if (IsAggregateFunction(f)) {
    return Status::InvalidArgument("aggregate function " + f +
                                   " is not allowed in this context");
  }
  return Status::InvalidArgument("unknown function: " + f);
}

}  // namespace

bool IsAggregateFunction(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

bool ContainsAggregate(const Expr& e) {
  if (e.kind == ExprKind::kFunction && IsAggregateFunction(e.function_name)) {
    return true;
  }
  auto check = [](const ExprPtr& p) { return p && ContainsAggregate(*p); };
  if (check(e.left) || check(e.right) || check(e.lo) || check(e.hi) ||
      check(e.case_else)) {
    return true;
  }
  for (const auto& a : e.args) {
    if (ContainsAggregate(*a)) return true;
  }
  for (const auto& item : e.in_list) {
    if (ContainsAggregate(*item)) return true;
  }
  for (const auto& cw : e.case_whens) {
    if (ContainsAggregate(*cw.when) || ContainsAggregate(*cw.then)) return true;
  }
  return false;
}

bool SqlLike(const std::string& text, const std::string& pattern) {
  // Iterative matcher with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> Evaluate(const Expr& e, const EvalContext& ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.literal.is_param()) {
        // Parameter holes must be bound before execution; reaching one here
        // means a statement bypassed the binding layer.
        return Status::BindError("unbound statement parameter " +
                                 e.literal.ToString());
      }
      return e.literal;
    case ExprKind::kColumnRef:
      return ResolveColumn(e, ctx);
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' is not a scalar expression");
    case ExprKind::kUnary: {
      PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*e.left, ctx));
      if (e.unary_op == UnaryOp::kNot) {
        auto t = AsTruth(v);
        if (!t) return Value::Null();
        return Value::Bool(!*t);
      }
      if (v.is_null()) return Value::Null();
      if (v.type() == ValueType::kInt) return Value::Int(-v.AsInt());
      auto n = v.ToNumeric();
      if (!n) return Value::Null();  // same coercion rule as binary arithmetic
      return Value::Double(-*n);
    }
    case ExprKind::kBinary: {
      // AND/OR get three-valued short-circuit treatment.
      if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
        PSQL_ASSIGN_OR_RETURN(Value lv, Evaluate(*e.left, ctx));
        auto lt = AsTruth(lv);
        if (e.binary_op == BinaryOp::kAnd) {
          if (lt && !*lt) return Value::Bool(false);
          PSQL_ASSIGN_OR_RETURN(Value rv, Evaluate(*e.right, ctx));
          auto rt = AsTruth(rv);
          if (rt && !*rt) return Value::Bool(false);
          if (!lt || !rt) return Value::Null();
          return Value::Bool(true);
        }
        if (lt && *lt) return Value::Bool(true);
        PSQL_ASSIGN_OR_RETURN(Value rv, Evaluate(*e.right, ctx));
        auto rt = AsTruth(rv);
        if (rt && *rt) return Value::Bool(true);
        if (!lt || !rt) return Value::Null();
        return Value::Bool(false);
      }
      PSQL_ASSIGN_OR_RETURN(Value l, Evaluate(*e.left, ctx));
      PSQL_ASSIGN_OR_RETURN(Value r, Evaluate(*e.right, ctx));
      switch (e.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return EvalArithmetic(e.binary_op, l, r);
        case BinaryOp::kConcat: {
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Text(l.ToString() + r.ToString());
        }
        default:
          return EvalComparison(e.binary_op, l, r);
      }
    }
    case ExprKind::kIn: {
      PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*e.left, ctx));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      if (e.subquery) {
        if (ctx.runner == nullptr) {
          return Status::InvalidArgument("subquery not supported here");
        }
        PSQL_ASSIGN_OR_RETURN(ResultTable rt,
                              ctx.runner->RunSubquery(*e.subquery, &ctx));
        if (rt.num_columns() != 1) {
          return Status::InvalidArgument(
              "IN subquery must return exactly one column");
        }
        for (const auto& row : rt.rows()) {
          auto eq = v.SqlEquals(row[0]);
          if (!eq) {
            saw_null = true;
          } else if (*eq) {
            return Value::Bool(!e.negated);
          }
        }
      } else {
        for (const auto& item : e.in_list) {
          PSQL_ASSIGN_OR_RETURN(Value c, Evaluate(*item, ctx));
          auto eq = v.SqlEquals(c);
          if (!eq) {
            saw_null = true;
          } else if (*eq) {
            return Value::Bool(!e.negated);
          }
        }
      }
      if (saw_null) return Value::Null();
      return Value::Bool(e.negated);
    }
    case ExprKind::kBetween: {
      PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*e.left, ctx));
      PSQL_ASSIGN_OR_RETURN(Value lo, Evaluate(*e.lo, ctx));
      PSQL_ASSIGN_OR_RETURN(Value hi, Evaluate(*e.hi, ctx));
      auto ge_lo = lo.SqlLess(v);   // lo < v
      auto eq_lo = lo.SqlEquals(v);
      auto le_hi = v.SqlLess(hi);   // v < hi
      auto eq_hi = v.SqlEquals(hi);
      if (!ge_lo || !eq_lo || !le_hi || !eq_hi) return Value::Null();
      bool inside = (*ge_lo || *eq_lo) && (*le_hi || *eq_hi);
      return Value::Bool(e.negated ? !inside : inside);
    }
    case ExprKind::kLike: {
      PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*e.left, ctx));
      PSQL_ASSIGN_OR_RETURN(Value p, Evaluate(*e.right, ctx));
      if (v.is_null() || p.is_null()) return Value::Null();
      if (v.type() != ValueType::kText || p.type() != ValueType::kText) {
        return Status::InvalidArgument("LIKE requires text operands");
      }
      bool m = SqlLike(v.AsText(), p.AsText());
      return Value::Bool(e.negated ? !m : m);
    }
    case ExprKind::kIsNull: {
      PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*e.left, ctx));
      bool is_null = v.is_null();
      return Value::Bool(e.negated ? !is_null : is_null);
    }
    case ExprKind::kCase: {
      if (e.left) {
        PSQL_ASSIGN_OR_RETURN(Value operand, Evaluate(*e.left, ctx));
        for (const auto& cw : e.case_whens) {
          PSQL_ASSIGN_OR_RETURN(Value w, Evaluate(*cw.when, ctx));
          auto eq = operand.SqlEquals(w);
          if (eq && *eq) return Evaluate(*cw.then, ctx);
        }
      } else {
        for (const auto& cw : e.case_whens) {
          PSQL_ASSIGN_OR_RETURN(Value w, Evaluate(*cw.when, ctx));
          auto t = AsTruth(w);
          if (t && *t) return Evaluate(*cw.then, ctx);
        }
      }
      if (e.case_else) return Evaluate(*e.case_else, ctx);
      return Value::Null();
    }
    case ExprKind::kFunction: {
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const auto& a : e.args) {
        PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*a, ctx));
        args.push_back(std::move(v));
      }
      return EvalScalarFunction(e, ctx, std::move(args));
    }
    case ExprKind::kExists: {
      if (ctx.runner == nullptr) {
        return Status::InvalidArgument("subquery not supported here");
      }
      PSQL_ASSIGN_OR_RETURN(bool exists,
                            ctx.runner->SubqueryExists(*e.subquery, &ctx));
      return Value::Bool(e.negated ? !exists : exists);
    }
    case ExprKind::kSubquery: {
      if (ctx.runner == nullptr) {
        return Status::InvalidArgument("subquery not supported here");
      }
      PSQL_ASSIGN_OR_RETURN(ResultTable rt,
                            ctx.runner->RunSubquery(*e.subquery, &ctx));
      if (rt.num_columns() != 1) {
        return Status::InvalidArgument(
            "scalar subquery must return exactly one column");
      }
      if (rt.num_rows() == 0) return Value::Null();
      if (rt.num_rows() > 1) {
        return Status::InvalidArgument(
            "scalar subquery returned more than one row");
      }
      return rt.at(0, 0);
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<bool> EvaluatePredicate(const Expr& e, const EvalContext& ctx) {
  PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(e, ctx));
  auto t = AsTruth(v);
  return t && *t;
}

namespace {

// Top-level AND chains split into conjuncts; each conjunct filters the
// selection left-to-right, which is the batch form of the row path's
// short-circuit AND (a row false under conjunct k never evaluates k+1).
void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd &&
      e.left != nullptr && e.right != nullptr) {
    CollectConjuncts(*e.left, out);
    CollectConjuncts(*e.right, out);
    return;
  }
  out->push_back(&e);
}

BinaryOp MirrorComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

}  // namespace

// A conjunct shape the batch path can evaluate with one column resolution:
// `col OP literal` (either operand order) or `col IS [NOT] NULL`. Anything
// else — outer-scope references (kNotFound here may resolve in an outer
// scope), ambiguous names, unbound parameters, arbitrary expressions —
// takes the generic per-row path, which raises the identical error row
// evaluation would.
BatchPredicate::Conjunct BatchPredicate::Classify(const Expr& e,
                                                  const Schema& schema) {
  Conjunct out;
  out.expr = &e;
  if (e.kind == ExprKind::kIsNull && e.left != nullptr &&
      e.left->kind == ExprKind::kColumnRef) {
    size_t idx = 0;
    if (schema.ResolveScoped(e.left->qualifier, e.left->column, &idx) ==
        Schema::ResolveOutcome::kFound) {
      out.kind = Conjunct::Kind::kIsNull;
      out.col = idx;
      out.negated = e.negated;
    }
    return out;
  }
  if (e.kind != ExprKind::kBinary || e.left == nullptr || e.right == nullptr) {
    return out;
  }
  switch (e.binary_op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return out;
  }
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  bool flipped = false;
  if (e.left->kind == ExprKind::kColumnRef &&
      e.right->kind == ExprKind::kLiteral) {
    col = e.left.get();
    lit = e.right.get();
  } else if (e.left->kind == ExprKind::kLiteral &&
             e.right->kind == ExprKind::kColumnRef) {
    lit = e.left.get();
    col = e.right.get();
    flipped = true;
  } else {
    return out;
  }
  if (lit->literal.is_param()) return out;
  size_t idx = 0;
  if (schema.ResolveScoped(col->qualifier, col->column, &idx) !=
      Schema::ResolveOutcome::kFound) {
    return out;
  }
  out.kind = Conjunct::Kind::kColOpLit;
  out.col = idx;
  out.lit = &lit->literal;
  out.op = flipped ? MirrorComparisonOp(e.binary_op) : e.binary_op;
  return out;
}

BatchPredicate::BatchPredicate(const Expr& expr, const Schema& schema)
    : schema_(&schema) {
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(expr, &conjuncts);
  conjuncts_.reserve(conjuncts.size());
  for (const Expr* c : conjuncts) conjuncts_.push_back(Classify(*c, schema));
}

Status BatchPredicate::Filter(RowBatch* batch, const EvalContext* outer,
                              SubqueryRunner* runner) const {
  for (const Conjunct& c : conjuncts_) {
    // Row semantics: once a conjunct filtered every row out, the remaining
    // conjuncts see no rows and evaluate nothing.
    if (batch->sel.empty()) break;
    size_t kept = 0;
    switch (c.kind) {
      case Conjunct::Kind::kColOpLit:
        for (uint32_t idx : batch->sel) {
          PSQL_ASSIGN_OR_RETURN(
              Value v,
              EvalComparison(c.op, batch->rows[idx].row()[c.col], *c.lit));
          auto t = AsTruth(v);
          if (t && *t) batch->sel[kept++] = idx;
        }
        break;
      case Conjunct::Kind::kIsNull:
        for (uint32_t idx : batch->sel) {
          if (batch->rows[idx].row()[c.col].is_null() != c.negated) {
            batch->sel[kept++] = idx;
          }
        }
        break;
      case Conjunct::Kind::kGeneric:
        for (uint32_t idx : batch->sel) {
          EvalContext ctx{schema_, &batch->rows[idx].row(), outer, runner};
          PSQL_ASSIGN_OR_RETURN(bool pass, EvaluatePredicate(*c.expr, ctx));
          if (pass) batch->sel[kept++] = idx;
        }
        break;
    }
    batch->sel.resize(kept);
  }
  return Status::OK();
}

Result<Value> EvaluateConstant(const Expr& e) {
  EvalContext ctx;
  return Evaluate(e, ctx);
}

}  // namespace prefsql
