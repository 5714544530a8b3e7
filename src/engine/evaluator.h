// Expression evaluation with SQL three-valued logic and correlated-subquery
// support.

#pragma once

#include <vector>

#include "sql/ast.h"
#include "types/result_table.h"
#include "types/row_batch.h"
#include "types/schema.h"
#include "types/value.h"
#include "util/status.h"

namespace prefsql {

struct EvalContext;

/// Executes subqueries on behalf of the evaluator (implemented by the
/// engine's Executor; kept abstract to avoid a dependency cycle).
class SubqueryRunner {
 public:
  virtual ~SubqueryRunner() = default;
  /// Runs `select` with `outer` providing the correlated scope chain.
  virtual Result<ResultTable> RunSubquery(const SelectStmt& select,
                                          const EvalContext* outer) = 0;

  /// EXISTS probe: true iff the subquery yields at least one row. Implementors
  /// may early-exit at the first matching row.
  virtual Result<bool> SubqueryExists(const SelectStmt& select,
                                      const EvalContext* outer) = 0;
};

/// One scope of the evaluation environment: the current row with its schema,
/// chained to outer scopes for correlated subqueries.
struct EvalContext {
  const Schema* schema = nullptr;
  const Row* row = nullptr;
  const EvalContext* outer = nullptr;
  SubqueryRunner* runner = nullptr;  // may be null for subquery-free exprs

  /// Scope with the given row/schema and no outer chain.
  static EvalContext For(const Schema& schema, const Row& row,
                         SubqueryRunner* runner = nullptr) {
    return EvalContext{&schema, &row, nullptr, runner};
  }
};

/// Evaluates `expr` in `ctx`. Comparison/logic operators return BOOL or NULL
/// (UNKNOWN); arithmetic on NULL yields NULL.
Result<Value> Evaluate(const Expr& expr, const EvalContext& ctx);

/// Evaluates `expr` as a predicate: true iff the result is BOOL TRUE
/// (NULL/UNKNOWN filters out, as in a WHERE clause).
Result<bool> EvaluatePredicate(const Expr& expr, const EvalContext& ctx);

/// A predicate prepared once for batch evaluation against a fixed input
/// schema. Its top-level AND conjuncts run left-to-right over the surviving
/// selection (the batch form of the row path's short-circuit AND), and
/// `column OP literal` / `column IS [NOT] NULL` conjuncts have their column
/// resolved at construction instead of per row. Everything else runs the
/// per-row EvaluatePredicate with `outer`/`runner` providing the correlated
/// scope chain, so the result equals row-at-a-time evaluation; only the
/// order in which multiple *erroring* rows surface may differ (a conjunct
/// sees rows already filtered by its left siblings). `expr` and `schema`
/// must outlive the object.
class BatchPredicate {
 public:
  BatchPredicate(const Expr& expr, const Schema& schema);

  /// Compacts `batch->sel` in place to the rows where the predicate is TRUE.
  Status Filter(RowBatch* batch, const EvalContext* outer,
                SubqueryRunner* runner) const;

 private:
  struct Conjunct {
    enum class Kind { kGeneric, kColOpLit, kIsNull };
    const Expr* expr = nullptr;
    Kind kind = Kind::kGeneric;
    size_t col = 0;
    BinaryOp op = BinaryOp::kEq;
    const Value* lit = nullptr;
    bool negated = false;  // IS NOT NULL
  };
  static Conjunct Classify(const Expr& e, const Schema& schema);

  const Schema* schema_;
  std::vector<Conjunct> conjuncts_;
};

/// Evaluates a constant expression (no column refs); used for INSERT VALUES.
Result<Value> EvaluateConstant(const Expr& expr);

/// True iff `name` (lower case) is one of the engine's aggregate functions
/// (count, sum, avg, min, max).
bool IsAggregateFunction(const std::string& name);

/// True iff the expression tree contains an aggregate function call.
bool ContainsAggregate(const Expr& expr);

/// SQL LIKE with '%' and '_' wildcards (case-sensitive).
bool SqlLike(const std::string& text, const std::string& pattern);

}  // namespace prefsql
