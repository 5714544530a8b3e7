// Streaming selection: forwards child rows whose predicate evaluates to
// TRUE (SQL three-valued logic; NULL/UNKNOWN drops the row).

#pragma once

#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "sql/ast.h"

namespace prefsql {

class FilterOperator : public PhysicalOperator {
 public:
  /// Filters on `predicate` (not owned; must outlive the plan).
  FilterOperator(OperatorPtr child, const Expr* predicate,
                 const EvalContext* outer, SubqueryRunner* runner);

  /// Filters on an expression the planner synthesized (HAVING rewrites).
  FilterOperator(OperatorPtr child, ExprPtr predicate,
                 const EvalContext* outer, SubqueryRunner* runner);

  const Schema& schema() const override { return child_->schema(); }
  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  ExprPtr owned_predicate_;
  // Conjuncts split and classified once against the child schema.
  BatchPredicate predicate_;
  const EvalContext* outer_;
  SubqueryRunner* runner_;
};

}  // namespace prefsql
