// Hash aggregation (pipeline breaker): consumes the child, groups rows by
// the GROUP BY expressions and emits one synthetic row per group — group
// key columns followed by one column per aggregate call. The planner
// rewrites SELECT items / HAVING / ORDER BY against this synthetic schema.

#pragma once

#include <unordered_map>
#include <vector>

#include "engine/aggregates.h"
#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "sql/ast.h"

namespace prefsql {

class AggregateOperator : public PhysicalOperator {
 public:
  /// `group_by` and `aggs` point into the statement AST (not owned); one
  /// entry of `kinds` per aggregate call.
  AggregateOperator(OperatorPtr child, Schema out_schema,
                    std::vector<const Expr*> group_by,
                    std::vector<const Expr*> aggs,
                    std::vector<AggregateKind> kinds, const EvalContext* outer,
                    SubqueryRunner* runner);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  Schema schema_;
  std::vector<const Expr*> group_by_;
  std::vector<const Expr*> aggs_;
  std::vector<AggregateKind> kinds_;
  const EvalContext* outer_;
  SubqueryRunner* runner_;

  std::vector<Row> group_rows_;
  size_t pos_ = 0;
};

}  // namespace prefsql
