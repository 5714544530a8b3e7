// Row-computing operators of the projection tail: expression projection,
// DISTINCT, and the prefix strip that drops hidden sort-key columns.

#pragma once

#include <unordered_map>
#include <vector>

#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "sql/ast.h"

namespace prefsql {

/// Evaluates one expression per output column against each child row. Owns
/// the expressions (the planner synthesizes star expansions, GROUP BY
/// rewrites and hidden ORDER BY keys).
class ProjectOperator : public PhysicalOperator {
 public:
  ProjectOperator(OperatorPtr child, Schema out_schema,
                  std::vector<ExprPtr> exprs, const EvalContext* outer,
                  SubqueryRunner* runner);

  const Schema& schema() const override { return schema_; }
  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  Schema schema_;
  std::vector<ExprPtr> exprs_;
  const EvalContext* outer_;
  SubqueryRunner* runner_;
};

/// Streams the first occurrence of each distinct key prefix (the visible
/// output columns; hidden sort-key columns do not participate).
class DistinctOperator : public PhysicalOperator {
 public:
  DistinctOperator(OperatorPtr child, size_t key_width);

  const Schema& schema() const override { return child_->schema(); }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  size_t key_width_;
  std::vector<Row> seen_rows_;  // kept key prefixes
  std::unordered_map<size_t, std::vector<size_t>> seen_;
};

/// Truncates each row to its first `width` columns (drops hidden keys).
class PrefixOperator : public PhysicalOperator {
 public:
  PrefixOperator(OperatorPtr child, Schema out_schema);

  const Schema& schema() const override { return schema_; }
  Status Open() override { return child_->Open(); }
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  Schema schema_;
};

}  // namespace prefsql
