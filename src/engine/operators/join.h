// Join operators. The planner extracts equi-join keys from the ON clause
// and picks HashJoinOperator when any exist; otherwise (CROSS JOIN, ON
// without extractable keys, comma-list FROM) NestedLoopJoinOperator runs.
// Both materialize the right input at Open and stream the left one batch at
// a time (a left batch is sized from the output batch's capacity). Output is
// left-major with each left row's matches in build order; LEFT JOIN NULL-pads
// an unmatched left row after its (empty) match run. A left row whose
// matches overflow the output batch resumes in the next pull.

#pragma once

#include <unordered_map>
#include <vector>

#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "sql/ast.h"
#include "util/memory_budget.h"

namespace prefsql {

/// The left input of a join, read row by row out of its batches.
class JoinLeftRows {
 public:
  /// Moves to the next row of `op`, pulling a batch of at most `capacity`
  /// rows once the current one is used up; false at the end of `op`.
  Result<bool> Advance(PhysicalOperator& op, size_t capacity);
  /// The current row; valid until the next Advance or Reset.
  const Row& row() const { return *row_; }
  void Reset();

 private:
  RowBatch batch_;
  size_t next_ = 0;  // index into batch_.sel
  const Row* row_ = nullptr;
};

/// Hash join on equi-key columns with an optional residual conjunction.
class HashJoinOperator : public PhysicalOperator {
 public:
  HashJoinOperator(OperatorPtr left, OperatorPtr right,
                   std::vector<size_t> left_keys,
                   std::vector<size_t> right_keys,
                   std::vector<const Expr*> residual, bool left_join,
                   const EvalContext* outer, SubqueryRunner* runner);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  /// Moves to the next left row and looks up its build-side matches; false
  /// at the end of the left input.
  Result<bool> AdvanceLeft(size_t capacity);
  /// Emits the current left row's join rows into `out` until it is full;
  /// clears `left_valid_` once the row is finished (matches and pad).
  Status ProbeLeft(RowBatch* out);

  OperatorPtr left_;
  OperatorPtr right_;
  Schema schema_;
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  std::vector<const Expr*> residual_;
  bool left_join_;
  const EvalContext* outer_;
  SubqueryRunner* runner_;

  // Build side (right input), materialized at Open.
  std::vector<RowRef> build_rows_;
  std::unordered_map<size_t, std::vector<size_t>> build_index_;
  // Budget reservations for the build side, held until Close.
  ScopedMemoryCharge stmt_charge_;
  ScopedMemoryCharge engine_charge_;

  // Probe state for the current left row.
  JoinLeftRows left_rows_;
  Row left_key_;
  bool left_key_null_ = false;
  const std::vector<size_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
  bool left_matched_ = false;
  bool left_valid_ = false;
  size_t tick_ = 0;  // interrupt-poll stride counter for the probe loop
};

/// Nested-loop join; `join_on` may be null (cross product).
class NestedLoopJoinOperator : public PhysicalOperator {
 public:
  NestedLoopJoinOperator(OperatorPtr left, OperatorPtr right,
                         const Expr* join_on, bool left_join,
                         const EvalContext* outer, SubqueryRunner* runner);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  Schema schema_;
  const Expr* join_on_;
  bool left_join_;
  const EvalContext* outer_;
  SubqueryRunner* runner_;

  std::vector<RowRef> right_rows_;
  JoinLeftRows left_rows_;
  size_t right_pos_ = 0;
  bool left_matched_ = false;
  bool left_valid_ = false;
  size_t tick_ = 0;  // interrupt-poll stride counter for the scan loop
};

}  // namespace prefsql
