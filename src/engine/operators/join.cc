#include "engine/operators/join.h"

#include "core/query_context.h"

namespace prefsql {
namespace {

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Row KeyOf(const Row& row, const std::vector<size_t>& cols) {
  Row key;
  key.reserve(cols.size());
  for (size_t c : cols) key.push_back(row[c]);
  return key;
}

/// NULL-pads `left` to the combined width (LEFT JOIN without match).
Row PadRight(const Row& left, size_t width) {
  Row combined = left;
  combined.resize(width);
  return combined;
}

}  // namespace

Result<bool> JoinLeftRows::Advance(PhysicalOperator& op, size_t capacity) {
  if (next_ >= batch_.sel.size()) {
    batch_.capacity = capacity;
    PSQL_ASSIGN_OR_RETURN(bool more, op.NextBatch(&batch_));
    if (!more) return false;
    next_ = 0;
  }
  row_ = &batch_.rows[batch_.sel[next_++]].row();
  return true;
}

void JoinLeftRows::Reset() {
  batch_.Clear();
  next_ = 0;
  row_ = nullptr;
}

// ===========================================================================
// HashJoinOperator
// ===========================================================================

HashJoinOperator::HashJoinOperator(OperatorPtr left, OperatorPtr right,
                                   std::vector<size_t> left_keys,
                                   std::vector<size_t> right_keys,
                                   std::vector<const Expr*> residual,
                                   bool left_join, const EvalContext* outer,
                                   SubqueryRunner* runner)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(left_->schema().Concat(right_->schema())),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)),
      left_join_(left_join),
      outer_(outer),
      runner_(runner) {}

Status HashJoinOperator::Open() {
  PSQL_RETURN_IF_ERROR(left_->Open());
  PSQL_RETURN_IF_ERROR(right_->Open());
  build_rows_.clear();
  build_index_.clear();
  stmt_charge_.Reset();
  engine_charge_.Reset();
  QueryContext* qctx = CurrentQueryContext();
  uint64_t pending = 0;
  PSQL_RETURN_IF_ERROR(ForEachBatch(*right_, [&](RowBatch& batch) -> Status {
    for (uint32_t idx : batch.sel) {
      RowRef& row = batch.rows[idx];
      // Row payload + its index entry; charged once per batch to keep the
      // atomics off the per-row path.
      pending += sizeof(RowRef) + row.row().size() * sizeof(Value) +
                 2 * sizeof(size_t);
      build_index_[HashRow(KeyOf(row.row(), right_keys_))].push_back(
          build_rows_.size());
      build_rows_.push_back(std::move(row));
    }
    if (qctx == nullptr || pending < kChargeBatchBytes) return Status::OK();
    const uint64_t charge = pending;
    pending = 0;
    return qctx->ChargeMemory(charge, &stmt_charge_, &engine_charge_);
  }));
  if (qctx != nullptr && pending > 0) {
    PSQL_RETURN_IF_ERROR(
        qctx->ChargeMemory(pending, &stmt_charge_, &engine_charge_));
  }
  left_rows_.Reset();
  left_valid_ = false;
  return Status::OK();
}

Result<bool> HashJoinOperator::AdvanceLeft(size_t capacity) {
  PSQL_ASSIGN_OR_RETURN(bool more, left_rows_.Advance(*left_, capacity));
  if (!more) return false;
  left_valid_ = true;
  left_matched_ = false;
  match_pos_ = 0;
  left_key_ = KeyOf(left_rows_.row(), left_keys_);
  left_key_null_ = false;
  for (const auto& v : left_key_) left_key_null_ |= v.is_null();
  auto it = build_index_.find(HashRow(left_key_));
  matches_ = it != build_index_.end() ? &it->second : nullptr;
  return true;
}

Status HashJoinOperator::ProbeLeft(RowBatch* out) {
  const Row& left_row = left_rows_.row();
  // NULL keys never join.
  if (matches_ != nullptr && !left_key_null_) {
    while (match_pos_ < matches_->size()) {
      if (out->full()) return Status::OK();
      const Row& right_row = build_rows_[(*matches_)[match_pos_++]].row();
      if (!RowsIdentityEqual(left_key_, KeyOf(right_row, right_keys_))) {
        continue;
      }
      Row combined = ConcatRows(left_row, right_row);
      bool pass = true;
      EvalContext ctx{&schema_, &combined, outer_, runner_};
      for (const Expr* e : residual_) {
        PSQL_ASSIGN_OR_RETURN(pass, EvaluatePredicate(*e, ctx));
        if (!pass) break;
      }
      if (pass) {
        left_matched_ = true;
        out->PushRow(RowRef::Owned(std::move(combined)));
      }
    }
  }
  // Left row exhausted.
  if (left_join_ && !left_matched_) {
    if (out->full()) return Status::OK();
    out->PushRow(RowRef::Owned(PadRight(left_row, schema_.num_columns())));
  }
  left_valid_ = false;
  return Status::OK();
}

Result<bool> HashJoinOperator::NextBatch(RowBatch* out) {
  out->Clear();
  while (!out->full()) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick_));
    if (!left_valid_) {
      PSQL_ASSIGN_OR_RETURN(bool more, AdvanceLeft(out->capacity));
      if (!more) break;
    }
    PSQL_RETURN_IF_ERROR(ProbeLeft(out));
  }
  return !out->rows.empty();
}

void HashJoinOperator::Close() {
  left_->Close();
  right_->Close();
  left_rows_.Reset();
  build_rows_.clear();
  build_index_.clear();
  stmt_charge_.Reset();
  engine_charge_.Reset();
}

// ===========================================================================
// NestedLoopJoinOperator
// ===========================================================================

NestedLoopJoinOperator::NestedLoopJoinOperator(OperatorPtr left,
                                               OperatorPtr right,
                                               const Expr* join_on,
                                               bool left_join,
                                               const EvalContext* outer,
                                               SubqueryRunner* runner)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(left_->schema().Concat(right_->schema())),
      join_on_(join_on),
      left_join_(left_join),
      outer_(outer),
      runner_(runner) {}

Status NestedLoopJoinOperator::Open() {
  PSQL_RETURN_IF_ERROR(left_->Open());
  PSQL_RETURN_IF_ERROR(right_->Open());
  right_rows_.clear();
  PSQL_RETURN_IF_ERROR(ForEachBatch(*right_, [&](RowBatch& batch) -> Status {
    for (uint32_t idx : batch.sel) {
      right_rows_.push_back(std::move(batch.rows[idx]));
    }
    return Status::OK();
  }));
  left_rows_.Reset();
  left_valid_ = false;
  return Status::OK();
}

Result<bool> NestedLoopJoinOperator::NextBatch(RowBatch* out) {
  out->Clear();
  while (!out->full()) {
    if (!left_valid_) {
      PSQL_ASSIGN_OR_RETURN(bool more,
                            left_rows_.Advance(*left_, out->capacity));
      if (!more) break;
      left_valid_ = true;
      left_matched_ = false;
      right_pos_ = 0;
    }
    const Row& left_row = left_rows_.row();
    while (right_pos_ < right_rows_.size() && !out->full()) {
      PSQL_RETURN_IF_ERROR(PollInterrupt(&tick_));
      const Row& right_row = right_rows_[right_pos_++].row();
      Row combined = ConcatRows(left_row, right_row);
      bool pass = true;
      if (join_on_ != nullptr) {
        EvalContext ctx{&schema_, &combined, outer_, runner_};
        PSQL_ASSIGN_OR_RETURN(pass, EvaluatePredicate(*join_on_, ctx));
      }
      if (pass) {
        left_matched_ = true;
        out->PushRow(RowRef::Owned(std::move(combined)));
      }
    }
    // A full batch resumes this left row (its remaining matches or its
    // LEFT JOIN pad) in the next pull.
    if (right_pos_ < right_rows_.size() || out->full()) break;
    if (left_join_ && !left_matched_) {
      out->PushRow(RowRef::Owned(PadRight(left_row, schema_.num_columns())));
    }
    left_valid_ = false;
  }
  return !out->rows.empty();
}

void NestedLoopJoinOperator::Close() {
  left_->Close();
  right_->Close();
  left_rows_.Reset();
  right_rows_.clear();
}

}  // namespace prefsql
