#include "engine/operators/project.h"

namespace prefsql {

ProjectOperator::ProjectOperator(OperatorPtr child, Schema out_schema,
                                 std::vector<ExprPtr> exprs,
                                 const EvalContext* outer,
                                 SubqueryRunner* runner)
    : child_(std::move(child)),
      schema_(std::move(out_schema)),
      exprs_(std::move(exprs)),
      outer_(outer),
      runner_(runner) {}

Result<bool> ProjectOperator::NextBatch(RowBatch* out) {
  PSQL_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  for (uint32_t idx : out->sel) {
    // Build the output row fully before overwriting the slot: the eval
    // context reads the input row living there.
    EvalContext ctx{&child_->schema(), &out->rows[idx].row(), outer_,
                    runner_};
    Row row;
    row.reserve(exprs_.size());
    for (const ExprPtr& e : exprs_) {
      PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*e, ctx));
      row.push_back(std::move(v));
    }
    out->rows[idx] = RowRef::Owned(std::move(row));
  }
  return true;
}

DistinctOperator::DistinctOperator(OperatorPtr child, size_t key_width)
    : child_(std::move(child)), key_width_(key_width) {}

Status DistinctOperator::Open() {
  seen_rows_.clear();
  seen_.clear();
  return child_->Open();
}

Result<bool> DistinctOperator::NextBatch(RowBatch* out) {
  while (true) {
    PSQL_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    // Keep each row whose key prefix is new, in stream order; a duplicate
    // later in the same batch sees the prefix recorded by its first copy.
    size_t kept = 0;
    for (uint32_t idx : out->sel) {
      const Row& r = out->rows[idx].row();
      size_t h = HashRowPrefix(r, key_width_);
      std::vector<size_t>& bucket = seen_[h];
      bool dup = false;
      for (size_t seen : bucket) {
        if (RowPrefixIdentityEqual(seen_rows_[seen], r, key_width_)) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
      bucket.push_back(seen_rows_.size());
      seen_rows_.emplace_back(r.begin(),
                              r.begin() + static_cast<ptrdiff_t>(key_width_));
      out->sel[kept++] = idx;
    }
    out->sel.resize(kept);
    if (kept > 0) return true;
  }
}

void DistinctOperator::Close() {
  child_->Close();
  seen_rows_.clear();
  seen_.clear();
}

PrefixOperator::PrefixOperator(OperatorPtr child, Schema out_schema)
    : child_(std::move(child)), schema_(std::move(out_schema)) {}

Result<bool> PrefixOperator::NextBatch(RowBatch* out) {
  PSQL_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  for (uint32_t idx : out->sel) {
    Row row = std::move(out->rows[idx]).IntoRow();
    row.resize(schema_.num_columns());
    out->rows[idx] = RowRef::Owned(std::move(row));
  }
  return true;
}

}  // namespace prefsql
