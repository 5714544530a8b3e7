#include "engine/operators/sort.h"

#include <algorithm>

#include "core/query_context.h"

namespace prefsql {

SortOperator::SortOperator(OperatorPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {}

Status SortOperator::Open() {
  PSQL_RETURN_IF_ERROR(child_->Open());
  rows_.clear();
  pos_ = 0;
  stmt_charge_.Reset();
  engine_charge_.Reset();
  QueryContext* qctx = CurrentQueryContext();
  uint64_t pending = 0;
  // One (accumulated) memory charge per ~1k rows.
  PSQL_RETURN_IF_ERROR(ForEachBatch(*child_, [&](RowBatch& batch) -> Status {
    if (qctx != nullptr) qctx->batch_stats().Record(batch.sel.size());
    for (uint32_t idx : batch.sel) {
      Row row = std::move(batch.rows[idx]).IntoRow();
      pending += sizeof(Row) + row.size() * sizeof(Value);
      rows_.push_back(std::move(row));
    }
    if (qctx == nullptr || pending < kChargeBatchBytes) return Status::OK();
    const uint64_t charge = pending;
    pending = 0;
    return qctx->ChargeMemory(charge, &stmt_charge_, &engine_charge_);
  }));
  if (qctx != nullptr) {
    if (pending > 0) {
      PSQL_RETURN_IF_ERROR(
          qctx->ChargeMemory(pending, &stmt_charge_, &engine_charge_));
    }
    PSQL_RETURN_IF_ERROR(qctx->CheckInterrupt());
  }
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (const SortKey& k : keys_) {
                       int c = Value::Compare(a[k.column], b[k.column]);
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return Status::OK();
}

Result<bool> SortOperator::NextBatch(RowBatch* out) {
  out->Clear();
  if (pos_ >= rows_.size()) return false;
  const size_t take = std::min(out->capacity, rows_.size() - pos_);
  out->rows.reserve(take);
  out->sel.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out->PushRow(RowRef::Owned(std::move(rows_[pos_ + i])));
  }
  pos_ += take;
  return true;
}

void SortOperator::Close() {
  child_->Close();
  rows_.clear();
  stmt_charge_.Reset();
  engine_charge_.Reset();
}

LimitOperator::LimitOperator(OperatorPtr child, std::optional<int64_t> limit,
                             std::optional<int64_t> offset)
    : child_(std::move(child)), limit_(limit), offset_(offset) {}

Status LimitOperator::Open() {
  skipped_ = 0;
  emitted_ = 0;
  return child_->Open();
}

Result<bool> LimitOperator::NextBatch(RowBatch* out) {
  if (limit_ && emitted_ >= *limit_) return false;
  while (true) {
    PSQL_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    // OFFSET consumes from the front of the selection; LIMIT truncates its
    // tail. Row data stays in place — only `sel` changes.
    if (offset_ && skipped_ < *offset_) {
      const size_t skip = std::min(static_cast<size_t>(*offset_ - skipped_),
                                   out->sel.size());
      out->sel.erase(out->sel.begin(),
                     out->sel.begin() + static_cast<ptrdiff_t>(skip));
      skipped_ += static_cast<int64_t>(skip);
    }
    if (limit_) {
      const size_t room = static_cast<size_t>(*limit_ - emitted_);
      if (out->sel.size() > room) out->sel.resize(room);
    }
    if (!out->sel.empty()) {
      emitted_ += static_cast<int64_t>(out->sel.size());
      return true;
    }
    // Whole batch swallowed by OFFSET: pull again.
  }
}

}  // namespace prefsql
