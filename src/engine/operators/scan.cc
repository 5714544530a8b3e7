#include "engine/operators/scan.h"

#include <algorithm>

#include "core/query_context.h"

namespace prefsql {

SeqScanOperator::SeqScanOperator(Schema schema, const std::vector<Row>* rows,
                                 std::shared_ptr<const ResultTable> keepalive)
    : schema_(std::move(schema)),
      rows_(rows),
      keepalive_(std::move(keepalive)) {}

SeqScanOperator::SeqScanOperator(Schema schema, ResultTable owned)
    : schema_(std::move(schema)), owned_(std::move(owned)) {
  rows_ = &owned_.rows();
}

Status SeqScanOperator::Open() {
  pos_ = 0;
  return Status::OK();
}

Result<bool> SeqScanOperator::NextBatch(RowBatch* out) {
  out->Clear();
  if (pos_ >= rows_->size()) return false;
  const size_t take = std::min(out->capacity, rows_->size() - pos_);
  out->rows.reserve(take);
  out->sel.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out->PushRow(RowRef::Borrowed(&(*rows_)[pos_ + i]));
  }
  pos_ += take;
  return true;
}

void SeqScanOperator::Close() {}

PositionScanOperator::PositionScanOperator(Schema schema,
                                           const std::vector<Row>* rows,
                                           std::vector<size_t> positions)
    : schema_(std::move(schema)),
      rows_(rows),
      positions_(std::move(positions)) {}

Status PositionScanOperator::Open() {
  pos_ = 0;
  return Status::OK();
}

Result<bool> PositionScanOperator::NextBatch(RowBatch* out) {
  out->Clear();
  if (pos_ >= positions_.size()) return false;
  const size_t take = std::min(out->capacity, positions_.size() - pos_);
  out->rows.reserve(take);
  out->sel.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out->PushRow(RowRef::Borrowed(&(*rows_)[positions_[pos_ + i]]));
  }
  pos_ += take;
  return true;
}

void PositionScanOperator::Close() {}

HeapScanOperator::HeapScanOperator(Schema schema, const RowHeap* heap,
                                   size_t limit, uint64_t snapshot,
                                   MvccScanCounters* counters)
    : schema_(std::move(schema)),
      heap_(heap),
      limit_(limit),
      snapshot_(snapshot),
      counters_(counters) {}

Status HeapScanOperator::Open() {
  pos_ = 0;
  tick_ = 0;
  scanned_ = 0;
  skipped_ = 0;
  return Status::OK();
}

Result<bool> HeapScanOperator::NextBatch(RowBatch* out) {
  out->Clear();
  // One visibility sweep fills the whole batch. A run of dead versions
  // keeps sweeping (the slot range is sealed, so this terminates) rather
  // than hand back an empty batch; the stride poll keeps a
  // dead-version-heavy sweep interruptible mid-batch.
  while (pos_ < limit_ && !out->full()) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick_));
    size_t slot = pos_++;
    ++scanned_;
    if (!heap_->VisibleAt(slot, snapshot_)) {
      ++skipped_;
      continue;
    }
    out->PushRow(RowRef::Borrowed(&heap_->row(slot)));
  }
  return !out->rows.empty();
}

void HeapScanOperator::Close() {
  if (counters_ != nullptr && scanned_ > 0) {
    counters_->versions_scanned.fetch_add(scanned_, std::memory_order_relaxed);
    counters_->versions_skipped.fetch_add(skipped_, std::memory_order_relaxed);
    scanned_ = 0;
    skipped_ = 0;
  }
}

HeapPositionScanOperator::HeapPositionScanOperator(
    Schema schema, const RowHeap* heap, std::vector<size_t> positions,
    uint64_t snapshot, bool check_visibility, MvccScanCounters* counters)
    : schema_(std::move(schema)),
      heap_(heap),
      positions_(std::move(positions)),
      snapshot_(snapshot),
      check_visibility_(check_visibility),
      counters_(counters) {}

Status HeapPositionScanOperator::Open() {
  pos_ = 0;
  tick_ = 0;
  scanned_ = 0;
  skipped_ = 0;
  return Status::OK();
}

Result<bool> HeapPositionScanOperator::NextBatch(RowBatch* out) {
  out->Clear();
  while (pos_ < positions_.size() && !out->full()) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick_));
    size_t slot = positions_[pos_++];
    ++scanned_;
    if (check_visibility_ && !heap_->VisibleAt(slot, snapshot_)) {
      ++skipped_;
      continue;
    }
    out->PushRow(RowRef::Borrowed(&heap_->row(slot)));
  }
  return !out->rows.empty();
}

void HeapPositionScanOperator::Close() {
  if (counters_ != nullptr && scanned_ > 0) {
    counters_->versions_scanned.fetch_add(scanned_, std::memory_order_relaxed);
    counters_->versions_skipped.fetch_add(skipped_, std::memory_order_relaxed);
    scanned_ = 0;
    skipped_ = 0;
  }
}

Status OneRowOperator::Open() {
  done_ = false;
  return Status::OK();
}

Result<bool> OneRowOperator::NextBatch(RowBatch* out) {
  out->Clear();
  if (done_) return false;
  done_ = true;
  out->PushRow(RowRef::Borrowed(&row_));
  return true;
}

}  // namespace prefsql
