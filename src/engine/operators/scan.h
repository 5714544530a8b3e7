// Access-path operators: sequential scan, index-selected position scan, and
// the synthetic one-row source used by FROM-less SELECTs.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/operators/operator.h"
#include "storage/row_heap.h"

namespace prefsql {

/// MVCC visibility counters surfaced through EXPLAIN/session stats. Scans
/// batch locally and flush on Close (relaxed adds — purely informational).
struct MvccScanCounters {
  std::atomic<uint64_t> versions_scanned{0};
  std::atomic<uint64_t> versions_skipped{0};
};

/// Scans a row vector in order. The vector is either borrowed (base-table
/// heap, statement-local relation — optionally pinned via `keepalive`) or
/// owned (FROM subquery materialization).
class SeqScanOperator : public PhysicalOperator {
 public:
  /// Borrowing scan; `keepalive` may pin a statement-local relation.
  SeqScanOperator(Schema schema, const std::vector<Row>* rows,
                  std::shared_ptr<const ResultTable> keepalive = nullptr);

  /// Owning scan over a materialized result.
  SeqScanOperator(Schema schema, ResultTable owned);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  Schema schema_;
  ResultTable owned_;
  const std::vector<Row>* rows_;
  std::shared_ptr<const ResultTable> keepalive_;
  size_t pos_ = 0;
};

/// Emits the rows at `positions` (in order) of a borrowed row vector; the
/// access path for index-served scans and for re-projecting an explicit
/// selection vector over a materialized relation.
class PositionScanOperator : public PhysicalOperator {
 public:
  PositionScanOperator(Schema schema, const std::vector<Row>* rows,
                       std::vector<size_t> positions);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  Schema schema_;
  const std::vector<Row>* rows_;
  std::vector<size_t> positions_;
  size_t pos_ = 0;
};

/// Scans the row versions of a base-table heap, emitting those visible at
/// `snapshot`. `limit` bounds the slot range (the heap size the snapshot's
/// table version sealed), so the scan is deterministic even while writers
/// append concurrently.
class HeapScanOperator : public PhysicalOperator {
 public:
  HeapScanOperator(Schema schema, const RowHeap* heap, size_t limit,
                   uint64_t snapshot, MvccScanCounters* counters = nullptr);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  Schema schema_;
  const RowHeap* heap_;
  size_t limit_;
  uint64_t snapshot_;
  MvccScanCounters* counters_;
  size_t pos_ = 0;
  size_t tick_ = 0;
  uint64_t scanned_ = 0;
  uint64_t skipped_ = 0;
};

/// Emits the rows at explicit heap slot positions. Index lookups return
/// *candidate* slots (they cover dead versions too), so those scans re-check
/// visibility at `snapshot`; position lists served from the version-matched
/// preference caches are visible by construction and pass
/// `check_visibility = false`.
class HeapPositionScanOperator : public PhysicalOperator {
 public:
  HeapPositionScanOperator(Schema schema, const RowHeap* heap,
                           std::vector<size_t> positions, uint64_t snapshot,
                           bool check_visibility,
                           MvccScanCounters* counters = nullptr);

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

 private:
  Schema schema_;
  const RowHeap* heap_;
  std::vector<size_t> positions_;
  uint64_t snapshot_;
  bool check_visibility_;
  MvccScanCounters* counters_;
  size_t pos_ = 0;
  size_t tick_ = 0;
  uint64_t scanned_ = 0;
  uint64_t skipped_ = 0;
};

/// Produces exactly one empty row (SELECT without FROM).
class OneRowOperator : public PhysicalOperator {
 public:
  OneRowOperator() = default;

  const Schema& schema() const override { return schema_; }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override {}

 private:
  Schema schema_;
  Row row_;
  bool done_ = false;
};

}  // namespace prefsql
