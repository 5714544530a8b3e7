// RowBatch: the unit of exchange of the pull pipeline. Every operator hands
// over up to `capacity` rows per NextBatch call:
//
//   * `rows`  — the batch's row references, in pull order. A RowRef either
//     borrows storage-resident rows (scans) or owns computed ones
//     (projections, joins, aggregation, BMO augmentation).
//   * `sel`   — the selection vector: ascending indices into `rows` naming
//     the live rows. Filters never move row data; they compact `sel` in
//     place, so a predicate pass over 1024 rows costs one column-index
//     resolution and zero row copies.
//   * `capacity` — set by the consumer: no producer puts more rows than
//     this into the batch. Drains leave the default; an early-exit consumer
//     asks for only what it still needs — the EXISTS probe for 1, LIMIT for
//     the rows OFFSET and LIMIT still want — so the tree below reads no row
//     past them.
//
// Per-row bookkeeping amortizes across the batch: one interrupt poll, one
// memory-budget charge, and (for heap scans) one MVCC visibility sweep per
// batch instead of per row — that, plus the virtual-call amortization, is
// what feeds the SIMD dominance kernels at memory speed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "types/row_view.h"

namespace prefsql {

/// Default rows per NextBatch call. 1024 RowRefs (~40 KiB of refs plus the
/// selection vector) stay L1/L2-resident while amortizing the per-call
/// overhead ~1000x over one call per row.
inline constexpr size_t kRowBatchCapacity = 1024;

struct RowBatch {
  std::vector<RowRef> rows;
  std::vector<uint32_t> sel;
  /// Most rows a producer may put into this batch (kept across Clear).
  size_t capacity = kRowBatchCapacity;

  /// Appends a row as selected (identity selection while filling).
  void PushRow(RowRef ref) {
    sel.push_back(static_cast<uint32_t>(rows.size()));
    rows.push_back(std::move(ref));
  }

  void Clear() {
    rows.clear();
    sel.clear();
  }

  bool full() const { return rows.size() >= capacity; }
};

}  // namespace prefsql
