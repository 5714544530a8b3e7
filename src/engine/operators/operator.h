// Physical operator interface: pull-based open/next/close execution (the
// Volcano iterator model, one batch per pull). The planner
// (engine/planner.h) compiles a SelectStmt into a tree of these; the
// executor facade drains the root into a ResultTable, while early-exit
// consumers (EXISTS probes, LIMIT) stop pulling as soon as they are
// satisfied.
//
// NextBatch(RowBatch*) (types/row_batch.h) is the only pull protocol. A
// consumer that needs a single row — the EXISTS probe — sets the batch's
// capacity to 1; every producer honours the capacity, so streaming
// subtrees read no further than the rows they hand over.

#pragma once

#include <memory>

#include "core/query_context.h"
#include "types/result_table.h"
#include "types/row_batch.h"
#include "types/row_view.h"
#include "types/schema.h"
#include "util/status.h"

namespace prefsql {

/// One node of a physical execution plan.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Output schema; known from construction (plan time).
  virtual const Schema& schema() const = 0;

  /// Prepares execution; pipeline breakers (sort, hash build, aggregation,
  /// BMO) consume their input here.
  virtual Status Open() = 0;

  /// Produces the next batch into `*out` (cleared first, `out->capacity`
  /// kept): at most `out->capacity` rows. Returns false at end of stream,
  /// true iff at least one selected row — a filter-heavy operator keeps
  /// pulling internally rather than return an empty batch, so callers need
  /// no empty-but-not-done handling.
  virtual Result<bool> NextBatch(RowBatch* out) = 0;

  /// Releases per-execution state. Must be safe to call after Open failed.
  virtual void Close() = 0;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

/// Pulls the open operator `op` to its end, handing every batch to
/// `consume(RowBatch&)` (which returns a Status). Checks the statement's
/// deadline/cancel latch once per batch.
template <typename Consume>
Status ForEachBatch(PhysicalOperator& op, Consume&& consume) {
  QueryContext* ctx = CurrentQueryContext();
  RowBatch batch;
  while (true) {
    if (ctx != nullptr) PSQL_RETURN_IF_ERROR(ctx->CheckInterrupt());
    PSQL_ASSIGN_OR_RETURN(bool more, op.NextBatch(&batch));
    if (!more) return Status::OK();
    PSQL_RETURN_IF_ERROR(consume(batch));
  }
}

/// Opens, fully drains and closes `op`, materializing a ResultTable.
Result<ResultTable> DrainToTable(PhysicalOperator& op);

}  // namespace prefsql
