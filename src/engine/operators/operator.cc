#include "engine/operators/operator.h"

namespace prefsql {

Result<ResultTable> DrainToTable(PhysicalOperator& op) {
  // Every eager materialization funnels through here (view
  // materialization, rewrite-mode scripts, DML sources); the per-batch
  // interrupt check keeps multi-hundred-thousand-row drains interruptible
  // at ~1k-row granularity.
  Status status = op.Open();
  std::vector<Row> rows;
  if (status.ok()) {
    QueryContext* ctx = CurrentQueryContext();
    status = ForEachBatch(op, [&](RowBatch& batch) -> Status {
      if (ctx != nullptr) ctx->batch_stats().Record(batch.sel.size());
      for (uint32_t idx : batch.sel) {
        rows.push_back(std::move(batch.rows[idx]).IntoRow());
      }
      return Status::OK();
    });
  }
  op.Close();
  PSQL_RETURN_IF_ERROR(status);
  return ResultTable(op.schema(), std::move(rows));
}

}  // namespace prefsql
