#include "engine/operators/filter.h"

namespace prefsql {

FilterOperator::FilterOperator(OperatorPtr child, const Expr* predicate,
                               const EvalContext* outer,
                               SubqueryRunner* runner)
    : child_(std::move(child)),
      predicate_(*predicate, child_->schema()),
      outer_(outer),
      runner_(runner) {}

FilterOperator::FilterOperator(OperatorPtr child, ExprPtr predicate,
                               const EvalContext* outer,
                               SubqueryRunner* runner)
    : child_(std::move(child)),
      owned_predicate_(std::move(predicate)),
      predicate_(*owned_predicate_, child_->schema()),
      outer_(outer),
      runner_(runner) {}

Result<bool> FilterOperator::NextBatch(RowBatch* out) {
  QueryContext* ctx = CurrentQueryContext();
  while (true) {
    // One latch check per child batch; a fully-rejecting predicate (e.g.
    // the rewrite path's NOT EXISTS anti-join) keeps pulling rather than
    // hand back an empty batch, so the check also bounds the reject loop.
    if (ctx != nullptr) PSQL_RETURN_IF_ERROR(ctx->CheckInterrupt());
    PSQL_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    PSQL_RETURN_IF_ERROR(predicate_.Filter(out, outer_, runner_));
    if (!out->sel.empty()) return true;
  }
}

}  // namespace prefsql
