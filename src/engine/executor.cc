#include "engine/executor.h"

#include <algorithm>
#include <optional>

#include "core/query_context.h"
#include "engine/planner.h"
#include "util/failpoint.h"
#include "util/memory_budget.h"
#include "util/string_util.h"

namespace prefsql {

// ===========================================================================
// Statement dispatch
// ===========================================================================

Executor::DmlEffect& Executor::BeginDml(DmlEffect::Kind kind,
                                        const std::string& name,
                                        const Table& table) {
  last_dml_ = DmlEffect{};
  last_dml_.kind = kind;
  last_dml_.table = name;
  last_dml_.table_id = table.id();
  last_dml_.version_before = table.version();
  last_dml_.heap_before = table.heap_size();
  return last_dml_;
}

Result<ResultTable> Executor::ExecuteStatement(const Statement& stmt) {
  last_dml_ = DmlEffect{};
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select);
    case StatementKind::kCreateTable: {
      PSQL_RETURN_IF_ERROR(
          catalog_->CreateTable(stmt.name, stmt.columns, stmt.if_not_exists));
      return ResultTable();
    }
    case StatementKind::kCreateView: {
      PSQL_RETURN_IF_ERROR(catalog_->CreateView(stmt.name, stmt.select));
      return ResultTable();
    }
    case StatementKind::kCreateIndex: {
      PSQL_RETURN_IF_ERROR(
          catalog_->CreateIndex(stmt.name, stmt.on_table, stmt.index_columns));
      return ResultTable();
    }
    case StatementKind::kCreatePreference: {
      // Expand nested PREFERENCE references at definition time so stored
      // bodies are self-contained (snapshot semantics; cycles impossible).
      // The expansion lives in the core layer; here we only store the body
      // verbatim — Database-level users get the same semantics because the
      // body cannot reference itself (the name does not exist yet).
      PSQL_RETURN_IF_ERROR(
          catalog_->CreatePreference(stmt.name, stmt.preference->Clone()));
      return ResultTable();
    }
    case StatementKind::kExplain:
      return Status::InvalidArgument(
          "EXPLAIN is handled by the Preference SQL layer "
          "(prefsql::Connection)");
    case StatementKind::kSet:
      return Status::InvalidArgument(
          "SET is handled by the Preference SQL layer "
          "(prefsql::Connection)");
    case StatementKind::kInsert:
      return ExecuteInsert(stmt);
    case StatementKind::kUpdate:
      return ExecuteUpdate(stmt);
    case StatementKind::kDelete:
      return ExecuteDelete(stmt);
    case StatementKind::kDrop: {
      PSQL_RETURN_IF_ERROR(
          catalog_->Drop(stmt.drop_kind, stmt.name, stmt.if_exists));
      return ResultTable();
    }
  }
  return Status::Internal("unreachable statement kind");
}

// ===========================================================================
// SELECT facade over the operator pipeline
// ===========================================================================

Result<ResultTable> Executor::ExecuteSelect(const SelectStmt& select,
                                            const EvalContext* outer) {
  PSQL_ASSIGN_OR_RETURN(OperatorPtr plan, PlanSelectOperator(select, outer));
  return DrainToTable(*plan);
}

Result<OperatorPtr> Executor::PlanSelectOperator(const SelectStmt& select,
                                                 const EvalContext* outer) {
  Planner planner(this);
  return planner.PlanSelect(select, outer);
}

Result<ResultTable> Executor::MaterializeCandidates(const SelectStmt& select) {
  Planner planner(this);
  PSQL_ASSIGN_OR_RETURN(OperatorPtr plan,
                        planner.PlanCandidates(select, nullptr));
  return DrainToTable(*plan);
}

namespace {

// One DML statement = one commit epoch. The writer allocates the epoch up
// front, stamps every change with it, and this guard seals + publishes on
// scope exit if anything was stamped — also on mid-statement error, because
// this storage layer has no rollback and already-stamped versions must
// become durable rather than ghosts under an unpublished epoch.
class DmlCommit {
 public:
  DmlCommit(Table* table, Executor::DmlEffect* dml)
      : table_(table), dml_(dml), epoch_(table->epochs().BeginWrite()) {}
  ~DmlCommit() {
    if (mutated_) {
      // Fault-injection site (delay-only — a destructor cannot propagate a
      // status): stretches the window between the last stamped change and
      // the epoch becoming visible, the exact interval concurrent readers
      // and cache maintenance must tolerate.
      PSQL_FAILPOINT("epoch_publish");
      table_->SealVersion(epoch_);
      table_->epochs().Publish(epoch_);
      dml_->commit_epoch = epoch_;
    }
  }
  uint64_t epoch() const { return epoch_; }
  void MarkMutated() { mutated_ = true; }

 private:
  Table* table_;
  Executor::DmlEffect* dml_;
  uint64_t epoch_;
  bool mutated_ = false;
};

// The access path of UPDATE and DELETE: the slots below `heap_before` that
// an index serving the WHERE's equality/range conjuncts returns, ascending;
// nullopt when no index serves it (every slot is a candidate). The slots
// include dead versions, and callers check visibility and then the full
// WHERE, exactly as on the full scan. Slots at or above `heap_before` are
// the statement's own appended versions and are never revisited.
std::optional<std::vector<size_t>> IndexedDmlSlots(Executor* executor,
                                                   const Statement& stmt,
                                                   size_t heap_before) {
  if (stmt.where == nullptr) return std::nullopt;
  auto slots =
      Planner(executor).TryIndexPositions(stmt.name, stmt.name, *stmt.where);
  executor->CountScan(/*used_index=*/slots.has_value());
  if (slots) {
    std::sort(slots->begin(), slots->end());
    slots->erase(std::lower_bound(slots->begin(), slots->end(), heap_before),
                 slots->end());
  }
  return slots;
}

}  // namespace

Result<ResultTable> Executor::InsertTable(const std::string& table,
                                          const std::vector<std::string>& columns,
                                          const ResultTable& data) {
  PSQL_ASSIGN_OR_RETURN(Table * target, catalog_->GetTable(table));
  DmlEffect& dml = BeginDml(DmlEffect::Kind::kInsert, table, *target);
  std::vector<size_t> positions;
  if (columns.empty()) {
    for (size_t i = 0; i < target->columns().size(); ++i) {
      positions.push_back(i);
    }
  } else {
    for (const auto& c : columns) {
      PSQL_ASSIGN_OR_RETURN(size_t idx, target->ColumnIndex(c));
      positions.push_back(idx);
    }
  }
  if (data.num_columns() != positions.size()) {
    return Status::InvalidArgument(
        "INSERT expects " + std::to_string(positions.size()) +
        " values, got " + std::to_string(data.num_columns()));
  }
  DmlCommit commit(target, &dml);
  int64_t affected = 0;
  for (const Row& src : data.rows()) {
    Row row(target->columns().size());
    for (size_t i = 0; i < positions.size(); ++i) {
      row[positions[i]] = src[i];
    }
    PSQL_ASSIGN_OR_RETURN(row, target->CoerceRow(std::move(row)));
    target->AppendVersion(std::move(row), commit.epoch());
    commit.MarkMutated();
    ++affected;
  }
  return ResultTable(Schema::FromNames({"rows_affected"}),
                     {Row{Value::Int(affected)}});
}

// ===========================================================================
// Subqueries
// ===========================================================================

Result<ResultTable> Executor::RunSubquery(const SelectStmt& select,
                                          const EvalContext* outer) {
  return ExecuteSelect(select, outer);
}

Result<bool> Executor::SubqueryExists(const SelectStmt& select,
                                      const EvalContext* outer) {
  // Fast path: plain SELECT without grouping/limit machinery can stop at the
  // first row the streamed FROM/WHERE pipeline produces. This is what makes
  // the rewritten NOT EXISTS dominance query tractable (§3.2). Scan counters
  // stay untouched (probes would drown the per-statement counts).
  bool plain = select.group_by.empty() && select.having == nullptr &&
               !select.limit && !select.offset && !select.preferring &&
               !select.from.empty();
  if (plain) {
    for (const auto& item : select.items) {
      if (item.expr->kind != ExprKind::kStar &&
          ContainsAggregate(*item.expr)) {
        plain = false;
        break;
      }
    }
  }
  if (!plain) {
    PSQL_ASSIGN_OR_RETURN(ResultTable rt, ExecuteSelect(select, outer));
    return rt.num_rows() > 0;
  }
  Planner planner(this);
  PSQL_ASSIGN_OR_RETURN(
      OperatorPtr plan,
      planner.PlanCandidates(select, outer, /*count_stats=*/false));
  Status open = plan->Open();
  if (!open.ok()) {
    plan->Close();
    return open;
  }
  // A one-row batch: every streaming operator below honours the capacity,
  // so the probe reads no row past the first qualifying one.
  RowBatch probe;
  probe.capacity = 1;
  auto more = plan->NextBatch(&probe);
  plan->Close();
  PSQL_RETURN_IF_ERROR(more.status());
  return *more;
}

// ===========================================================================
// DML
// ===========================================================================

Result<ResultTable> Executor::ExecuteInsert(const Statement& stmt) {
  PSQL_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.name));
  DmlEffect& dml = BeginDml(DmlEffect::Kind::kInsert, stmt.name, *table);
  // Reads inside the statement (INSERT ... SELECT, subqueries) see the
  // pre-statement snapshot; appended versions carry the commit epoch, so a
  // self-referencing source can never re-read its own inserts (Halloween).
  ScopedSnapshot scope(AmbientSnapshotOr(table->epochs().current()));
  // Column position mapping.
  std::vector<size_t> positions;
  if (stmt.insert_columns.empty()) {
    for (size_t i = 0; i < table->columns().size(); ++i) positions.push_back(i);
  } else {
    for (const auto& c : stmt.insert_columns) {
      PSQL_ASSIGN_OR_RETURN(size_t idx, table->ColumnIndex(c));
      positions.push_back(idx);
    }
  }

  DmlCommit commit(table, &dml);
  // Cooperative interrupt + RowHeap-growth accounting. A mid-statement
  // interrupt commits the rows already stamped (this storage layer has no
  // rollback — the DmlCommit guard publishes partial effects by design);
  // the budget bounds one statement's ingest spike and releases when the
  // statement finishes.
  QueryContext* qctx = CurrentQueryContext();
  ScopedMemoryCharge stmt_charge;
  ScopedMemoryCharge engine_charge;
  size_t tick = 0;
  uint64_t pending = 0;
  auto insert_values = [&](std::vector<Value> values) -> Status {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
    if (values.size() != positions.size()) {
      return Status::InvalidArgument(
          "INSERT expects " + std::to_string(positions.size()) +
          " values, got " + std::to_string(values.size()));
    }
    Row row(table->columns().size());  // missing columns default to NULL
    for (size_t i = 0; i < positions.size(); ++i) {
      row[positions[i]] = std::move(values[i]);
    }
    PSQL_ASSIGN_OR_RETURN(row, table->CoerceRow(std::move(row)));
    if (qctx != nullptr) {
      pending += sizeof(Row) + row.size() * sizeof(Value);
      if (pending >= kChargeBatchBytes) {
        PSQL_RETURN_IF_ERROR(
            qctx->ChargeMemory(pending, &stmt_charge, &engine_charge));
        pending = 0;
      }
    }
    table->AppendVersion(std::move(row), commit.epoch());
    commit.MarkMutated();
    return Status::OK();
  };

  int64_t affected = 0;
  if (stmt.select) {
    PSQL_ASSIGN_OR_RETURN(ResultTable rt, ExecuteSelect(*stmt.select));
    for (auto& row : rt.rows()) {
      PSQL_RETURN_IF_ERROR(insert_values(std::move(row)));
      ++affected;
    }
  } else {
    for (const auto& row_exprs : stmt.insert_rows) {
      std::vector<Value> values;
      values.reserve(row_exprs.size());
      for (const auto& e : row_exprs) {
        PSQL_ASSIGN_OR_RETURN(Value v, EvaluateConstant(*e));
        values.push_back(std::move(v));
      }
      PSQL_RETURN_IF_ERROR(insert_values(std::move(values)));
      ++affected;
    }
  }
  ResultTable out(Schema::FromNames({"rows_affected"}),
                  {Row{Value::Int(affected)}});
  return out;
}

Result<ResultTable> Executor::ExecuteUpdate(const Statement& stmt) {
  PSQL_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.name));
  DmlEffect& dml = BeginDml(DmlEffect::Kind::kUpdate, stmt.name, *table);
  uint64_t read_epoch = AmbientSnapshotOr(table->epochs().current());
  ScopedSnapshot scope(read_epoch);
  std::vector<size_t> target_cols;
  for (const auto& [col, e] : stmt.assignments) {
    PSQL_ASSIGN_OR_RETURN(size_t idx, table->ColumnIndex(col));
    target_cols.push_back(idx);
  }
  const Schema& schema = table->schema();
  const RowHeap& heap = table->heap();
  DmlCommit commit(table, &dml);
  QueryContext* qctx = CurrentQueryContext();
  ScopedMemoryCharge stmt_charge;
  ScopedMemoryCharge engine_charge;
  size_t tick = 0;
  uint64_t pending = 0;
  int64_t affected = 0;
  // Only slots that existed at statement start: our own appended versions
  // land above heap_before and must not be revisited.
  const auto indexed = IndexedDmlSlots(this, stmt, dml.heap_before);
  const size_t candidates = indexed ? indexed->size() : dml.heap_before;
  for (size_t i = 0; i < candidates; ++i) {
    const size_t slot = indexed ? (*indexed)[i] : i;
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
    if (!heap.VisibleAt(slot, read_epoch)) continue;
    const Row& row = heap.row(slot);
    if (stmt.where != nullptr) {
      EvalContext ctx{&schema, &row, nullptr, this};
      PSQL_ASSIGN_OR_RETURN(bool pass, EvaluatePredicate(*stmt.where, ctx));
      if (!pass) continue;
    }
    // Evaluate all assignments against the OLD row, then build the new
    // version: end-stamp the old slot, append the replacement.
    std::vector<Value> new_values;
    for (const auto& [col, e] : stmt.assignments) {
      EvalContext ctx{&schema, &row, nullptr, this};
      PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*e, ctx));
      new_values.push_back(std::move(v));
    }
    Row updated = row;
    for (size_t i = 0; i < target_cols.size(); ++i) {
      PSQL_ASSIGN_OR_RETURN(
          updated[target_cols[i]],
          table->CoerceToColumn(target_cols[i], std::move(new_values[i])));
    }
    if (qctx != nullptr) {
      // Each touched row appends a replacement version (RowHeap growth).
      pending += sizeof(Row) + updated.size() * sizeof(Value);
      if (pending >= kChargeBatchBytes) {
        PSQL_RETURN_IF_ERROR(
            qctx->ChargeMemory(pending, &stmt_charge, &engine_charge));
        pending = 0;
      }
    }
    table->MarkDeleted(slot, commit.epoch());
    table->AppendVersion(std::move(updated), commit.epoch());
    commit.MarkMutated();
    dml.dead.push_back(static_cast<uint32_t>(slot));
    ++affected;
  }
  return ResultTable(Schema::FromNames({"rows_affected"}),
                     {Row{Value::Int(affected)}});
}

Result<ResultTable> Executor::ExecuteDelete(const Statement& stmt) {
  PSQL_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.name));
  DmlEffect& dml = BeginDml(DmlEffect::Kind::kDelete, stmt.name, *table);
  uint64_t read_epoch = AmbientSnapshotOr(table->epochs().current());
  ScopedSnapshot scope(read_epoch);
  const Schema& schema = table->schema();
  const RowHeap& heap = table->heap();
  DmlCommit commit(table, &dml);
  size_t tick = 0;
  int64_t deleted = 0;
  const auto indexed = IndexedDmlSlots(this, stmt, dml.heap_before);
  const size_t candidates = indexed ? indexed->size() : dml.heap_before;
  for (size_t i = 0; i < candidates; ++i) {
    const size_t slot = indexed ? (*indexed)[i] : i;
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
    if (!heap.VisibleAt(slot, read_epoch)) continue;
    if (stmt.where != nullptr) {
      EvalContext ctx{&schema, &heap.row(slot), nullptr, this};
      PSQL_ASSIGN_OR_RETURN(bool pass, EvaluatePredicate(*stmt.where, ctx));
      if (!pass) continue;
    }
    table->MarkDeleted(slot, commit.epoch());
    commit.MarkMutated();
    dml.dead.push_back(static_cast<uint32_t>(slot));
    ++deleted;
  }
  return ResultTable(Schema::FromNames({"rows_affected"}),
                     {Row{Value::Int(deleted)}});
}

}  // namespace prefsql
