// Statement execution facade. SELECTs compile into a pull-based physical
// operator tree (engine/planner.h + engine/operators/) and stream row views
// instead of materializing every stage; DML and DDL execute here directly.
//
// A view referenced several times inside one statement is materialized once,
// into the statement's QueryContext (core/query_context.h), which the
// planner consults before the catalog. Nothing outlives the statement.

#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "engine/operators/scan.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "types/result_table.h"
#include "util/status.h"

namespace prefsql {

/// Executes parsed statements against a catalog.
class Executor : public SubqueryRunner {
 public:
  explicit Executor(Catalog* catalog) : catalog_(catalog) {}

  /// Runs a top-level statement. SELECT returns its result; DML returns a
  /// one-cell table [rows_affected]; DDL returns an empty table.
  Result<ResultTable> ExecuteStatement(const Statement& stmt);

  /// Runs a SELECT: plans the operator tree and drains it (used by the
  /// preference layer which builds ASTs directly).
  Result<ResultTable> ExecuteSelect(const SelectStmt& select,
                                    const EvalContext* outer = nullptr);

  /// Compiles a SELECT into an unopened operator tree without draining it —
  /// the streaming-cursor entry point (core/cursor.h). The tree borrows
  /// from `select` and the catalog; both must outlive it.
  Result<OperatorPtr> PlanSelectOperator(const SelectStmt& select,
                                         const EvalContext* outer = nullptr);

  /// SubqueryRunner: correlated subqueries re-enter the executor with the
  /// outer scope chained.
  Result<ResultTable> RunSubquery(const SelectStmt& select,
                                  const EvalContext* outer) override;

  /// Early-exit EXISTS probe: pulls a single row from the streamed
  /// FROM/WHERE pipeline when the subquery has no grouping/limit machinery.
  Result<bool> SubqueryExists(const SelectStmt& select,
                              const EvalContext* outer) override;

  /// Materializes `FROM ... WHERE ...` of `select`, preserving column
  /// qualifiers (unlike SELECT *). Kept as a thin facade over
  /// Planner::PlanCandidates for callers that need the full relation.
  Result<ResultTable> MaterializeCandidates(const SelectStmt& select);

  /// Inserts all rows of `data` into `table` (column mapping as in INSERT;
  /// empty `columns` = positional). Returns [rows_affected]. Public so the
  /// Preference SQL layer can execute INSERT statements whose SELECT has a
  /// PREFERRING clause (§2.2.5).
  Result<ResultTable> InsertTable(const std::string& table,
                                  const std::vector<std::string>& columns,
                                  const ResultTable& data);

  Catalog* catalog() { return catalog_; }

  /// What the last DML statement did to its target table, at heap-slot
  /// granularity — the input of the engine's incremental skyline-cache
  /// maintenance (core/engine.cc). Reset at every statement dispatch and by
  /// InsertTable; filled as the mutation proceeds, so after a mid-statement
  /// error it reflects exactly the versions actually stamped (this storage
  /// layer has no rollback — partial effects are sealed and published).
  ///
  /// MVCC shape: slots never move, so the appended versions of an
  /// INSERT/UPDATE are implicit as [heap_before, table->heap_size()), and
  /// `dead` lists the slots end-stamped at `commit_epoch` (DELETE victims
  /// and the superseded old versions of an UPDATE), ascending.
  struct DmlEffect {
    enum class Kind { kNone, kInsert, kDelete, kUpdate };
    Kind kind = Kind::kNone;
    uint64_t table_id = 0;
    uint64_t version_before = 0;  ///< Table::version at statement start
    uint64_t commit_epoch = 0;    ///< epoch this statement committed (0 = none)
    size_t heap_before = 0;       ///< heap slot count at statement start
    std::string table;            ///< target table name
    /// Slots end-stamped by this statement, ascending.
    std::vector<uint32_t> dead;
  };
  const DmlEffect& last_dml() const { return last_dml_; }

  /// Execution counters (monotone per executor; used by tests and benches).
  /// Atomic so concurrent reader sessions of a shared engine can count scans
  /// without synchronization.
  struct Stats {
    std::atomic<uint64_t> index_scans{0};  ///< WHEREs served via an index
    std::atomic<uint64_t> full_scans{0};   ///< WHEREs evaluated by full scan
    MvccScanCounters mvcc;                 ///< visibility filter traffic
    std::atomic<uint64_t> gc_cleared{0};   ///< version payloads reclaimed
  };
  const Stats& stats() const { return stats_; }
  MvccScanCounters* mvcc_counters() { return &stats_.mvcc; }
  void CountGarbageCollected(uint64_t n) {
    stats_.gc_cleared.fetch_add(n, std::memory_order_relaxed);
  }

  /// Records the access-path choice of one planned WHERE (planner only).
  void CountScan(bool used_index) {
    if (used_index) {
      stats_.index_scans.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  Result<ResultTable> ExecuteInsert(const Statement& stmt);
  Result<ResultTable> ExecuteUpdate(const Statement& stmt);
  Result<ResultTable> ExecuteDelete(const Statement& stmt);

  /// Stamps `last_dml_` with the pre-statement identity of `table`.
  DmlEffect& BeginDml(DmlEffect::Kind kind, const std::string& name,
                      const Table& table);

  Catalog* catalog_;
  DmlEffect last_dml_;
  Stats stats_;
};

}  // namespace prefsql
