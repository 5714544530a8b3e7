// Planner: compiles a SelectStmt into a tree of physical operators
// (engine/operators/). Access-path selection (sequential scan vs. index
// lookup for equality/range predicates), join algorithm choice (hash vs.
// nested loop) and the projection/distinct/order/limit tail all happen
// here; execution is pure pulling afterwards.
//
// The Preference SQL layer uses PlanCandidates to stream `FROM ... WHERE`
// (qualifiers preserved) into a BmoOperator, and PlanTail to project the
// BMO stream with the engine's own rules.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "sql/ast.h"
#include "util/status.h"

namespace prefsql {

class Executor;

/// Builds the preference layer's semi-skyline pre-filter over `input`,
/// computing per-partition maximal tuples; `partition_cols` are positions in
/// input's schema. Supplied by core (the planner stays preference-agnostic).
using PrefilterFactory =
    std::function<OperatorPtr(OperatorPtr input,
                              std::vector<size_t> partition_cols)>;

/// Request to push the BMO block below the query's join (algebraic
/// preference pushdown). The planner applies it only when provably sound;
/// see Planner::PlanCandidates.
struct PreferencePushdown {
  /// (qualifier, column) references of the preference's leaf attribute
  /// expressions (the quality columns).
  std::vector<std::pair<std::string, std::string>> pref_columns;
  /// GROUPING attribute names of the query (bare names).
  std::vector<std::string> grouping;
  PrefilterFactory make_prefilter;
};

/// Outcome of a pushdown attempt (EXPLAIN, Connection::last_stats, tests).
struct PushdownReport {
  bool pushed = false;
  /// Human-readable decision: the pre-filter placement when pushed, the
  /// rejection reason otherwise.
  std::string detail;
};

class Planner {
 public:
  /// The executor provides the catalog, scan counters, and subquery
  /// execution; statement-local relations come from the current
  /// QueryContext.
  explicit Planner(Executor* executor) : executor_(executor) {}

  /// Plans a full (non-preference) SELECT pipeline.
  Result<OperatorPtr> PlanSelect(const SelectStmt& select,
                                 const EvalContext* outer);

  /// Plans `FROM ... WHERE ...` of `select` with column qualifiers
  /// preserved (no projection). `count_stats` = false leaves the executor's
  /// scan counters untouched (EXISTS probes).
  ///
  /// With `pushdown` set, attempts the algebraic preference pushdown: when
  /// the FROM is a single two-way join, every preference quality column
  /// binds to exactly one join side, and each WHERE conjunct binds wholly
  /// to one side, the pre-filter from `pushdown->make_prefilter` is placed
  /// below the join on the preference side — partitioned by the side's
  /// equi-join keys plus its GROUPING columns, so that every tuple it drops
  /// is dominated by a kept tuple with the same join fate. Pref-side WHERE
  /// conjuncts move below the pre-filter (dominators must not be filtered
  /// away later); the remaining conjuncts stay above the join. Falls back
  /// to the ordinary plan otherwise; `report` records the decision.
  Result<OperatorPtr> PlanCandidates(const SelectStmt& select,
                                     const EvalContext* outer,
                                     bool count_stats = true,
                                     const PreferencePushdown* pushdown =
                                         nullptr,
                                     PushdownReport* report = nullptr);

  /// Plans the projection/distinct/order/limit tail over `child`. Takes
  /// ownership of the item/order expressions (callers clone from the AST or
  /// pass synthesized rewrites).
  Result<OperatorPtr> PlanTail(std::vector<SelectItem> items, bool distinct,
                               std::vector<OrderItem> order_by,
                               std::optional<int64_t> limit,
                               std::optional<int64_t> offset,
                               OperatorPtr child, const EvalContext* outer);

  /// Index-assisted access path: candidate heap slots (unordered, dead
  /// versions included) for the indexable equality/range conjuncts of
  /// `where`; callers check visibility and re-apply the full WHERE.
  /// nullopt when no usable index exists. Also the access path of UPDATE
  /// and DELETE (Executor).
  std::optional<std::vector<size_t>> TryIndexPositions(
      const std::string& table_name, const std::string& visible_alias,
      const Expr& where);

 private:
  Result<OperatorPtr> PlanTableRef(const TableRef& tr,
                                   const EvalContext* outer);
  Result<OperatorPtr> PlanJoin(const TableRef& tr, const EvalContext* outer);
  /// The pushdown plan described at PlanCandidates, or nullopt (with the
  /// rejection reason in `report`) when a soundness condition fails.
  Result<std::optional<OperatorPtr>> TryPlanPushdown(
      const SelectStmt& select, const EvalContext* outer, bool count_stats,
      const PreferencePushdown& pushdown, PushdownReport* report);
  Result<OperatorPtr> PlanFromWhere(const SelectStmt& select,
                                    const EvalContext* outer,
                                    bool count_stats);
  Result<OperatorPtr> PlanAggregate(const SelectStmt& select,
                                    OperatorPtr input,
                                    const EvalContext* outer);

  Executor* executor_;
};

}  // namespace prefsql
