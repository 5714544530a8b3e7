// Direct (in-engine) evaluation of a preference query through the operator
// pipeline: the planner streams `FROM ... WHERE` candidates into a
// BmoOperator (skyline algorithm + GROUPING + BUT ONLY + quality columns),
// and the projection tail streams the maximal tuples out — no whole-relation
// materialization between scan and BMO.
//
// Two optimizations ride on this path:
//   * Algebraic preference pushdown (Planner::PlanCandidates): when the
//     preference's quality columns bind to one side of an equi-join, a
//     semi-skyline pre-filter (per join-key-group maxima) runs below the
//     join and the full BMO on top guarantees correctness.
//   * Parallel partitioned BMO (core/bmo_parallel.h): GROUPING partitions
//     and block-partitioned chunks evaluated on a thread pool.
//
// This path implements the same BMO semantics as the §3.2 rewrite but keeps
// everything inside the engine — it is both the fallback for preferences the
// rewriter cannot express (non-weak-order EXPLICIT) and the baseline the
// algorithm benchmarks compare against.

#pragma once

#include <memory>
#include <string>

#include "core/analyzer.h"
#include "core/bmo.h"
#include "core/bmo_operator.h"
#include "core/quality.h"
#include "core/session.h"
#include "engine/database.h"
#include "util/status.h"

namespace prefsql {

/// Options of the direct evaluation path.
struct DirectEvalOptions {
  BmoOptions bmo;
  ButOnlyMode but_only_mode = ButOnlyMode::kPostFilter;
  /// Worker threads for the parallel partitioned BMO; 0/1 = serial.
  size_t threads = 0;
  /// Minimum candidate rows before worker threads spin up.
  size_t parallel_min_rows = 4096;
  /// Attempt the algebraic preference pushdown below joins.
  bool pushdown = true;
  /// Engine skyline/key cache (not owned; nullptr = off). Consulted when
  /// the candidate stream is a bare (optionally WHERE-filtered) scan of one
  /// base table — the packed keys are then a pure function of (preference,
  /// table contents) and are reused across queries and sessions.
  SkylineCache* key_cache = nullptr;
  /// Engine filter-position cache (not owned; nullptr = off): replays the
  /// candidate positions of a repeated subquery-free WHERE over an
  /// unchanged table instead of re-evaluating the predicate.
  FilterCache* filter_cache = nullptr;
  /// Serve eligible bare-table queries straight from a cached skyline
  /// position list, and publish computed skylines into the cache.
  bool skyline_cache = true;
};

/// A compiled direct-evaluation plan: the operator tree plus the stats
/// sinks its BMO operators flush on Close (valid even when the drain stops
/// early or fails).
struct PreferencePlan {
  std::unique_ptr<BmoRunStats> bmo_stats;        ///< BMO block counters
  std::unique_ptr<BmoRunStats> prefilter_stats;  ///< pushdown pre-filter
  BmoAlgorithm algorithm = BmoAlgorithm::kBlockNestedLoop;  ///< algorithm run
  bool used_pushdown = false;
  std::string pushdown_detail;
  bool key_cache_eligible = false;
  std::string key_cache_detail;
  /// The plan replays a cached skyline position list instead of running
  /// the BMO (bmo_stats then stays zeroed).
  bool skyline_cache_hit = false;
  std::string skyline_cache_detail;
  /// BUT ONLY rewritten against the augmented schema (referenced by the
  /// operators in `root`).
  ExprPtr owned_but_only;
  /// Declared after the sinks it flushes into: destroyed first.
  OperatorPtr root;
};

/// Compiles `analyzed` into an executable plan without draining it: the
/// one plan builder of the direct path. A SELECT streams the plan through a
/// Cursor, INSERT ... SELECT PREFERRING drains it into its target table, and
/// EXPLAIN describes it, with `count_stats` false so describing a plan
/// leaves the executor's scan counters untouched.
Result<PreferencePlan> BuildPreferencePlan(
    Database& db, const AnalyzedPreferenceQuery& analyzed,
    const DirectEvalOptions& options = {}, bool count_stats = true);

/// Folds one direct evaluation into `stats`: the plan's decisions (pushdown
/// placement, cache keying, algorithm) and the counters its BMO operators
/// flushed into the sinks. The one place BMO counters reach the statement
/// statistics; call it after the plan's tree is closed.
void FoldPlanStats(const PreferencePlan& plan, PreferenceQueryStats& stats);

}  // namespace prefsql
