// The Preference SQL Optimizer's rewriting method (§3.2): translate a
// preference query into SQL92-entry-level standard SQL.
//
// Shape of the output (exactly the paper's Cars example):
//
//   CREATE VIEW <aux> AS
//     SELECT *, <score-expr-1> AS _lvl0, ... FROM <from> WHERE <where>;
//   SELECT <items> FROM <aux> A1
//   WHERE NOT EXISTS (SELECT 1 FROM <aux> A2
//                     WHERE <A2 dominates A1> [AND same GROUPING values])
//     [AND <BUT ONLY over A1 level columns>]
//   [ORDER BY ...];
//   DROP VIEW <aux>;
//
// Every generated construct (views, CASE, correlated NOT EXISTS, scalar
// MIN/MAX subqueries) is SQL92 entry level, so the output runs on any
// compliant host database — here, on src/engine. The engine itself does not
// run the script verbatim: it materializes each CREATE VIEW body as a
// statement-local relation (Engine::EvaluateByRewrite), so the catalog is
// never touched; the full script is what EXPLAIN and RewriteToSql print.

#pragma once

#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/quality.h"
#include "sql/ast.h"
#include "util/status.h"

namespace prefsql {

/// The standard-SQL translation of one preference query.
struct RewriteOutput {
  /// CREATE VIEW statements to run before the query.
  std::vector<Statement> setup;
  /// The rewritten standard SQL query.
  std::shared_ptr<SelectStmt> query;
  /// DROP VIEW statements to run afterwards.
  std::vector<Statement> teardown;

  /// The full script as SQL text (setup; query; teardown) — what the paper
  /// §3.2 prints.
  std::string ToScript() const;
};

/// Rewrites an analyzed preference query. `base_columns` are the column
/// names produced by `SELECT * FROM <from>` (the rewriter needs them to
/// project the Aux view's synthetic level columns away); obtain them with a
/// schema probe. Fails with NotImplemented when the preference contains a
/// non-weak-order EXPLICIT leaf (callers fall back to in-engine BMO).
Result<RewriteOutput> RewritePreferenceQuery(
    const AnalyzedPreferenceQuery& analyzed,
    const std::vector<std::string>& base_columns, ButOnlyMode but_only_mode,
    const std::string& aux_view_name);

}  // namespace prefsql
