#include "engine/database.h"

#include "core/query_context.h"
#include "sql/parser.h"

namespace prefsql {

Database::Database() : executor_(std::make_unique<Executor>(&catalog_)) {}
Database::~Database() = default;

Result<ResultTable> Database::Execute(const std::string& sql) {
  PSQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return ExecuteStatement(stmt);
}

Result<ResultTable> Database::ExecuteScript(const std::string& sql) {
  PSQL_ASSIGN_OR_RETURN(auto stmts, ParseScript(sql));
  if (stmts.empty()) {
    return Status::InvalidArgument("empty script");
  }
  ResultTable last;
  for (const auto& stmt : stmts) {
    PSQL_ASSIGN_OR_RETURN(last, ExecuteStatement(stmt));
  }
  return last;
}

namespace {

// Runs `run` inside the caller's statement context, or inside a fresh one
// when the caller has none, so the statement's view materializations live
// exactly as long as the statement.
template <typename Fn>
Result<ResultTable> InStatementContext(Fn run) {
  if (CurrentQueryContext() != nullptr) return run();
  QueryContext local;
  ScopedQueryContext scope(&local);
  return run();
}

}  // namespace

Result<ResultTable> Database::ExecuteStatement(const Statement& stmt) {
  return InStatementContext(
      [&] { return executor_->ExecuteStatement(stmt); });
}

Result<ResultTable> Database::ExecuteSelect(const SelectStmt& select) {
  return InStatementContext([&] { return executor_->ExecuteSelect(select); });
}

}  // namespace prefsql
