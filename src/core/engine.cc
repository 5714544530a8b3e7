#include "core/engine.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/analyzer.h"
#include "sql/normalize.h"
#include "sql/parameters.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace prefsql {

const char* EvaluationModeToString(EvaluationMode m) {
  switch (m) {
    case EvaluationMode::kRewrite:
      return "rewrite";
    case EvaluationMode::kBlockNestedLoop:
      return "bnl";
    case EvaluationMode::kNaiveNestedLoop:
      return "naive";
    case EvaluationMode::kSortFilterSkyline:
      return "sfs";
  }
  return "?";
}

namespace {

// Reserved name of the rewrite strategy's statement-local Aux relation (the
// BUT ONLY pre-filter relation appends "_f").
constexpr char kAuxRelation[] = "_prefsql_aux";

bool IsCacheableKind(StatementKind kind) {
  return kind == StatementKind::kSelect || kind == StatementKind::kExplain;
}

// Case-insensitive keyword prefix test on normalized (case-preserved) text.
bool StartsWithKeyword(const std::string& text, std::string_view keyword) {
  if (text.size() < keyword.size()) return false;
  for (size_t i = 0; i < keyword.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[i])) != keyword[i]) {
      return false;
    }
  }
  return true;
}

Status UnboundParametersError() {
  return Status::BindError(
      "statement has unbound parameter(s); prepare it and bind values "
      "(Connection::Prepare)");
}

// Retires the statement's QueryContext from its session on scope exit —
// the default for materialized results and every error path. A streaming
// cursor calls Release() instead and retires the context itself on Close
// (the context must stay reachable by Session::CancelCurrent while the
// client is still pulling). ClearCurrentContext is conditional on identity,
// so a double clear (cursor Close then guard) is a harmless no-op.
class SessionContextClearGuard {
 public:
  SessionContextClearGuard(Session* session,
                           std::shared_ptr<const QueryContext> ctx)
      : session_(session), ctx_(std::move(ctx)) {}
  ~SessionContextClearGuard() {
    if (session_ != nullptr) session_->ClearCurrentContext(ctx_.get());
  }
  SessionContextClearGuard(const SessionContextClearGuard&) = delete;
  SessionContextClearGuard& operator=(const SessionContextClearGuard&) =
      delete;

  void Release() { session_ = nullptr; }

 private:
  Session* session_;
  std::shared_ptr<const QueryContext> ctx_;
};

}  // namespace

// ===========================================================================
// Engine lifetime: background MVCC reclaimer
// ===========================================================================

Engine::Engine() {
  gc_thread_ = std::thread([this] { BackgroundGcLoop(); });
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> g(gc_mu_);
    gc_stop_ = true;
  }
  gc_cv_.notify_one();
  if (gc_thread_.joinable()) gc_thread_.join();
}

void Engine::BackgroundGcLoop() {
  // The period bounds dead-version residency under reader-heavy load where
  // the opportunistic post-DML sweep rarely wins its try-lock; short enough
  // that a momentary gap between readers is usually caught, long enough to
  // be invisible in profiles when the engine is idle.
  constexpr auto kPeriod = std::chrono::milliseconds(20);
  std::unique_lock<std::mutex> sleep_lock(gc_mu_);
  while (!gc_stop_) {
    gc_cv_.wait_for(sleep_lock, kPeriod,
                    [this] { return gc_stop_ || gc_kick_; });
    if (gc_stop_) break;
    const bool kicked = gc_kick_;
    gc_kick_ = false;
    // A memory-pressure kick sweeps even while the knob is off — relief
    // explicitly asked for reclaimable bytes; the timer respects the knob.
    if (!kicked && !gc_background_enabled_.load(std::memory_order_relaxed)) {
      continue;
    }
    sleep_lock.unlock();
    {
      // Same safety argument as TryCollectGarbage: pins are only ever taken
      // under the shared DDL lock, so winning it exclusively proves no
      // reader and no pin exists — every version dead at or before the
      // horizon is unreachable forever. Losing the race costs nothing; the
      // timer retries.
      std::unique_lock<std::shared_mutex> lock(mutex_, std::try_to_lock);
      if (lock.owns_lock()) {
        CollectGarbageAllTablesLocked();
        background_gc_passes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    sleep_lock.lock();
  }
}

uint64_t Engine::CollectGarbageAllTablesLocked() {
#if defined(PREFSQL_FAILPOINTS_ENABLED)
  // Injected fault: the horizon computation "fails" — skip this sweep.
  if (!failpoint::Evaluate("gc_horizon").ok()) return 0;
#endif
  EpochManager& epochs = db_.catalog().epochs();
  const uint64_t horizon = epochs.MinPinnedOr(epochs.current());
  uint64_t freed = 0;
  for (const auto& name : db_.catalog().TableNames()) {
    auto table = db_.catalog().GetTable(name);
    if (table.ok()) freed += (*table)->CollectGarbage(horizon);
  }
  if (freed > 0) db_.executor().CountGarbageCollected(freed);
  return freed;
}

void Engine::RelieveMemoryPressure(uint64_t /*requested_bytes*/) {
  // Shed roughly a quarter of each cache's resident entries, cold end
  // first. This frees their heap memory immediately — though not
  // budget-charged bytes, which only return to the budget when their
  // statements finish — and the kicked reclaimer frees superseded version
  // payloads as soon as it wins the DDL lock. Only after both does a
  // retried charge fail the query with kResourceExhausted.
  auto quarter = [](size_t n) { return std::max<size_t>(4, n / 4); };
  plan_cache_.Shed(quarter(plan_cache_.size()));
  key_cache_.Shed(quarter(key_cache_.size()));
  filter_cache_.Shed(quarter(filter_cache_.size()));
  {
    std::lock_guard<std::mutex> g(gc_mu_);
    gc_kick_ = true;
  }
  gc_cv_.notify_one();
}

std::shared_ptr<QueryContext> Engine::ArmStatementContext(Session& session) {
  auto ctx = std::make_shared<QueryContext>();
  const ConnectionOptions& o = session.options();
  ctx->set_deadline_ms(o.statement_timeout_ms);
  ctx->ArmStatementBudget(o.statement_memory_bytes);
  ctx->set_engine_budget(&engine_budget_);
  ctx->set_pressure_relief(
      [this](uint64_t bytes) { RelieveMemoryPressure(bytes); });
  session.SetCurrentContext(ctx);
  return ctx;
}

PlanCacheKey Engine::CacheKey(const Session& session, std::string text) {
  return PlanCacheKey{std::move(text), KnobFingerprint(session.options()),
                      db_.catalog().version()};
}

// ===========================================================================
// Text entry points: Execute / OpenCursor / Prepare / ExecuteScript
// ===========================================================================

Result<ResultTable> Engine::Execute(Session& session, const std::string& sql) {
  PSQL_ASSIGN_OR_RETURN(Cursor cursor, OpenCursor(session, sql));
  return DrainCursor(cursor);
}

Result<Cursor> Engine::OpenCursor(Session& session, const std::string& sql,
                                  std::shared_ptr<Engine> keepalive) {
  if (session.options().plan_cache) {
    // Probe the plan cache before paying for the parse; only SELECT/EXPLAIN
    // are cached (cheap prefix test). With auto-parameterization on, the
    // key text is the canonical form with literals lifted into `?` holes —
    // repetitions differing only in literal values hit the same entry, and
    // the lifted values are re-injected below.
    std::string text = NormalizeSql(sql);
    if (StartsWithKeyword(text, "select") ||
        StartsWithKeyword(text, "explain")) {
      std::string key_text = std::move(text);
      std::vector<Value> lifted;
      std::vector<uint32_t> lifted_widths;
      const std::vector<Value>* params = nullptr;
      const std::vector<uint32_t>* widths = nullptr;
      bool auto_par = false;
      const std::string* parse_text = &sql;
      if (session.options().auto_parameterize) {
        // IN lists collapse to one arity-normalized placeholder here (the
        // text path re-expands at bind time); PREPARE keeps placeholders
        // 1:1 with values, so only this path asks for collapsing.
        ParameterizedSql p = ParameterizeSql(sql, /*collapse_in_lists=*/true);
        if (p.parameterized) {
          key_text = std::move(p.text);
          lifted = std::move(p.values);
          lifted_widths = std::move(p.widths);
          params = &lifted;
          widths = &lifted_widths;
          auto_par = true;
          parse_text = &key_text;
        }
      }
      PlanCacheKey key = CacheKey(session, key_text);
      if (auto cached = plan_cache_.Lookup(key)) {
        return OpenPreparedCursor(session, std::move(cached),
                                  /*plan_cache_hit=*/true, params, auto_par,
                                  std::move(keepalive), widths);
      }
      auto parsed = ParseStatement(*parse_text);
      if (!parsed.ok() && auto_par) {
        // Safety hatch: the canonical parameterized text should re-parse by
        // construction; if it does not, run the original text uncached.
        PSQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
        PSQL_ASSIGN_OR_RETURN(ResultTable result,
                              ExecuteStatement(session, stmt));
        return MaterializedCursor(std::move(result), &session,
                                  std::move(keepalive));
      }
      PSQL_RETURN_IF_ERROR(parsed.status());
      Statement stmt = std::move(*parsed);
      if (IsCacheableKind(stmt.kind) && stmt.select != nullptr) {
        PSQL_ASSIGN_OR_RETURN(auto prepared,
                              BuildPreparation(stmt.kind, stmt.select));
        if (!auto_par && prepared->params.count() > 0) {
          return UnboundParametersError();
        }
        plan_cache_.Insert(key, prepared);
        return OpenPreparedCursor(session, std::move(prepared),
                                  /*plan_cache_hit=*/false, params, auto_par,
                                  std::move(keepalive), widths);
      }
      PSQL_ASSIGN_OR_RETURN(ResultTable result,
                            ExecuteStatement(session, stmt));
      return MaterializedCursor(std::move(result), &session,
                                std::move(keepalive));
    }
  }
  PSQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  PSQL_ASSIGN_OR_RETURN(ResultTable result, ExecuteStatement(session, stmt));
  return MaterializedCursor(std::move(result), &session, std::move(keepalive));
}

Result<PreparedStatement> Engine::Prepare(Session& session,
                                          const std::string& sql,
                                          std::shared_ptr<Engine> keepalive) {
  std::string normalized = NormalizeSql(sql);
  std::shared_ptr<const Statement> stmt;
  std::string key_text;
  std::vector<Value> lifted;
  bool auto_par = false;
  if (StartsWithKeyword(normalized, "select") ||
      StartsWithKeyword(normalized, "explain")) {
    if (session.options().auto_parameterize) {
      ParameterizedSql p = ParameterizeSql(sql);
      if (p.parameterized) {
        PSQL_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(p.text));
        stmt = std::make_shared<const Statement>(std::move(parsed));
        key_text = std::move(p.text);
        lifted = std::move(p.values);
        auto_par = true;
      }
    }
    if (stmt == nullptr) {
      PSQL_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(sql));
      stmt = std::make_shared<const Statement>(std::move(parsed));
      key_text = std::move(normalized);
    }
    if (IsCacheableKind(stmt->kind) && stmt->select != nullptr) {
      // Publish the preparation now: the very first Execute is warm, and
      // parse/analyze errors surface at Prepare time, as a driver expects.
      bool hit = false;
      auto prepared = LookupOrPrepare(session, key_text, stmt->kind,
                                      stmt->select, &hit);
      PSQL_RETURN_IF_ERROR(prepared.status());
    } else {
      key_text.clear();
    }
  } else {
    PSQL_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(sql));
    stmt = std::make_shared<const Statement>(std::move(parsed));
  }
  ParameterSignature signature = CollectParameters(*stmt);
  PreparedStatement prepared(this, std::move(keepalive), &session,
                             std::move(stmt), std::move(key_text),
                             std::move(signature));
  if (auto_par) {
    if (lifted.size() != prepared.signature_.count()) {
      return Status::Internal("auto-parameterization arity mismatch");
    }
    // Pre-bind the lifted literals: executing without further Bind calls
    // runs the statement exactly as written. Constraint violations report
    // as parse errors — the value came from the statement text itself.
    for (size_t i = 0; i < lifted.size(); ++i) {
      PSQL_RETURN_IF_ERROR(CheckParamConstraint(
          lifted[i], prepared.signature_.constraints[i], i,
          /*parse_errors=*/true));
      prepared.values_[i] = std::move(lifted[i]);
      prepared.bound_[i] = true;
    }
    prepared.auto_parameterized_ = true;
  }
  return prepared;
}

Result<ResultTable> Engine::ExecuteScript(Session& session,
                                          const std::string& sql) {
  ResultTable last;
  PSQL_RETURN_IF_ERROR(ExecuteScript(
      session, sql,
      [&last](size_t, const Statement&, ResultTable result) {
        last = std::move(result);
        return Status::OK();
      }));
  return last;
}

Status Engine::ExecuteScript(Session& session, const std::string& sql,
                             const ScriptResultCallback& on_result) {
  PSQL_ASSIGN_OR_RETURN(auto stmts, ParseScript(sql));
  if (stmts.empty()) return Status::InvalidArgument("empty script");
  for (size_t i = 0; i < stmts.size(); ++i) {
    PSQL_ASSIGN_OR_RETURN(ResultTable result,
                          ExecuteStatement(session, stmts[i]));
    if (on_result) {
      PSQL_RETURN_IF_ERROR(on_result(i, stmts[i], std::move(result)));
    }
  }
  return Status::OK();
}

// ===========================================================================
// Statement execution
// ===========================================================================

Result<ResultTable> Engine::ExecuteStatement(Session& session,
                                             const Statement& stmt) {
  session.ResetStatsForNewStatement();
  // Pre-parsed statements bypass the binding layer; reject holes before
  // one reaches an operator (drivers get a stable kBindError).
  if (StatementHasParameters(stmt)) return UnboundParametersError();
  if (stmt.kind == StatementKind::kSet) {
    return ExecuteSet(session, stmt);
  }

  // Arm the statement's deadline/cancel/budget context. Cacheable
  // SELECT/EXPLAIN statements re-arm a fresh context in OpenPreparedCursor
  // (which replaces this one in the session — the scopes nest and the
  // identity-checked clears compose); the DML, DDL and
  // INSERT..SELECT PREFERRING paths below run under this one, so writes
  // honor the deadline and CancelCurrent too.
  std::shared_ptr<QueryContext> qctx = ArmStatementContext(session);
  ScopedQueryContext qscope(qctx.get());
  SessionContextClearGuard clear_guard(&session, qctx);

  if (IsCacheableKind(stmt.kind) && stmt.select != nullptr) {
    // Pre-parsed statements skip the parse already, so the cache only pays
    // off where preparation still does real work: PDL expansion and
    // preference compilation. Plain SELECT/EXPLAIN skip the print+lookup.
    if (session.options().plan_cache && stmt.select->IsPreferenceQuery()) {
      // The printed text keys identically across repetitions of this AST.
      bool hit = false;
      PSQL_ASSIGN_OR_RETURN(
          auto prepared,
          LookupOrPrepare(session, NormalizeSql(StatementToSql(stmt)),
                          stmt.kind, stmt.select, &hit));
      return ExecutePrepared(session, std::move(prepared), hit,
                             /*params=*/nullptr,
                             /*auto_parameterized=*/false);
    }
    PSQL_ASSIGN_OR_RETURN(auto prepared,
                          BuildPreparation(stmt.kind, stmt.select));
    return ExecutePrepared(session, std::move(prepared),
                           /*plan_cache_hit=*/false, /*params=*/nullptr,
                           /*auto_parameterized=*/false);
  }

  // DML appends row versions: it runs under the *shared* DDL lock (readers
  // streaming at pinned snapshots are never blocked) with DML statements
  // serialized against each other — and with the cache maintenance/sweep
  // they trigger — by the writer mutex.
  if (stmt.kind == StatementKind::kInsert ||
      stmt.kind == StatementKind::kUpdate ||
      stmt.kind == StatementKind::kDelete) {
    const bool insert_preferring = stmt.kind == StatementKind::kInsert &&
                                   stmt.select != nullptr &&
                                   stmt.select->IsPreferenceQuery();
    if (insert_preferring) {
      session.mutable_last_stats().was_preference_query = true;
    }
    std::shared_lock<std::shared_mutex> ddl(mutex_);
    Result<ResultTable> result = [&]() -> Result<ResultTable> {
      // Fault-injection site: the handoff to the writer mutex — a delay
      // here widens the window in which readers stream against the
      // pre-statement snapshot while this writer is queued.
      PSQL_FAILPOINT_STATUS("writer_handoff");
      std::lock_guard<std::mutex> writer(writer_mutex_);
      Result<ResultTable> r = ResultTable();
      if (insert_preferring) {
        // INSERT ... SELECT with a PREFERRING clause (§2.2.5): evaluate the
        // preference query, then bulk-insert the BMO rows, as plain
        // INSERT ... SELECT does. A failed evaluation wrote nothing, so it
        // skips the cache maintenance below.
        PSQL_ASSIGN_OR_RETURN(ResultTable rows,
                              EvaluatePreferenceRows(session, *stmt.select));
        r = db_.executor().InsertTable(stmt.name, stmt.insert_columns, rows);
      } else {
        r = db_.ExecuteStatement(stmt);
      }
      MaintainSkylineCaches();
      SweepCaches();
      return r;
    }();
    FinishStatementStats(session, qctx.get());
    ddl.unlock();
    TryCollectGarbage(session);
    return result;
  }

  // Everything else passes through to the database system (§3.1: "without
  // causing any noticeable overhead") — DDL, so exclusively, with a cache
  // sweep afterwards to reclaim entries the write made unreachable.
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto result = db_.ExecuteStatement(stmt);
  MaintainSkylineCaches();
  SweepCaches();
  FinishStatementStats(session, qctx.get());
  return result;
}

// ===========================================================================
// Preparation
// ===========================================================================

Result<std::shared_ptr<const CachedPlan>> Engine::BuildPreparation(
    StatementKind kind, std::shared_ptr<const SelectStmt> select) {
  auto prepared = std::make_shared<CachedPlan>();
  prepared->kind = kind;
  prepared->select = select;
  if (select != nullptr) {
    prepared->params = CollectParameters(*select);
    if (select->IsPreferenceQuery()) {
      prepared->pref_has_params = PrefTermHasParameters(*select->preferring);
      // PDL expansion reads the catalog; everything else is pure.
      std::shared_lock<std::shared_mutex> lock(mutex_);
      PSQL_ASSIGN_OR_RETURN(auto expanded, ExpandSelect(*select));
      if (!prepared->pref_has_params) {
        PSQL_ASSIGN_OR_RETURN(auto analyzed,
                              AnalyzePreferenceQuery(*expanded));
        prepared->preference = analyzed.pref;
      }
      prepared->expanded = std::move(expanded);
      prepared->catalog_version = db_.catalog().version();
    }
  }
  return std::shared_ptr<const CachedPlan>(std::move(prepared));
}

Result<std::shared_ptr<const CachedPlan>> Engine::LookupOrPrepare(
    Session& session, const std::string& key_text, StatementKind kind,
    std::shared_ptr<const SelectStmt> select, bool* hit) {
  *hit = false;
  if (!session.options().plan_cache || !IsCacheableKind(kind) ||
      select == nullptr) {
    return BuildPreparation(kind, std::move(select));
  }
  PlanCacheKey key = CacheKey(session, key_text);
  if (auto cached = plan_cache_.Lookup(key)) {
    *hit = true;
    return cached;
  }
  PSQL_ASSIGN_OR_RETURN(auto prepared, BuildPreparation(kind, select));
  plan_cache_.Insert(std::move(key), prepared);
  return prepared;
}

Result<Engine::ExecutionView> Engine::BindForExecutionLocked(
    const CachedPlan& plan, const std::vector<Value>* params,
    const std::vector<uint32_t>* widths) {
  bool wide = false;
  if (widths != nullptr) {
    for (uint32_t w : *widths) wide = wide || w != 1;
  }
  const bool is_pref =
      plan.select != nullptr && plan.select->IsPreferenceQuery();
  std::shared_ptr<const SelectStmt> select = plan.select;
  std::shared_ptr<const CompiledPreference> pref;
  if (is_pref) {
    if (db_.catalog().version() == plan.catalog_version) {
      select = plan.expanded;
      pref = plan.preference;  // nullptr when PREFERRING has parameter holes
    } else {
      // DDL committed between preparation/lookup and this lock acquisition
      // — a stored PREFERENCE may mean something else now. Re-derive under
      // the held lock so the execution is consistent with the catalog it
      // reads (the transparent re-prepare).
      PSQL_ASSIGN_OR_RETURN(auto expanded, ExpandSelect(*plan.select));
      select = std::move(expanded);
      pref = nullptr;
    }
  }
  if (params != nullptr && !params->empty()) {
    auto bound = select->Clone();
    // Collapsed IN-list placeholders re-expand on the private clone first,
    // so binding below consumes the flat value vector 1:1 as always.
    if (wide) PSQL_RETURN_IF_ERROR(ExpandWideParameters(*bound, *widths));
    PSQL_RETURN_IF_ERROR(
        BindSelectParameters(*bound, *params, /*parse_errors=*/true));
    select = std::move(bound);
    if (plan.pref_has_params) pref = nullptr;
  }
  if (is_pref && pref == nullptr) {
    // A parameterized PREFERRING clause compiles per execution — but the
    // compilation is a pure function of (expanded clause, bound values), so
    // the plan memoizes it per bound-value fingerprint. Only sound while
    // the expansion is current (no DDL since preparation).
    const bool memoizable = plan.pref_has_params && params != nullptr &&
                            !params->empty() &&
                            db_.catalog().version() == plan.catalog_version;
    uint64_t fp = kFingerprintSeed;
    if (memoizable) {
      for (const Value& p : *params) fp = FingerprintValue(fp, p);
      // The same flat values can split differently across collapsed
      // placeholders (widths [2,1] vs [1,2] over three values compile
      // different preferences), so the split is part of the identity.
      if (wide) {
        for (uint32_t w : *widths) {
          fp = FingerprintValue(fp, Value::Int(static_cast<int64_t>(w)));
        }
      }
      std::lock_guard<std::mutex> guard(plan.bound_mutex);
      auto it = plan.bound_prefs.find(fp);
      if (it != plan.bound_prefs.end()) pref = it->second;
    }
    if (pref == nullptr) {
      PSQL_ASSIGN_OR_RETURN(auto analyzed, AnalyzePreferenceQuery(*select));
      pref = analyzed.pref;
      if (memoizable) {
        std::lock_guard<std::mutex> guard(plan.bound_mutex);
        if (plan.bound_prefs.size() >= CachedPlan::kBoundPrefCapacity) {
          plan.bound_prefs.clear();
        }
        plan.bound_prefs.emplace(fp, pref);
      }
    }
  }
  return ExecutionView{std::move(select), std::move(pref)};
}

// ===========================================================================
// Prepared execution over cursors
// ===========================================================================

Cursor Engine::MaterializedCursor(ResultTable result, Session* session,
                                  std::shared_ptr<Engine> keepalive) {
  auto impl = std::make_unique<Cursor::Impl>();
  impl->schema = result.schema();
  impl->table = std::move(result);
  impl->session = session;
  impl->engine = this;
  impl->engine_keepalive = std::move(keepalive);
  return Cursor(std::move(impl));
}

Result<ResultTable> Engine::ExecutePrepared(
    Session& session, std::shared_ptr<const CachedPlan> plan,
    bool plan_cache_hit, const std::vector<Value>* params,
    bool auto_parameterized, const std::vector<uint32_t>* widths) {
  PSQL_ASSIGN_OR_RETURN(
      Cursor cursor,
      OpenPreparedCursor(session, std::move(plan), plan_cache_hit, params,
                         auto_parameterized, nullptr, widths));
  return DrainCursor(cursor);
}

Result<Cursor> Engine::OpenPreparedCursor(
    Session& session, std::shared_ptr<const CachedPlan> plan,
    bool plan_cache_hit, const std::vector<Value>* params,
    bool auto_parameterized, std::shared_ptr<Engine> keepalive,
    const std::vector<uint32_t>* widths) {
  const size_t provided = params != nullptr ? params->size() : 0;
  uint64_t expected = plan->params.count();
  if (widths != nullptr && !widths->empty()) {
    // Collapsed placeholders: the plan carries one slot per placeholder
    // and the flat values must cover every slot's width exactly.
    if (widths->size() != plan->params.count()) {
      return Status::BindError(
          "statement expects " + std::to_string(plan->params.count()) +
          " placeholder(s), got " + std::to_string(widths->size()));
    }
    expected = 0;
    for (uint32_t w : *widths) expected += w;
  }
  if (expected != provided) {
    if (provided == 0) return UnboundParametersError();
    return Status::BindError("statement expects " + std::to_string(expected) +
                             " parameter(s), got " + std::to_string(provided));
  }
  PreferenceQueryStats& stats = session.ResetStatsForNewStatement();
  stats.plan_cache_hit = plan_cache_hit;
  stats.auto_parameterized = auto_parameterized;
  stats.bound_parameters = provided;

  // Deadline/cancel/budget governance for this statement. Materialized
  // results and error exits retire the context through the guard; a
  // streaming cursor takes it over (guard released) and retires it on
  // Close, so CancelCurrent keeps reaching in-flight pulls.
  std::shared_ptr<QueryContext> qctx = ArmStatementContext(session);
  ScopedQueryContext qscope(qctx.get());
  SessionContextClearGuard clear_guard(&session, qctx);

  // One prologue for every SELECT and EXPLAIN: the shared DDL lock, a
  // snapshot pinned under it (pins are only ever taken while it is held,
  // which is what lets the GC's exclusive acquisition conclude "no pins, no
  // readers"), and the bound view. The ambient scope makes binding,
  // planning, and Open all read at the pinned epoch.
  const bool explain = plan->kind == StatementKind::kExplain;
  const bool preference = plan->select->IsPreferenceQuery();
  stats.was_preference_query = preference && !explain;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  SnapshotPin pin(&db_.catalog().epochs());
  stats.pinned_epoch = pin.snapshot();
  ScopedSnapshot ambient(pin.snapshot());
  PSQL_ASSIGN_OR_RETURN(ExecutionView view,
                        BindForExecutionLocked(*plan, params, widths));

  // EXPLAIN and the rewrite strategy replay a materialized result; the
  // direct path and plain SELECTs stream.
  std::optional<ResultTable> materialized;
  if (explain) {
    PSQL_ASSIGN_OR_RETURN(materialized,
                          RenderExplain(session, view, pin.snapshot()));
  } else if (preference) {
    PSQL_ASSIGN_OR_RETURN(materialized, EvaluateByRewrite(session, view));
  }
  if (materialized.has_value()) {
    FinishStatementStats(session, qctx.get());
    return MaterializedCursor(std::move(*materialized), &session,
                              std::move(keepalive));
  }
  auto impl = std::make_unique<Cursor::Impl>();
  if (preference) {
    PSQL_ASSIGN_OR_RETURN(
        impl->plan,
        BuildPreferencePlan(
            db_, AnalyzedPreferenceQuery(view.select.get(), view.preference),
            DirectOptions(session)));
  } else {
    PSQL_ASSIGN_OR_RETURN(impl->plan.root,
                          db_.executor().PlanSelectOperator(*view.select));
  }
  impl->lock = std::move(lock);
  impl->pin = std::move(pin);
  impl->ctx = qctx;
  impl->select_keepalive = std::move(view.select);
  impl->pref_keepalive = std::move(view.preference);
  impl->plan_keepalive = std::move(plan);
  impl->engine_keepalive = std::move(keepalive);
  impl->engine = this;
  impl->session = &session;
  impl->stats_epoch = session.stats_epoch();
  impl->schema = impl->plan.root->schema();
  // For a preference query Open consumes the candidate stream (the BMO
  // block is a pipeline breaker); afterwards rows stream out on demand.
  Status open = impl->plan.root->Open();
  Cursor cursor(std::move(impl));
  if (!open.ok()) {
    // Close folds whatever the operators counted before the failure into
    // last_stats and releases the lock.
    cursor.Close();
    return open;
  }
  clear_guard.Release();
  return cursor;
}

// ===========================================================================
// Preference strategies
// ===========================================================================

Result<std::shared_ptr<SelectStmt>> Engine::ExpandSelect(
    const SelectStmt& select) {
  auto out = select.Clone();
  if (out->preferring != nullptr &&
      ContainsNamedPreference(*out->preferring)) {
    PSQL_ASSIGN_OR_RETURN(
        out->preferring,
        ExpandNamedPreferences(*out->preferring, db_.catalog()));
  }
  return out;
}

Result<RewriteOutput> Engine::RewriteLocked(
    const Session& session, const AnalyzedPreferenceQuery& analyzed,
    const std::string& aux_name) {
  // Schema probe: run the candidate query with a FALSE predicate; only the
  // output schema matters (the rewriter projects the Aux relation's level
  // columns away against it).
  auto probe = std::make_shared<SelectStmt>();
  probe->items.push_back({Expr::MakeStar(), ""});
  for (const auto& tr : analyzed.query->from) {
    probe->from.push_back(tr->Clone());
  }
  probe->where = Expr::MakeLiteral(Value::Bool(false));
  PSQL_ASSIGN_OR_RETURN(ResultTable rt, db_.ExecuteSelect(*probe));
  const std::vector<std::string> base_columns = rt.schema().Names();
  PSQL_RETURN_IF_ERROR(
      ValidatePreferenceColumns(analyzed.preference(), base_columns));
  return RewritePreferenceQuery(analyzed, base_columns,
                                session.options().but_only_mode, aux_name);
}

DirectEvalOptions Engine::DirectOptions(const Session& session) {
  const ConnectionOptions& options = session.options();
  DirectEvalOptions direct;
  direct.but_only_mode = options.but_only_mode;
  direct.bmo.bnl_window = options.bnl_window;
  direct.threads = options.bmo_threads;
  direct.parallel_min_rows = options.parallel_min_rows;
  direct.pushdown = options.preference_pushdown;
  direct.key_cache = options.key_cache ? &key_cache_ : nullptr;
  direct.filter_cache = options.key_cache ? &filter_cache_ : nullptr;
  direct.skyline_cache = options.skyline_cache;
  switch (options.mode) {
    case EvaluationMode::kNaiveNestedLoop:
      direct.bmo.algorithm = BmoAlgorithm::kNaiveNestedLoop;
      break;
    case EvaluationMode::kSortFilterSkyline:
      direct.bmo.algorithm = BmoAlgorithm::kSortFilterSkyline;
      break;
    case EvaluationMode::kRewrite:  // fallback
    case EvaluationMode::kBlockNestedLoop:
      direct.bmo.algorithm = BmoAlgorithm::kBlockNestedLoop;
      break;
  }
  // The bmo_algorithm knob overrides the algorithm the mode implies (the
  // only way to select LESS, which has no evaluation mode of its own).
  if (options.bmo_algorithm) direct.bmo.algorithm = *options.bmo_algorithm;
  return direct;
}

Result<std::optional<ResultTable>> Engine::EvaluateByRewrite(
    Session& session, const ExecutionView& view) {
  if (session.options().mode != EvaluationMode::kRewrite) {
    return std::optional<ResultTable>();
  }
  PreferenceQueryStats& stats = session.mutable_last_stats();
  QueryContext* ctx = CurrentQueryContext();
  if (ctx == nullptr) {
    return Status::Internal("rewrite evaluation outside a statement context");
  }
  Result<RewriteOutput> rewritten = RewriteLocked(
      session, AnalyzedPreferenceQuery(view.select.get(), view.preference),
      kAuxRelation);
  if (!rewritten.ok()) {
    if (!rewritten.status().IsNotImplemented()) return rewritten.status();
    // Rewriter refused (e.g. non-weak-order EXPLICIT): the direct path runs.
    stats.rewrite_fallback = true;
    return std::optional<ResultTable>();
  }
  // The script's CREATE VIEWs become statement-local relations: each body
  // is materialized once, in order (the BUT ONLY pre-filter view reads
  // Aux), and the main query resolves their names before the catalog. The
  // catalog is never touched, so the DROP VIEW teardown has nothing to do.
  for (const auto& st : rewritten->setup) {
    PSQL_ASSIGN_OR_RETURN(ResultTable relation, db_.ExecuteSelect(*st.select));
    ctx->PutRelation(st.name,
                     std::make_shared<const ResultTable>(std::move(relation)));
  }
  PSQL_ASSIGN_OR_RETURN(ResultTable result,
                        db_.ExecuteSelect(*rewritten->query));
  stats.used_rewrite = true;
  stats.result_count = result.num_rows();
  return std::optional<ResultTable>(std::move(result));
}

Result<ResultTable> Engine::EvaluatePreferenceRows(Session& session,
                                                   const SelectStmt& select) {
  PSQL_ASSIGN_OR_RETURN(auto expanded, ExpandSelect(select));
  PSQL_ASSIGN_OR_RETURN(auto analyzed, AnalyzePreferenceQuery(*expanded));
  const ExecutionView view{std::move(expanded), analyzed.pref};
  PSQL_ASSIGN_OR_RETURN(std::optional<ResultTable> rewritten,
                        EvaluateByRewrite(session, view));
  if (rewritten.has_value()) return std::move(*rewritten);
  // The SELECT path's plan, drained instead of streamed. DrainToTable
  // closes the tree even when it fails, so the folded counters are valid
  // for partial runs too.
  PSQL_ASSIGN_OR_RETURN(
      PreferencePlan plan,
      BuildPreferencePlan(
          db_, AnalyzedPreferenceQuery(view.select.get(), view.preference),
          DirectOptions(session)));
  Result<ResultTable> rows = DrainToTable(*plan.root);
  PreferenceQueryStats& stats = session.mutable_last_stats();
  FoldPlanStats(plan, stats);
  if (rows.ok()) stats.result_count = rows->num_rows();
  return rows;
}

Result<ResultTable> Engine::RenderExplain(Session& session,
                                          const ExecutionView& view,
                                          uint64_t snapshot) {
  Schema schema = Schema::FromNames({"plan"});
  std::vector<Row> lines;
  auto add = [&](const std::string& s) { lines.push_back({Value::Text(s)}); };
  const SelectStmt& select = *view.select;
  if (!select.IsPreferenceQuery()) {
    add("-- standard SQL: passed through to the host database unchanged");
    add(SelectToSql(select));
    return ResultTable(std::move(schema), std::move(lines));
  }
  const std::string plan_cache_line =
      std::string("-- plan cache: ") +
      (session.last_stats().plan_cache_hit ? "hit" : "miss") +
      " (catalog version " + std::to_string(db_.catalog().version()) + ")";
  AnalyzedPreferenceQuery analyzed(&select, view.preference);
  const DirectEvalOptions direct = DirectOptions(session);
  if (session.options().mode != EvaluationMode::kRewrite) {
    // Direct path: describe the physical decisions (pushdown placement,
    // skyline algorithm, parallelism, cache keying) by compiling the plan
    // without draining it.
    PSQL_ASSIGN_OR_RETURN(
        PreferencePlan pplan,
        BuildPreferencePlan(db_, analyzed, direct, /*count_stats=*/false));
    add("-- direct evaluation (mode=" +
        std::string(EvaluationModeToString(session.options().mode)) +
        ", algorithm=" +
        std::string(BmoAlgorithmToString(direct.bmo.algorithm)) +
        ", kernel=" +
        std::string(DominanceKernelToString(
            analyzed.preference().program().kernel())) +
        ", bmo_threads=" + std::to_string(direct.threads) + ", simd=" +
        SimdVariantToString(analyzed.preference().program().simd_variant()) +
        ")");
    add("-- " + pplan.pushdown_detail);
    add("-- " + pplan.key_cache_detail);
    add("-- " + pplan.skyline_cache_detail);
    add("-- mvcc: snapshot epoch " + std::to_string(snapshot) +
        ", pinned readers " +
        std::to_string(db_.catalog().epochs().pinned_count()) +
        ", gc cleared " +
        std::to_string(db_.executor().stats().gc_cleared.load(
            std::memory_order_relaxed)));
    add(plan_cache_line);
    add(SelectToSql(select));
    return ResultTable(std::move(schema), std::move(lines));
  }
  auto rewritten = RewriteLocked(session, analyzed, "Aux");
  if (!rewritten.ok()) {
    if (rewritten.status().IsNotImplemented()) {
      add("-- preference is not expressible as level columns; evaluated "
          "in-engine (" +
          std::string(BmoAlgorithmToString(direct.bmo.algorithm)) + ")");
      add(plan_cache_line);
      add(SelectToSql(select));
      return ResultTable(std::move(schema), std::move(lines));
    }
    return rewritten.status();
  }
  add("-- Preference SQL optimizer translation (paper 3.2)");
  add(plan_cache_line);
  for (const auto& st : rewritten->setup) add(StatementToSql(st) + ";");
  add(SelectToSql(*rewritten->query) + ";");
  for (const auto& st : rewritten->teardown) add(StatementToSql(st) + ";");
  return ResultTable(std::move(schema), std::move(lines));
}

Result<std::string> Engine::RewriteToSql(Session& session,
                                         const std::string& sql) {
  PSQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != StatementKind::kSelect ||
      !stmt.select->IsPreferenceQuery()) {
    return Status::InvalidArgument(
        "RewriteToSql expects a query with a PREFERRING clause");
  }
  if (StatementHasParameters(stmt)) return UnboundParametersError();
  PSQL_ASSIGN_OR_RETURN(auto analyzed, AnalyzePreferenceQuery(*stmt.select));
  std::shared_lock<std::shared_mutex> lock(mutex_);
  PSQL_ASSIGN_OR_RETURN(RewriteOutput rewritten,
                        RewriteLocked(session, analyzed, "Aux"));
  return rewritten.ToScript();
}

void Engine::FinishStatementStats(Session& session, const QueryContext* ctx) {
  PreferenceQueryStats& stats = session.mutable_last_stats();
  if (ctx != nullptr) {
    stats.batches = ctx->batch_stats().batches;
    stats.batch_rows = ctx->batch_stats().batch_rows;
  }
  stats.plan_cache_evictions = plan_cache_.counters().evictions;
  stats.key_cache_evictions = key_cache_.counters().evictions;
  stats.skyline_maintenance_events = key_cache_.maintenance_events();
  stats.skyline_invalidations = key_cache_.invalidations();
  const Executor::Stats& xstats = db_.executor().stats();
  stats.mvcc_versions_scanned =
      xstats.mvcc.versions_scanned.load(std::memory_order_relaxed);
  stats.mvcc_versions_skipped =
      xstats.mvcc.versions_skipped.load(std::memory_order_relaxed);
  stats.mvcc_gc_cleared = xstats.gc_cleared.load(std::memory_order_relaxed);
}

// ===========================================================================
// Incremental skyline-cache maintenance
// ===========================================================================

namespace {

// True iff the ascending position lists `touched` and `skyline` intersect.
bool TouchesSkyline(const std::vector<uint32_t>& touched,
                    const std::vector<size_t>& skyline) {
  size_t i = 0;
  size_t j = 0;
  while (i < touched.size() && j < skyline.size()) {
    if (touched[i] < skyline[j]) {
      ++i;
    } else if (touched[i] > skyline[j]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

// Dominance-tests row `pos` (already keyed in `keys`) against the evolving
// skyline: a dominated tuple is discarded, a surviving one evicts the
// members it dominates and joins. Exact because a non-maximal tuple is
// always dominated by some *maximal* tuple (follow its dominator chain —
// finite and acyclic by transitivity/irreflexivity), so testing against the
// skyline alone decides maximality.
void AdmitIntoSkyline(const DominanceProgram& prog, const KeyStore& keys,
                      SimdVariant simd, size_t pos,
                      std::vector<size_t>* sky) {
  if (prog.AnyDominates(keys, sky->data(), sky->size(), pos, simd,
                        nullptr)) {
    return;
  }
  std::vector<uint8_t> evict(sky->size());
  prog.DominatesBlock(keys, pos, sky->data(), sky->size(), evict.data(),
                      simd, nullptr);
  size_t kept = 0;
  for (size_t w = 0; w < sky->size(); ++w) {
    if (!evict[w]) (*sky)[kept++] = (*sky)[w];
  }
  sky->resize(kept);
  sky->push_back(pos);
}

// Re-derives one cache entry under the post-DML state of `table`; nullptr
// means the entry cannot be carried over (skyline member end-stamped,
// re-key failure, or recorded effect inconsistent with the observed table)
// and must be invalidated. Under MVCC every DML is appends + end-stamps in
// a position-stable heap, so all three statement kinds share one shape:
// the entry's keys for the surviving slots are still correct verbatim, the
// appended slots [heap_before, heap_size) get fresh keys (appended past the
// published rows, which the carried store shares: O(appended rows)), and
// each appended tuple is dominance-tested against the cached skyline. Returns
// `entry` itself (no copy) when nothing was appended — a pure DELETE of
// non-members keeps both keys and skyline bit-identical; only the version
// key moves.
std::shared_ptr<const SkylineEntry> MaintainEntry(
    const std::shared_ptr<const SkylineEntry>& entry,
    const Executor::DmlEffect& dml, const Table& table) {
  if (entry->pref == nullptr || entry->keys == nullptr) return nullptr;
  // The entry's keys cover exactly the slot space sealed by the
  // pre-statement version.
  if (entry->keys->size() != dml.heap_before) return nullptr;
  const size_t heap_now = table.heap_size();
  if (heap_now < dml.heap_before) return nullptr;
  // End-stamping a skyline member masks an unknown dominated set — the
  // carried skyline would be missing resurfacing tuples. Invalidate.
  // (End-stamping non-members is free: removing dominated tuples never
  // changes the skyline, and dead slots are never candidates, so their
  // stale keys are never consulted.)
  if (entry->skyline.has_value() &&
      TouchesSkyline(dml.dead, *entry->skyline)) {
    return nullptr;
  }
  if (heap_now == dml.heap_before) return entry;

  const CompiledPreference& pref = *entry->pref;
  const DominanceProgram& prog = pref.program();
  const SimdVariant simd = prog.simd_variant();
  // Shares the published rows and appends past them; copies (with
  // headroom for the writes to come) only when another extension of this
  // entry already took the free capacity or it ran out.
  auto keys = std::make_shared<KeyStore>(entry->keys->Extend(
      heap_now - dml.heap_before, KeyStore::Headroom(heap_now)));
  for (size_t slot = dml.heap_before; slot < heap_now; ++slot) {
    if (!pref.AppendKey(table.schema(), table.heap().row(slot), keys.get(),
                        nullptr)
             .ok()) {
      return nullptr;
    }
  }
  if (keys->size() != heap_now) return nullptr;
  auto out = std::make_shared<SkylineEntry>();
  out->pref = entry->pref;
  if (entry->skyline.has_value()) {
    // The surviving members still dominate every surviving old non-member,
    // so admitting the appended tuples one by one against the evolving
    // skyline is exact (an appended tuple that evicts a member dominates
    // that member's subjects transitively).
    std::vector<size_t> sky = *entry->skyline;
    for (size_t slot = dml.heap_before; slot < heap_now; ++slot) {
      AdmitIntoSkyline(prog, *keys, simd, slot, &sky);
    }
    std::sort(sky.begin(), sky.end());
    out->skyline = std::move(sky);
  }
  out->keys = std::move(keys);
  return out;
}

}  // namespace

void Engine::MaintainSkylineCaches() {
  // Injected fault: maintenance "fails" — skip the carry entirely. Sound by
  // construction: the un-carried entries stay keyed at the superseded table
  // version, unreachable to any new reader, and the pin-aware sweep
  // reclaims them; repeated queries just rebuild from scratch.
  PSQL_FAILPOINT_VOID("skyline_maintenance");
  using Kind = Executor::DmlEffect::Kind;
  const Executor::DmlEffect& dml = db_.executor().last_dml();
  if (dml.kind == Kind::kNone) return;
  auto table_r = db_.catalog().GetTable(dml.table);
  if (!table_r.ok()) return;
  const Table& table = **table_r;
  if (table.id() != dml.table_id) return;
  // A DML statement that touched no rows seals no version and leaves every
  // entry reachable.
  if (table.version() == dml.version_before) return;
  EpochManager& epochs = db_.catalog().epochs();
  // A reader pinned at a pre-statement snapshot can still serve the
  // superseded entry — keep it resident next to the carried one. With no
  // such pin the carry is an atomic Rekey, so maintenance never doubles
  // the entry's residency (peak footprint stays flat across DML).
  const bool old_version_pinned =
      table.VersionAt(epochs.MinPinnedOr(epochs.current())) <=
      dml.version_before;
  for (auto& [key, entry] : key_cache_.SnapshotForTable(dml.table_id)) {
    if (key.table_version != dml.version_before || entry == nullptr) {
      continue;  // older version; kept or swept by the pin-aware sweep
    }
    auto maintained = MaintainEntry(entry, dml, table);
    if (maintained != nullptr) {
      KeyCacheKey new_key = key;
      new_key.table_version = table.version();
      if (old_version_pinned) {
        key_cache_.Insert(new_key, std::move(maintained));
      } else {
        key_cache_.Rekey(key, new_key, std::move(maintained));
      }
      key_cache_.CountMaintenance();
    } else {
      key_cache_.CountInvalidation();
    }
  }
}

void Engine::SweepCaches() {
  plan_cache_.EvictOtherVersions(db_.catalog().version());
  EpochManager& epochs = db_.catalog().epochs();
  // Liveness is a version *range* per table incarnation: a reader pinned at
  // the oldest snapshot may still serve entries keyed at the version its
  // snapshot sees, so everything from that version up to the current one
  // stays resident; with no pins the range collapses to the current
  // version.
  const uint64_t min_snapshot = epochs.MinPinnedOr(epochs.current());
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> live;
  for (const auto& name : db_.catalog().TableNames()) {
    auto table = db_.catalog().GetTable(name);
    if (table.ok()) {
      live[(*table)->id()] = {(*table)->VersionAt(min_snapshot),
                              (*table)->version()};
    }
  }
  auto is_live = [&](uint64_t table_id, uint64_t version) {
    auto it = live.find(table_id);
    return it != live.end() && version >= it->second.first &&
           version <= it->second.second;
  };
  key_cache_.EvictStale(is_live);
  filter_cache_.EvictStale(is_live);
}

void Engine::TryCollectGarbage(Session& session) {
  if (!session.options().mvcc_gc) return;
  // Exclusive DDL-lock acquisition proves no statement is in flight and no
  // snapshot is pinned (pins are only taken under the shared lock), so
  // last_dml is stable to read and every version dead at or before the
  // horizon is unreachable forever. Readers present? Skip — the next
  // write retries.
  std::unique_lock<std::shared_mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  // Injected fault: the horizon computation "fails" — skip this sweep (the
  // background reclaimer or a later write retries).
  PSQL_FAILPOINT_VOID("gc_horizon");
  const Executor::DmlEffect& dml = db_.executor().last_dml();
  if (dml.kind == Executor::DmlEffect::Kind::kNone) return;
  auto table = db_.catalog().GetTable(dml.table);
  if (!table.ok() || (*table)->id() != dml.table_id) return;
  EpochManager& epochs = db_.catalog().epochs();
  const uint64_t horizon = epochs.MinPinnedOr(epochs.current());
  const size_t freed = (*table)->CollectGarbage(horizon);
  if (freed > 0) {
    db_.executor().CountGarbageCollected(freed);
  }
}

namespace {

// Interprets a SET value as a non-negative integer.
Result<size_t> SetValueAsSize(const Value& v, const std::string& knob) {
  if (v.type() == ValueType::kInt && v.AsInt() >= 0) {
    return static_cast<size_t>(v.AsInt());
  }
  return Status::InvalidArgument("SET " + knob +
                                 " expects a non-negative integer");
}

// Interprets a SET value as a boolean (on/off/true/false/1/0).
Result<bool> SetValueAsBool(const Value& v, const std::string& knob) {
  if (v.type() == ValueType::kBool) return v.AsBool();
  if (v.type() == ValueType::kInt) return v.AsInt() != 0;
  if (v.type() == ValueType::kText) {
    const std::string t = ToLower(v.AsText());
    if (t == "on" || t == "true" || t == "1") return true;
    if (t == "off" || t == "false" || t == "0") return false;
  }
  return Status::InvalidArgument("SET " + knob + " expects on or off");
}

// The lower-cased text of a SET value ("" for a non-text value).
std::string SetValueText(const Value& v) {
  return v.type() == ValueType::kText ? ToLower(v.AsText()) : "";
}

// One SET knob: how a value parses into the session's options (`set` never
// sees a reset — the table resets a knob by copying its default), how the
// effective value echoes, and, for the knobs that change how a statement
// prepares or executes, the word it contributes to the plan-cache
// fingerprint (nullptr: the knob does not key the plan cache).
struct Knob {
  const char* name;
  Status (*set)(ConnectionOptions& o, const Value& v, const std::string& knob);
  void (*reset)(ConnectionOptions& o);
  std::string (*echo)(const ConnectionOptions& o);
  uint64_t (*fingerprint)(const ConnectionOptions& o);
};

template <auto Field>
void ResetField(ConnectionOptions& o) {
  o.*Field = ConnectionOptions().*Field;
}

template <auto Field>
uint64_t FieldWord(const ConnectionOptions& o) {
  return static_cast<uint64_t>(o.*Field);
}

template <auto Field>
Status SetSize(ConnectionOptions& o, const Value& v, const std::string& knob) {
  PSQL_ASSIGN_OR_RETURN(o.*Field, SetValueAsSize(v, knob));
  return Status::OK();
}

template <auto Field>
std::string EchoSize(const ConnectionOptions& o) {
  return std::to_string(o.*Field);
}

template <auto Field>
Status SetFlag(ConnectionOptions& o, const Value& v, const std::string& knob) {
  PSQL_ASSIGN_OR_RETURN(o.*Field, SetValueAsBool(v, knob));
  return Status::OK();
}

template <auto Field>
std::string EchoFlag(const ConnectionOptions& o) {
  return o.*Field ? "on" : "off";
}

template <auto Field>
constexpr Knob SizeKnob(const char* name, bool keys_plan) {
  return {name, SetSize<Field>, ResetField<Field>, EchoSize<Field>,
          keys_plan ? FieldWord<Field> : nullptr};
}

template <auto Field>
constexpr Knob FlagKnob(const char* name, bool keys_plan) {
  return {name, SetFlag<Field>, ResetField<Field>, EchoFlag<Field>,
          keys_plan ? FieldWord<Field> : nullptr};
}

Status SetEvaluationMode(ConnectionOptions& o, const Value& v,
                         const std::string&) {
  const std::string m = SetValueText(v);
  if (m == "rewrite") {
    o.mode = EvaluationMode::kRewrite;
  } else if (m == "bnl") {
    o.mode = EvaluationMode::kBlockNestedLoop;
  } else if (m == "naive") {
    o.mode = EvaluationMode::kNaiveNestedLoop;
  } else if (m == "sfs") {
    o.mode = EvaluationMode::kSortFilterSkyline;
  } else {
    return Status::InvalidArgument(
        "SET evaluation_mode expects rewrite, bnl, naive or sfs");
  }
  return Status::OK();
}

Status SetBmoAlgorithm(ConnectionOptions& o, const Value& v,
                       const std::string&) {
  if (v.type() != ValueType::kText) {
    return Status::InvalidArgument(
        "SET bmo_algorithm expects naive, bnl, sfs, less or default");
  }
  PSQL_ASSIGN_OR_RETURN(o.bmo_algorithm,
                        BmoAlgorithmFromString(ToLower(v.AsText())));
  return Status::OK();
}

Status SetButOnlyMode(ConnectionOptions& o, const Value& v,
                      const std::string&) {
  const std::string m = SetValueText(v);
  if (m == "prefilter") {
    o.but_only_mode = ButOnlyMode::kPreFilter;
  } else if (m == "postfilter") {
    o.but_only_mode = ButOnlyMode::kPostFilter;
  } else {
    return Status::InvalidArgument(
        "SET but_only_mode expects prefilter or postfilter");
  }
  return Status::OK();
}

using O = ConnectionOptions;

// Every SET knob, in the order the unknown-setting error lists them.
constexpr Knob kKnobs[] = {
    {"evaluation_mode", SetEvaluationMode, ResetField<&O::mode>,
     [](const O& o) -> std::string { return EvaluationModeToString(o.mode); },
     FieldWord<&O::mode>},
    {"bmo_algorithm", SetBmoAlgorithm, ResetField<&O::bmo_algorithm>,
     [](const O& o) -> std::string {
       return o.bmo_algorithm ? BmoAlgorithmToString(*o.bmo_algorithm)
                              : "default";
     },
     [](const O& o) -> uint64_t {
       return o.bmo_algorithm ? 1 + static_cast<uint64_t>(*o.bmo_algorithm)
                              : 0;
     }},
    SizeKnob<&O::bmo_threads>("bmo_threads", true),
    SizeKnob<&O::parallel_min_rows>("parallel_min_rows", true),
    FlagKnob<&O::preference_pushdown>("preference_pushdown", true),
    SizeKnob<&O::bnl_window>("bnl_window", true),
    {"but_only_mode", SetButOnlyMode, ResetField<&O::but_only_mode>,
     [](const O& o) -> std::string {
       return o.but_only_mode == ButOnlyMode::kPreFilter ? "prefilter"
                                                         : "postfilter";
     },
     FieldWord<&O::but_only_mode>},
    FlagKnob<&O::plan_cache>("plan_cache", false),
    FlagKnob<&O::auto_parameterize>("auto_parameterize", false),
    FlagKnob<&O::key_cache>("key_cache", true),
    FlagKnob<&O::skyline_cache>("skyline_cache", true),
    FlagKnob<&O::mvcc_gc>("mvcc_gc", true),
    FlagKnob<&O::mvcc_gc_background>("mvcc_gc_background", false),
    SizeKnob<&O::statement_timeout_ms>("statement_timeout_ms", false),
    SizeKnob<&O::statement_memory_bytes>("statement_memory_bytes", false),
    SizeKnob<&O::engine_memory_bytes>("engine_memory_bytes", false),
};

}  // namespace

uint64_t Engine::KnobFingerprint(const ConnectionOptions& o) {
  uint64_t h = kFingerprintSeed;
  for (const Knob& k : kKnobs) {
    if (k.fingerprint != nullptr) h = FingerprintMix(h, k.fingerprint(o));
  }
  return h;
}

Result<ResultTable> Engine::ExecuteSet(Session& session,
                                       const Statement& stmt) {
  ConnectionOptions& options = session.options();
  const std::string knob = ToLower(stmt.name);
  const Value& v = stmt.set_value;
  const Knob* k = nullptr;
  for (const Knob& candidate : kKnobs) {
    if (knob == candidate.name) k = &candidate;
  }
  if (k == nullptr) {
    std::string known;
    for (const Knob& candidate : kKnobs) {
      known += (known.empty() ? "" : ", ") + std::string(candidate.name);
    }
    return Status::InvalidArgument("unknown setting '" + stmt.name +
                                   "' (known: " + known + ")");
  }
  const bool reset = v.type() == ValueType::kNull ||
                     (v.type() == ValueType::kText &&
                      ToLower(v.AsText()) == "default");
  if (reset) {
    k->reset(options);
  } else {
    PSQL_RETURN_IF_ERROR(k->set(options, v, knob));
  }
  // Engine-wide effects: the background reclaimer and the memory budget
  // are shared by every session on this engine.
  if (knob == "mvcc_gc_background") {
    gc_background_enabled_.store(options.mvcc_gc_background,
                                 std::memory_order_relaxed);
    gc_cv_.notify_one();
  } else if (knob == "engine_memory_bytes") {
    engine_budget_.set_limit(options.engine_memory_bytes);
  }
  // Echo the effective value so scripts/shell users see what stuck.
  Schema schema = Schema::FromNames({"setting", "value"});
  std::vector<Row> rows;
  rows.push_back({Value::Text(knob), Value::Text(k->echo(options))});
  return ResultTable(std::move(schema), std::move(rows));
}

}  // namespace prefsql
