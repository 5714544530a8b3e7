// QueryContext: per-statement resource-governance state — deadline,
// cooperative cancellation flag, and memory budgets — threaded through the
// executor, the operator tree, and all BMO algorithms.
//
// The engine arms one context per statement (deadline from
// `SET statement_timeout_ms`, cancel flag reachable cross-thread through
// Session::CancelCurrent). Hot loops call CheckInterrupt() every
// kInterruptStride iterations; the first trip latches a sticky status
// (kTimeout or kCancelled) so every layer that asks afterwards sees the
// same verdict, and the operator tree unwinds through the existing
// early-Close cleanup path (stats flushed, snapshot pin released, cursor
// lock dropped).
//
// Like the ambient snapshot scope in storage/epoch.h, the context rides a
// thread-local so operator signatures stay unchanged: the engine (and
// Cursor::Next, per pull) establishes a ScopedQueryContext around
// execution; code that wants to cooperate asks CurrentQueryContext().
// Worker threads in bmo_parallel receive the context explicitly through
// BmoOptions instead (the thread-local does not cross pool threads).
//
// The context also carries the statement's local relations: materialized
// results the planner resolves by name before it looks in the catalog. The
// rewrite strategy's Aux relations live there, and so does each user view
// the statement reads, materialized once at the statement's snapshot.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "types/result_table.h"
#include "util/memory_budget.h"
#include "util/string_util.h"
#include "util/status.h"

namespace prefsql {

/// Counters of the batch-at-a-time (vectorized) pipeline, owned by the
/// statement's QueryContext. Drain sites (DrainToTable, Cursor refills, the
/// BMO/sort feeds) count each root-level batch exactly once; operators that
/// serve NextBatch through the row-loop fallback record their label so
/// last_stats()/EXPLAIN can show which part of a tree ran unvectorized.
/// Unsynchronized by design: the operator tree of one statement is pulled
/// from a single thread (BMO workers receive rows, not the context).
struct BatchExecStats {
  uint64_t batches = 0;
  uint64_t batch_rows = 0;
  std::vector<std::string> fallback_ops;  ///< distinct labels, first-seen order

  void Record(size_t rows) {
    ++batches;
    batch_rows += rows;
  }

  void RecordFallback(const char* label) {
    for (const auto& seen : fallback_ops) {
      if (seen == label) return;
    }
    fallback_ops.emplace_back(label);
  }
};

/// Hot loops poll the context once per this many iterations. The stride
/// keeps the steady_clock read off the per-row path; with dominance tests
/// in the tens-of-nanoseconds range this bounds overshoot well under a
/// millisecond.
inline constexpr size_t kInterruptStride = 256;

class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  QueryContext() = default;

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Arms a deadline `timeout_ms` from now. 0 disarms.
  void set_deadline_ms(uint64_t timeout_ms) {
    has_deadline_ = timeout_ms != 0;
    if (has_deadline_) {
      deadline_ = Clock::now() + std::chrono::milliseconds(timeout_ms);
    }
  }

  /// Requests cooperative cancellation; safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Per-statement budget, charged by this statement's buffers. May be null.
  void set_statement_budget(MemoryBudget* b) { statement_budget_ = b; }
  MemoryBudget* statement_budget() const { return statement_budget_; }
  /// Arms the context's own per-statement budget with `limit_bytes` and
  /// installs it as statement_budget(). 0 keeps usage tracked but unlimited.
  void ArmStatementBudget(uint64_t limit_bytes) {
    owned_statement_budget_.set_limit(limit_bytes);
    statement_budget_ = &owned_statement_budget_;
  }
  /// Engine-wide budget shared across sessions. May be null.
  void set_engine_budget(MemoryBudget* b) { engine_budget_ = b; }
  MemoryBudget* engine_budget() const { return engine_budget_; }

  /// Called (with the refused byte count) when an engine-budget charge
  /// fails, before the charge is retried once. The engine installs a relief
  /// that sheds cold cache entries and runs a pin-aware GC sweep, so queries
  /// only see kResourceExhausted after reclaimable memory is exhausted too.
  void set_pressure_relief(std::function<void(uint64_t)> relief) {
    pressure_relief_ = std::move(relief);
  }

  /// Charges `bytes` against the statement budget then the engine budget,
  /// accumulating into the caller's RAII holders (one per budget — a holder
  /// refuses to mix budgets). A refused statement charge fails immediately;
  /// a refused engine charge triggers the pressure relief and one retry.
  /// Failure latches kResourceExhausted so the operator tree unwinds with
  /// the statement's final status.
  Status ChargeMemory(uint64_t bytes, ScopedMemoryCharge* statement_charge,
                      ScopedMemoryCharge* engine_charge) {
    if (statement_budget_ != nullptr &&
        !statement_charge->Charge(statement_budget_, bytes)) {
      return Latch(Status::ResourceExhausted(
          "statement memory limit exceeded (" +
          std::to_string(statement_budget_->limit()) + " bytes)"));
    }
    if (engine_budget_ != nullptr &&
        !engine_charge->Charge(engine_budget_, bytes)) {
      if (pressure_relief_) pressure_relief_(bytes);
      if (!engine_charge->Charge(engine_budget_, bytes)) {
        return Latch(Status::ResourceExhausted(
            "engine memory limit exceeded (" +
            std::to_string(engine_budget_->limit()) + " bytes)"));
      }
    }
    return Status::OK();
  }

  /// Polls cancellation and the deadline. The first failure latches: every
  /// later call (from any operator, any thread) returns the same status, so
  /// a timeout observed deep in a BMO worker is the status the client sees.
  Status CheckInterrupt() {
    if (interrupted_.load(std::memory_order_acquire)) return LatchedStatus();
    if (cancelled_.load(std::memory_order_acquire)) {
      return Latch(Status::Cancelled("statement cancelled by client"));
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Latch(Status::Timeout("statement deadline exceeded"));
    }
    return Status::OK();
  }

  /// Latches an externally-detected failure (e.g. a refused memory charge)
  /// so the rest of the tree unwinds with one consistent status. First
  /// failure wins.
  Status Latch(Status status) {
    {
      std::lock_guard<std::mutex> g(mu_);
      if (!interrupted_.load(std::memory_order_relaxed)) {
        latched_ = std::move(status);
        interrupted_.store(true, std::memory_order_release);
      }
    }
    return LatchedStatus();
  }

  bool interrupted() const {
    return interrupted_.load(std::memory_order_acquire);
  }

  /// The latched failure; OK when never interrupted.
  Status LatchedStatus() const {
    if (!interrupted_.load(std::memory_order_acquire)) return Status::OK();
    std::lock_guard<std::mutex> g(mu_);
    return latched_;
  }

  /// Whether this statement drains its operator tree batch-at-a-time
  /// (`SET vectorized_execution`). Read by drain sites and pipeline
  /// breakers; the tree itself is protocol-agnostic.
  void set_vectorized(bool on) { vectorized_ = on; }
  bool vectorized() const { return vectorized_; }

  BatchExecStats& batch_stats() { return batch_stats_; }
  const BatchExecStats& batch_stats() const { return batch_stats_; }

  /// The statement-local relation named `name` (case-insensitive), or null.
  /// Planner::PlanTableRef consults this before the catalog. Unsynchronized
  /// like batch_stats(): only the thread pulling the statement's tree plans
  /// against it.
  std::shared_ptr<const ResultTable> FindRelation(
      const std::string& name) const {
    if (relations_.empty()) return nullptr;
    auto it = relations_.find(ToLower(name));
    return it == relations_.end() ? nullptr : it->second;
  }
  /// Binds `name` to `relation` for the rest of this statement; no other
  /// statement ever sees it.
  void PutRelation(const std::string& name,
                   std::shared_ptr<const ResultTable> relation) {
    relations_[ToLower(name)] = std::move(relation);
  }

 private:
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> interrupted_{false};
  mutable std::mutex mu_;
  Status latched_;  // guarded by mu_ until interrupted_ is set
  MemoryBudget owned_statement_budget_;
  MemoryBudget* statement_budget_ = nullptr;
  MemoryBudget* engine_budget_ = nullptr;
  std::function<void(uint64_t)> pressure_relief_;
  bool vectorized_ = true;
  BatchExecStats batch_stats_;
  std::unordered_map<std::string, std::shared_ptr<const ResultTable>>
      relations_;
};

namespace query_context_internal {
inline QueryContext*& TlsCurrent() {
  thread_local QueryContext* ctx = nullptr;
  return ctx;
}
}  // namespace query_context_internal

/// Establishes `ctx` (may be null) as this thread's current query context
/// for the scope's lifetime (save/restore, so scopes nest).
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(QueryContext* ctx)
      : saved_(query_context_internal::TlsCurrent()) {
    query_context_internal::TlsCurrent() = ctx;
  }
  ~ScopedQueryContext() { query_context_internal::TlsCurrent() = saved_; }
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext* saved_;
};

/// The current statement's context, or null outside any scope (direct
/// Database/Executor use, tests).
inline QueryContext* CurrentQueryContext() {
  return query_context_internal::TlsCurrent();
}

/// Whether the current statement should drain operator trees
/// batch-at-a-time. Defaults to on outside any statement scope (direct
/// Database/Executor use, tests); `SET vectorized_execution = off` pins the
/// row-at-a-time path for the session.
inline bool BatchModeEnabled() {
  QueryContext* ctx = CurrentQueryContext();
  return ctx == nullptr ? true : ctx->vectorized();
}

/// Stride-counted interrupt helper for hot loops:
///   size_t tick = 0;
///   for (...) { PSQL_RETURN_IF_ERROR(PollInterrupt(&tick)); ... }
/// Cheap when no context is active (one thread-local read + counter).
inline Status PollInterrupt(size_t* tick) {
  if (++*tick % kInterruptStride != 0) return Status::OK();
  QueryContext* ctx = CurrentQueryContext();
  if (ctx == nullptr) return Status::OK();
  return ctx->CheckInterrupt();
}

}  // namespace prefsql
