// Catalog: name -> table / view / index mapping for one database.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sql/ast.h"
#include "storage/epoch.h"
#include "storage/index.h"
#include "storage/table.h"
#include "util/status.h"

namespace prefsql {

/// Owns all persistent objects of a database instance.
///
/// The name->object maps are internally synchronized (shared_mutex): the
/// engine serializes DDL against statements with its own lock, but the
/// background MVCC reclaimer walks the catalog from its own thread, and
/// embedded users (workload generators, the shell's .demo, benches) create
/// tables through Database directly without ever taking the engine lock.
/// The internal lock only protects map *structure* — returned Table*/Index*
/// stay valid under concurrent DDL-free traffic because the map values are
/// stable unique_ptr targets; object contents are protected by MVCC and
/// the objects' own internal locks.
class Catalog {
 public:
  /// Database-wide MVCC epoch manager: every table created through this
  /// catalog stamps row versions against it, so one snapshot epoch gives a
  /// consistent point-in-time view across all tables.
  EpochManager& epochs() { return epochs_; }
  const EpochManager& epochs() const { return epochs_; }

  Status CreateTable(const std::string& name, std::vector<ColumnDef> columns,
                     bool if_not_exists);
  Status CreateView(const std::string& name,
                    std::shared_ptr<SelectStmt> definition);
  Status CreateIndex(const std::string& name, const std::string& table,
                     const std::vector<std::string>& columns);

  /// Stores a named preference (Preference Definition Language, §2.2). The
  /// definition must already have nested PREFERENCE references expanded.
  Status CreatePreference(const std::string& name, PrefTermPtr definition);
  Result<const PrefTerm*> GetPreference(const std::string& name) const;
  bool HasPreference(const std::string& name) const;

  Status Drop(Statement::DropKind kind, const std::string& name,
              bool if_exists);

  /// Base table lookup (views are not returned here).
  Result<Table*> GetTable(const std::string& name) const;
  /// View definition lookup.
  Result<std::shared_ptr<SelectStmt>> GetView(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  bool HasView(const std::string& name) const;

  /// Indexes defined on `table`.
  std::vector<Index*> IndexesOn(const std::string& table) const;

  /// Finds an index on `table` whose key columns are exactly `columns`
  /// (order-sensitive); nullptr if none.
  Index* FindIndex(const std::string& table,
                   const std::vector<size_t>& columns) const;

  std::vector<std::string> TableNames() const;

  /// Monotone DDL counter: bumped whenever the set of tables, views,
  /// indexes or stored preferences changes. Prepared-plan cache keys embed
  /// it, so any DDL makes older preparations unreachable. Atomic: the
  /// engine reads it for cache keying before taking the statement lock.
  uint64_t version() const { return version_.load(std::memory_order_relaxed); }

 private:
  static std::string Key(const std::string& name);

  // Unlocked internals for reuse from methods already holding mu_.
  Result<Table*> GetTableUnlocked(const std::string& name) const;
  std::vector<Index*> IndexesOnUnlocked(const std::string& table) const;

  void BumpVersion() { version_.fetch_add(1, std::memory_order_relaxed); }

  EpochManager epochs_;
  mutable std::shared_mutex mu_;  // guards the maps below
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, std::shared_ptr<SelectStmt>> views_;
  std::unordered_map<std::string, std::unique_ptr<Index>> indexes_;
  std::unordered_map<std::string, PrefTermPtr> preferences_;
  // index name -> table key, for IndexesOn.
  std::unordered_map<std::string, std::string> index_table_;
  std::atomic<uint64_t> version_{0};
};

}  // namespace prefsql
