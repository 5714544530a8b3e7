// Secondary index: an ordered multimap from key rows to row positions.
//
// The paper notes that "having the right indices available current SQL
// optimizers can efficiently process" the rewritten NOT EXISTS query; the
// engine uses these indexes for equality lookups in filters and joins.

#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "types/value.h"
#include "util/status.h"

namespace prefsql {

class Table;

/// Ordered secondary index over one or more columns of a base table.
///
/// MVCC notes: the index covers every heap slot (live and dead versions
/// alike) and catches up lazily when the heap has grown, by indexing just
/// the appended slots — the heap is append-only and position-stable, and
/// deletes only end-stamp slots, so they never stale the index. A slot
/// whose payload GC cleared before it was indexed is skipped; one cleared
/// after keeps its entry (the heap keeps the slot header too). Lookups
/// therefore return *candidate* positions; callers filter them by snapshot
/// visibility before use (a cleared slot is visible at no servable
/// snapshot). Results are returned by value because writers commit
/// concurrently with readers, so another statement may extend the index
/// while a previously returned result is still in use.
class Index {
 public:
  Index(std::string name, const Table* table, std::vector<size_t> key_columns);

  const std::string& name() const { return name_; }
  const std::vector<size_t>& key_columns() const { return key_columns_; }

  /// Slot positions whose key equals `key` (same arity as key_columns).
  /// Indexes the appended slots first if the heap grew. Candidates only —
  /// callers must filter by snapshot visibility.
  std::vector<size_t> Lookup(const Row& key);

  /// Slot positions with key in [lo, hi] on a single-column index.
  std::vector<size_t> RangeLookup(const Value& lo, const Value& hi);

  /// Like RangeLookup with optionally open bounds (nullptr = unbounded);
  /// the planner's access path for range predicates (col < v, BETWEEN, ...).
  std::vector<size_t> RangeLookupBounds(const Value* lo, const Value* hi);

  /// Number of distinct keys (after refresh).
  size_t NumDistinctKeys();

 private:
  struct RowLess {
    bool operator()(const Row& a, const Row& b) const {
      for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
        int c = Value::Compare(a[i], b[i]);
        if (c != 0) return c < 0;
      }
      return a.size() < b.size();
    }
  };

  void RefreshIfStale();

  mutable std::mutex mutex_;
  std::string name_;
  const Table* table_;
  std::vector<size_t> key_columns_;
  size_t built_size_ = 0;  // heap slots [0, built_size_) are indexed
  std::map<Row, std::vector<size_t>, RowLess> entries_;
};

}  // namespace prefsql
