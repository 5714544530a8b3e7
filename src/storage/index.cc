#include "storage/index.h"

#include "storage/row_heap.h"
#include "storage/table.h"

namespace prefsql {

Index::Index(std::string name, const Table* table,
             std::vector<size_t> key_columns)
    : name_(std::move(name)),
      table_(table),
      key_columns_(std::move(key_columns)) {}

void Index::RefreshIfStale() {
  const RowHeap& heap = table_->heap();
  const size_t n = heap.size();
  // The heap only appends and never moves a slot, so the entries of
  // [0, built_size_) stay valid: index just the appended slots.
  for (size_t pos = built_size_; pos < n; ++pos) {
    if (heap.payload_cleared(pos)) continue;  // GC'd version: key is gone
    const Row& row = heap.row(pos);
    Row key;
    key.reserve(key_columns_.size());
    for (size_t c : key_columns_) key.push_back(row[c]);
    entries_[std::move(key)].push_back(pos);
  }
  built_size_ = n;
}

std::vector<size_t> Index::Lookup(const Row& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  RefreshIfStale();
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  return it->second;
}

std::vector<size_t> Index::RangeLookup(const Value& lo, const Value& hi) {
  return RangeLookupBounds(&lo, &hi);
}

std::vector<size_t> Index::RangeLookupBounds(const Value* lo,
                                             const Value* hi) {
  std::lock_guard<std::mutex> lock(mutex_);
  RefreshIfStale();
  std::vector<size_t> out;
  auto begin = lo != nullptr ? entries_.lower_bound(Row{*lo})
                             : entries_.begin();
  for (auto it = begin; it != entries_.end(); ++it) {
    if (hi != nullptr && Value::Compare(it->first[0], *hi) > 0) break;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

size_t Index::NumDistinctKeys() {
  std::lock_guard<std::mutex> lock(mutex_);
  RefreshIfStale();
  return entries_.size();
}

}  // namespace prefsql
