// SkylineCache: engine-owned reuse of packed preference keys — and of the
// computed skyline itself — across queries.
//
// Building the KeyStore (one leaf-attribute evaluation per tuple per leaf)
// dominates the cost of a repeated preference query once the dominance
// kernels are fast; computing the skyline is the other half. An entry maps
//
//   (CompiledPreference::Fingerprint, printed preference text,
//    Table::id, Table::version)
//     -> SkylineEntry{ shared immutable KeyStore for rows 0..n-1 in storage
//                      order,
//                      optionally the skyline row positions (ascending),
//                      the compiled preference that produced both }
//
// so a repeated `PREFERRING` query over an unchanged table reuses the keys
// wholesale — and, when the query shape allows serving positions directly
// (bare-table scan, no GROUPING/BUT ONLY/quality columns), skips the BMO
// entirely and replays the cached position list. Every key component is
// there for a served-staleness argument: the table *version* (any DML bumps
// it) and the process-unique table *id* (a dropped-and-recreated table
// never matches its predecessor) pin the rows; the tree-hash fingerprint
// plus the printed preference text pin the preference — the text guards
// against a 64-bit hash collision between two different preferences, so a
// match provably produces identical keys.
//
// Only whole-table stores are published. A WHERE-filtered miss that pulled
// fewer than half of the table's slots keys just its candidates into a
// statement-local store instead (BmoOperator::Open, step 2): the
// whole-table build would cost more than twice as much. At half or more
// the whole-table build costs at most 2x and is published, so bare scans
// and broad filters keep sharing one entry.
//
// Incremental maintenance: after a DML statement the engine does not merely
// abandon the now-unreachable entries — it re-derives them under the new
// table version (core/engine.cc, MaintainSkylineCaches). Under MVCC every
// statement kind is appends plus end-stamps in a position-stable heap
// (UPDATE = end-stamp the old version + append the new one), so one rule
// covers all three:
//   * the entry's keys for the existing slots stay valid verbatim; the
//     appended slots are keyed into an extension of the published store
//     that shares its rows (KeyStore::Extend), so a one-row write costs
//     one row per entry, not a copy of the table's keys;
//   * each appended tuple is dominance-tested against the cached skyline
//     (a non-maximal tuple is always dominated by some maximal one, so
//     testing against the skyline alone is exact), adding survivors and
//     evicting newly-dominated members;
//   * end-stamping a non-member changes nothing (dead slots are never
//     candidates); end-stamping a skyline member invalidates the entry
//     (the members it was masking are unknown).
// The maintained entry is keyed at the *new* version; the stale entry is
// reclaimed by the regular post-write sweep. SnapshotForTable and the
// maintenance counters below exist for that loop.
//
// Thread safety: all operations lock an internal mutex (util/lru_cache.h),
// so concurrent reader sessions of a shared engine may probe and fill the
// cache freely. The stored entries are immutable after insertion —
// an extension writes only past the rows its base store exposes —
// and maintenance publishes fresh entries under fresh keys.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "preference/composite.h"
#include "preference/key_store.h"
#include "util/lru_cache.h"

namespace prefsql {

/// Identity of one cached entry; see file comment for the invalidation
/// argument behind each component.
struct KeyCacheKey {
  uint64_t preference_fingerprint = 0;
  /// PrefTermToSql of the compiled term — equality re-verifies the
  /// fingerprint (identical text => identical key semantics).
  std::string preference_text;
  uint64_t table_id = 0;
  uint64_t table_version = 0;

  bool operator==(const KeyCacheKey& other) const = default;
};

/// One cached unit of preference work over a table snapshot. `keys` always
/// covers rows 0..n-1 in storage order; `skyline` is engaged only when a
/// run whose result equals the bare skyline completed (no GROUPING, BUT
/// ONLY or top-k truncation). `pref` keeps the compiled preference alive
/// for incremental re-keying under DML.
struct SkylineEntry {
  std::shared_ptr<const KeyStore> keys;
  /// Skyline row positions, ascending; nullopt = keys-only entry.
  std::optional<std::vector<size_t>> skyline;
  std::shared_ptr<const CompiledPreference> pref;
};

class SkylineCache {
 public:
  /// `capacity` = maximum number of cached entries (LRU beyond that).
  explicit SkylineCache(size_t capacity = 64) : cache_(capacity) {}

  /// The cached entry for `key`, or nullptr. Counts a hit or miss and
  /// refreshes the entry's LRU position.
  std::shared_ptr<const SkylineEntry> Lookup(const KeyCacheKey& key) {
    return cache_.Lookup(key);
  }

  /// Publishes an entry (replacing any entry under `key`). May LRU-evict
  /// the least recently used entry. An entry carrying a skyline overwrites
  /// a keys-only entry for the same key; the reverse never discards a
  /// skyline (the keys are identical by the key argument, so the richer
  /// entry wins).
  void Insert(const KeyCacheKey& key,
              std::shared_ptr<const SkylineEntry> entry) {
    if (entry == nullptr || entry->keys == nullptr) return;
    if (!entry->skyline.has_value()) {
      if (auto existing = cache_.Lookup(key);
          existing != nullptr && existing->skyline.has_value()) {
        return;  // keep the richer entry
      }
    }
    cache_.Insert(key, std::move(entry));
  }

  /// Carries a maintained entry from its pre-DML version key to the new
  /// one in a single critical section: at no instant are both versions
  /// resident, so incremental maintenance never transiently doubles the
  /// cache's footprint. Use Insert instead when a pinned older snapshot
  /// must keep the superseded entry servable alongside the carried one.
  void Rekey(const KeyCacheKey& old_key, const KeyCacheKey& new_key,
             std::shared_ptr<const SkylineEntry> entry) {
    if (entry == nullptr || entry->keys == nullptr) return;
    cache_.Rekey(old_key, new_key, std::move(entry));
  }

  /// Memory-pressure shed: drops up to `n` cold entries (LRU order).
  size_t Shed(size_t n) { return cache_.EvictOldest(n); }

  /// All live entries of one table, for the post-DML maintenance loop.
  std::vector<std::pair<KeyCacheKey, std::shared_ptr<const SkylineEntry>>>
  SnapshotForTable(uint64_t table_id) const {
    return cache_.SnapshotWhere(
        [table_id](const KeyCacheKey& k) { return k.table_id == table_id; });
  }

  /// Early reclamation: drops every entry for which `live(table_id,
  /// table_version)` is false. Version-keyed entries can never be *served*
  /// stale; this just frees their memory as soon as a write makes them
  /// unreachable. Returns the number of dropped entries.
  size_t EvictStale(
      const std::function<bool(uint64_t table_id, uint64_t table_version)>&
          live) {
    return cache_.EvictWhere([&](const KeyCacheKey& key) {
      return !live(key.table_id, key.table_version);
    });
  }

  // Maintenance observability (cumulative engine-wide totals, like the
  // LruCache counters). An "event" is one entry carried across a DML
  // statement to the new table version; an "invalidation" is one entry the
  // maintenance had to drop instead (skyline member touched, re-key
  // failure).
  void CountMaintenance() {
    maintenance_events_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountInvalidation() {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t maintenance_events() const {
    return maintenance_events_.load(std::memory_order_relaxed);
  }
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

  struct KeyHash {
    size_t operator()(const KeyCacheKey& k) const {
      uint64_t h = FingerprintMix(kFingerprintSeed, k.preference_fingerprint);
      h = FingerprintMix(h, k.table_id);
      h = FingerprintMix(h, k.table_version);
      return static_cast<size_t>(h);
    }
  };

  using Counters =
      LruCache<KeyCacheKey, std::shared_ptr<const SkylineEntry>,
               KeyHash>::Counters;
  Counters counters() const { return cache_.counters(); }
  size_t size() const { return cache_.size(); }

 private:
  LruCache<KeyCacheKey, std::shared_ptr<const SkylineEntry>, KeyHash> cache_;
  std::atomic<uint64_t> maintenance_events_{0};
  std::atomic<uint64_t> invalidations_{0};
};

/// FilterCache: cached candidate positions of one WHERE predicate over one
/// table snapshot, in the order the scan pulled them (storage order for a
/// sequential scan, index order for an index scan — replaying the list
/// reproduces the exact candidate stream). Keyed by the printed predicate
/// text plus (table id, table version), so any DML makes entries
/// unreachable; only subquery-free predicates are cached (a subquery's
/// value can change with *other* tables' versions).
struct FilterCacheKey {
  /// Printed SQL of the (bound) WHERE predicate, comparisons canonicalized
  /// to literal-right (`a < 4` and `4 > a` key identically).
  std::string where_text;
  uint64_t table_id = 0;
  uint64_t table_version = 0;

  bool operator==(const FilterCacheKey& other) const = default;
};

class FilterCache {
 public:
  explicit FilterCache(size_t capacity = 64) : cache_(capacity) {}

  std::shared_ptr<const std::vector<size_t>> Lookup(
      const FilterCacheKey& key) {
    return cache_.Lookup(key);
  }

  void Insert(const FilterCacheKey& key,
              std::shared_ptr<const std::vector<size_t>> positions) {
    if (positions != nullptr) cache_.Insert(key, std::move(positions));
  }

  /// Memory-pressure shed: drops up to `n` cold entries (LRU order).
  size_t Shed(size_t n) { return cache_.EvictOldest(n); }

  /// Same early-reclamation contract as SkylineCache::EvictStale.
  size_t EvictStale(
      const std::function<bool(uint64_t table_id, uint64_t table_version)>&
          live) {
    return cache_.EvictWhere([&](const FilterCacheKey& key) {
      return !live(key.table_id, key.table_version);
    });
  }

  struct KeyHash {
    size_t operator()(const FilterCacheKey& k) const {
      uint64_t h = FingerprintString(kFingerprintSeed, k.where_text);
      h = FingerprintMix(h, k.table_id);
      h = FingerprintMix(h, k.table_version);
      return static_cast<size_t>(h);
    }
  };

  using Counters =
      LruCache<FilterCacheKey, std::shared_ptr<const std::vector<size_t>>,
               KeyHash>::Counters;
  Counters counters() const { return cache_.counters(); }
  size_t size() const { return cache_.size(); }

 private:
  LruCache<FilterCacheKey, std::shared_ptr<const std::vector<size_t>>,
           KeyHash>
      cache_;
};

}  // namespace prefsql
