// KeyStore: contiguous structure-of-arrays storage for preference keys.
//
// The BMO hot loop performs O(n²) dominance tests over per-tuple keys; the
// tuple-at-a-time representation (PrefKey = std::vector<LeafKey>) costs one
// heap allocation per tuple and scatters the scores the packed kernels want
// to stream. The KeyStore packs all keys of a candidate set into two flat
// arrays — `scores[n * L]` and `explicit_ids[n * L]` (L = number of
// preference leaves, row-major) — so a tuple's key is a contiguous slice,
// the whole set is one reservation, and the dominance kernels of
// dominance_program.h touch nothing but sequential memory.
//
// Shared prefixes. The arrays live in a fixed-capacity Buffer that several
// stores may share: Extend returns a store holding the same rows [0, n)
// that appends into the buffer's free capacity past n, so carrying a cached
// whole-table store across a one-row write costs one row, not a copy of the
// table. The buffer's atomic high-water mark arbitrates the free capacity:
// an extension wins it only while the mark still equals n (no other store
// has appended past n), and otherwise copies into a fresh buffer. This is
// safe without further locking because rows below a store's size are never
// written again, and a store's readers never read past its size. A store
// that is still being filled must not be shared (published) until it is
// complete; a copy shares nothing.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "preference/preference.h"

namespace prefsql {

class KeyStore {
 public:
  KeyStore() = default;
  explicit KeyStore(size_t num_leaves) : num_leaves_(num_leaves) {}

  /// Copies the rows into a buffer of their own (exact size).
  KeyStore(const KeyStore& other) : num_leaves_(other.num_leaves_) {
    CopyRowsFrom(other, other.size_);
  }
  KeyStore& operator=(const KeyStore& other) {
    if (this != &other) {
      Reset(other.num_leaves_);
      CopyRowsFrom(other, other.size_);
    }
    return *this;
  }
  KeyStore(KeyStore&& other) noexcept { *this = std::move(other); }
  KeyStore& operator=(KeyStore&& other) noexcept {
    if (this != &other) {
      num_leaves_ = other.num_leaves_;
      size_ = std::exchange(other.size_, 0);
      len_ = std::exchange(other.len_, 0);
      limit_ = std::exchange(other.limit_, 0);
      scores_ = std::exchange(other.scores_, nullptr);
      ids_ = std::exchange(other.ids_, nullptr);
      buf_ = std::move(other.buf_);
    }
    return *this;
  }

  /// Clears the store and re-binds it to an L-leaf preference.
  void Reset(size_t num_leaves) {
    num_leaves_ = num_leaves;
    size_ = 0;
    len_ = 0;
    limit_ = 0;
    scores_ = nullptr;
    ids_ = nullptr;
    buf_.reset();
  }

  /// One reservation for `rows` keys (the "zero per-tuple allocations"
  /// contract once the estimate holds).
  void Reserve(size_t rows) {
    if (rows > limit_) Rehome(rows, scores_, ids_);
  }

  /// The spare rows a store that later extensions will grow should reserve
  /// beyond its `rows`: enough that one-row extensions share the buffer for
  /// many writes, small enough to stay a bounded fraction of the store.
  static size_t Headroom(size_t rows) { return rows / 16; }

  /// A store holding this one's rows [0, size()) with room for
  /// `extra_rows` more appends. It shares this store's buffer and appends
  /// into the capacity past size() when it wins that capacity (nothing has
  /// been appended past size() and there is room); otherwise it copies the
  /// rows into a fresh buffer with `headroom` rows to spare. Either way
  /// this store's rows and size stay untouched.
  KeyStore Extend(size_t extra_rows, size_t headroom = 0) const {
    KeyStore out(num_leaves_);
    const size_t rows = size_ + extra_rows;
    if (buf_ != nullptr && rows <= buf_->capacity) {
      size_t expected = size_;
      if (buf_->high_water.compare_exchange_strong(
              expected, rows, std::memory_order_relaxed)) {
        out.buf_ = buf_;
        out.scores_ = scores_;
        out.ids_ = ids_;
        out.size_ = size_;
        out.len_ = size_ * num_leaves_;
        out.limit_ = rows;
        return out;
      }
    }
    out.CopyRowsFrom(*this, rows + headroom);
    return out;
  }

  size_t size() const { return size_; }
  size_t num_leaves() const { return num_leaves_; }

  /// The packed score / id slices of one tuple (length num_leaves()).
  const double* scores(size_t row) const {
    return scores_ + row * num_leaves_;
  }
  const int32_t* ids(size_t row) const { return ids_ + row * num_leaves_; }

  double score(size_t row, size_t leaf) const {
    return scores_[row * num_leaves_ + leaf];
  }
  LeafKey key(size_t row, size_t leaf) const {
    return LeafKey{scores_[row * num_leaves_ + leaf],
                   ids_[row * num_leaves_ + leaf]};
  }

  /// Appends one tuple's key from its AoS form (tests, oracle cross-checks).
  void Append(const std::vector<LeafKey>& key) {
    for (const LeafKey& k : key) PushLeaf(k.score, k.explicit_id);
    CommitRow();
  }

  // Streaming append protocol used by CompiledPreference::AppendKey: push
  // num_leaves() leaves, then commit; RollbackRow discards a half-built row
  // when a leaf expression fails to evaluate.
  void PushLeaf(double score, int32_t explicit_id) {
    if (len_ == limit_ * num_leaves_) {
      Rehome(std::max<size_t>(16, 2 * limit_), scores_, ids_);
    }
    scores_[len_] = score;
    ids_[len_] = explicit_id;
    ++len_;
  }
  void CommitRow() {
    ++size_;
    // Past the first row of an extension no other store of this buffer has
    // this size, so lowering the mark from the claimed end to the size is
    // safe; it leaves mark == size() when the store is published.
    if (buf_ != nullptr) {
      buf_->high_water.store(size_, std::memory_order_relaxed);
    }
  }
  void RollbackRow() { len_ = size_ * num_leaves_; }

  /// Pre-order lexicographic comparison by leaf scores — the same linear
  /// extension as CompiledPreference::LexLess, over the packed layout.
  bool LexLess(size_t a, size_t b) const {
    const double* sa = scores(a);
    const double* sb = scores(b);
    for (size_t i = 0; i < num_leaves_; ++i) {
      if (sa[i] < sb[i]) return true;
      if (sa[i] > sb[i]) return false;
    }
    return false;
  }

 private:
  // Fixed-capacity backing arrays, shared by a store and its extensions.
  // Rows [0, high_water) belong to some store; the rest is free. The mark
  // only decides which store may write the free rows, so its accesses are
  // relaxed: a store's rows reach other threads through whatever publishes
  // the store (the key cache's mutex), never through the mark.
  struct Buffer {
    Buffer(size_t rows, size_t num_leaves)
        : capacity(rows),
          scores(new double[rows * num_leaves]),
          ids(new int32_t[rows * num_leaves]) {}
    const size_t capacity;  // rows
    std::unique_ptr<double[]> scores;
    std::unique_ptr<int32_t[]> ids;
    std::atomic<size_t> high_water{0};
  };

  // Fills an empty store with `src`'s rows, in a fresh buffer of `capacity`
  // rows.
  void CopyRowsFrom(const KeyStore& src, size_t capacity) {
    size_ = src.size_;
    len_ = size_ * num_leaves_;
    Rehome(capacity, src.scores_, src.ids_);
  }

  // Points this store at a fresh buffer of `rows` capacity, which it alone
  // writes, holding the first len_ leaves of `scores` / `ids` (its own
  // rows and half-pushed row when growing, another store's when copying).
  void Rehome(size_t rows, const double* scores, const int32_t* ids) {
    auto fresh = std::make_shared<Buffer>(rows, num_leaves_);
    std::copy(scores, scores + len_, fresh->scores.get());
    std::copy(ids, ids + len_, fresh->ids.get());
    fresh->high_water.store(size_, std::memory_order_relaxed);
    scores_ = fresh->scores.get();
    ids_ = fresh->ids.get();
    limit_ = rows;
    buf_ = std::move(fresh);
  }

  size_t num_leaves_ = 0;
  size_t size_ = 0;   // committed rows
  size_t len_ = 0;    // leaves pushed, including a half-built row
  size_t limit_ = 0;  // rows this store may write: [size_, limit_) is its own
  double* scores_ = nullptr;
  int32_t* ids_ = nullptr;
  std::shared_ptr<Buffer> buf_;
};

}  // namespace prefsql
