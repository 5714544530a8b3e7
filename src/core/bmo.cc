#include "core/bmo.h"

#include <algorithm>

#include "core/query_context.h"

namespace prefsql {
namespace {

// Result vectors grow toward the skyline size, which is unknown upfront;
// reserving a modest floor removes the early reallocation churn without
// over-committing memory for small partitions.
size_t ResultReserve(size_t n) { return std::min<size_t>(n, 256); }

// Stride-counted interrupt poll for the per-tuple loops. True means the
// statement was cancelled or timed out; the algorithm must bail out (its
// partial result is discarded by the caller, which re-checks the context).
bool InterruptedTick(QueryContext* ctx, size_t* tick) {
  if (ctx == nullptr) return false;
  if (++*tick % kInterruptStride != 0) return false;
  return !ctx->CheckInterrupt().ok();
}

// stable_sort by the lex-extension key order, interruptible: the input is
// sorted in fixed-size chunks with a deadline check between each, then
// merged pairwise with checks between merges. A monolithic stable_sort over
// 500k+ rows can run for tens of milliseconds with an expensive comparator,
// which would blow the promptness bound on its own; chunking keeps the gap
// between polls proportional to one chunk. On interrupt the vector is left
// partially sorted — callers must discard it.
void LexSortInterruptible(std::vector<size_t>& v, const KeyStore& keys,
                          QueryContext* ctx) {
  auto less = [&](size_t a, size_t b) { return keys.LexLess(a, b); };
  constexpr size_t kChunk = size_t{1} << 15;
  if (ctx == nullptr || v.size() <= kChunk) {
    std::stable_sort(v.begin(), v.end(), less);
    return;
  }
  for (size_t begin = 0; begin < v.size(); begin += kChunk) {
    if (!ctx->CheckInterrupt().ok()) return;
    std::stable_sort(v.begin() + begin,
                     v.begin() + std::min(begin + kChunk, v.size()), less);
  }
  for (size_t width = kChunk; width < v.size(); width *= 2) {
    for (size_t begin = 0; begin + width < v.size(); begin += 2 * width) {
      if (!ctx->CheckInterrupt().ok()) return;
      std::inplace_merge(
          v.begin() + begin, v.begin() + begin + width,
          v.begin() + std::min(begin + 2 * width, v.size()), less);
    }
  }
}

std::vector<size_t> NaiveNestedLoop(const DominanceProgram& prog,
                                    const KeyStore& keys,
                                    std::span<const size_t> candidates,
                                    SimdVariant simd, QueryContext* ctx,
                                    BmoStats* stats) {
  // Paper §3.2: "Insert t1 into Max if there is no tuple t2 in R that is
  // better than t1" — repeated for every t1. The whole candidate array is
  // the block (a tuple never strictly dominates itself, so t1's own entry
  // is harmless).
  std::vector<size_t> out;
  out.reserve(ResultReserve(candidates.size()));
  size_t* cmp = stats != nullptr ? &stats->comparisons : nullptr;
  size_t tick = 0;
  for (size_t i : candidates) {
    if (InterruptedTick(ctx, &tick)) return out;
    if (!prog.AnyDominates(keys, candidates.data(), candidates.size(), i,
                           simd, cmp)) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<size_t> BlockNestedLoop(const DominanceProgram& prog,
                                    const KeyStore& keys,
                                    std::span<const size_t> candidates,
                                    size_t window_capacity, SimdVariant simd,
                                    QueryContext* ctx, BmoStats* stats) {
  struct Entry {
    size_t index;
    size_t insert_pass;
  };
  std::vector<size_t> result;          // confirmed skyline members
  result.reserve(ResultReserve(candidates.size()));
  std::vector<Entry> window;
  // window_idx mirrors window's indices contiguously for the block calls.
  std::vector<size_t> window_idx;
  std::vector<uint8_t> evict;
  window.reserve(window_capacity != 0
                     ? std::min(window_capacity, candidates.size())
                     : ResultReserve(candidates.size()));
  window_idx.reserve(window.capacity());
  std::vector<size_t> input(candidates.begin(), candidates.end());
  std::vector<size_t> overflow;
  size_t pass = 0;
  size_t* cmp = stats != nullptr ? &stats->comparisons : nullptr;
  size_t tick = 0;

  while (!input.empty()) {
    overflow.clear();
    for (size_t t : input) {
      if (InterruptedTick(ctx, &tick)) return result;
      // Two phases over the window. They match the classic interleaved
      // compare/evict loop exactly because window entries are mutually
      // non-dominated: if some entry dominates t, then t dominates no
      // entry (transitivity would make that entry dominated inside the
      // window), so the dominated case evicts nothing — and otherwise
      // only the eviction phase runs.
      if (prog.AnyDominates(keys, window_idx.data(), window_idx.size(), t,
                            simd, cmp)) {
        continue;
      }
      evict.resize(window.size());
      prog.DominatesBlock(keys, t, window_idx.data(), window.size(),
                          evict.data(), simd, cmp);
      size_t kept = 0;
      for (size_t w = 0; w < window.size(); ++w) {
        if (evict[w]) continue;
        window[kept] = window[w];
        window_idx[kept] = window_idx[w];
        ++kept;
      }
      window.resize(kept);
      window_idx.resize(kept);
      if (window_capacity == 0 || window.size() < window_capacity) {
        window.push_back({t, pass});
        window_idx.push_back(t);
      } else {
        overflow.push_back(t);
      }
    }
    // End of pass: entries inserted in an *earlier* pass have now been
    // compared against every live tuple (anything they dominate was dropped
    // before reaching the overflow), so they are confirmed skyline members.
    // Emitting them frees window space, which guarantees progress when the
    // window is smaller than the skyline.
    std::vector<Entry> remaining;
    for (const Entry& e : window) {
      if (e.insert_pass < pass) {
        result.push_back(e.index);
      } else {
        remaining.push_back(e);
      }
    }
    window = std::move(remaining);
    window_idx.clear();
    for (const Entry& e : window) window_idx.push_back(e.index);
    input = overflow;
    ++pass;
    if (stats != nullptr) stats->passes = pass;
  }
  for (const Entry& e : window) result.push_back(e.index);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<size_t> SortFilterSkyline(const DominanceProgram& prog,
                                      const KeyStore& keys,
                                      std::span<const size_t> candidates,
                                      SimdVariant simd, QueryContext* ctx,
                                      BmoStats* stats) {
  // Presort by a linear extension of the order: afterwards no tuple can be
  // dominated by a later one, so a single forward pass with an append-only
  // result window is exact.
  std::vector<size_t> sorted(candidates.begin(), candidates.end());
  LexSortInterruptible(sorted, keys, ctx);
  std::vector<size_t> result;
  result.reserve(ResultReserve(candidates.size()));
  size_t* cmp = stats != nullptr ? &stats->comparisons : nullptr;
  size_t tick = 0;
  for (size_t t : sorted) {
    if (InterruptedTick(ctx, &tick)) return result;
    if (!prog.AnyDominates(keys, result.data(), result.size(), t, simd,
                           cmp)) {
      result.push_back(t);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

// The LESS elimination-filter (EF) prepass: a window of a few
// high-dominance tuples drops most dominated tuples in one linear scan —
// the work the external-sort pass 0 does in the original algorithm. The EF
// holds seen tuples with the lowest score volume (sum of leaf scores, a
// cheap proxy for dominance power); dropping anything an EF member
// dominates is sound because EF members are input tuples themselves, so
// every dropped tuple is dominated and can appear in no BMO result.
std::vector<size_t> EliminationFilterScan(const DominanceProgram& prog,
                                          const KeyStore& keys,
                                          std::span<const size_t> candidates,
                                          size_t ef_capacity, SimdVariant simd,
                                          QueryContext* ctx, BmoStats* stats) {
  const size_t L = keys.num_leaves();
  auto volume = [&](size_t t) {
    const double* s = keys.scores(t);
    double sum = 0;
    for (size_t i = 0; i < L; ++i) sum += s[i];
    return sum;
  };

  struct EfEntry {
    size_t index;
    double volume;
  };
  std::vector<EfEntry> ef;
  std::vector<size_t> ef_idx;  // mirrors ef's indices for the block calls
  ef.reserve(std::max<size_t>(1, ef_capacity));
  ef_idx.reserve(ef.capacity());
  size_t* cmp = stats != nullptr ? &stats->comparisons : nullptr;

  std::vector<size_t> survivors;
  survivors.reserve(candidates.size());
  size_t tick = 0;
  for (size_t t : candidates) {
    if (InterruptedTick(ctx, &tick)) return survivors;
    if (prog.AnyDominates(keys, ef_idx.data(), ef_idx.size(), t, simd, cmp)) {
      continue;
    }
    survivors.push_back(t);
    // Admit t when it beats the weakest EF entry by volume (or there is
    // room); the window self-organizes toward the most dominant tuples.
    double v = volume(t);
    if (ef.size() < ef_capacity) {
      ef.push_back({t, v});
      ef_idx.push_back(t);
    } else if (!ef.empty()) {
      size_t weakest = 0;
      for (size_t e = 1; e < ef.size(); ++e) {
        if (ef[e].volume > ef[weakest].volume) weakest = e;
      }
      if (v < ef[weakest].volume) {
        ef[weakest] = {t, v};
        ef_idx[weakest] = t;
      }
    }
  }
  return survivors;
}

// LESS [GSG05]: the EF prepass above, then the SFS sort + filter over the
// survivors, which restores exactness regardless of what the EF window
// dropped.
std::vector<size_t> LessSkyline(const DominanceProgram& prog,
                                const KeyStore& keys,
                                std::span<const size_t> candidates,
                                size_t ef_capacity, SimdVariant simd,
                                QueryContext* ctx, BmoStats* stats) {
  std::vector<size_t> survivors = EliminationFilterScan(
      prog, keys, candidates, ef_capacity, simd, ctx, stats);
  if (ctx != nullptr && ctx->interrupted()) return survivors;
  return SortFilterSkyline(prog, keys, survivors, simd, ctx, stats);
}

}  // namespace

std::vector<size_t> ComputeBmoTopK(const CompiledPreference& pref,
                                   const KeyStore& keys,
                                   std::span<const size_t> candidates,
                                   size_t k, const BmoOptions& options,
                                   BmoStats* stats) {
  const DominanceProgram& prog = pref.program();
  SimdVariant simd = prog.simd_variant();
  if (stats != nullptr) {
    stats->kernel = prog.kernel();
    stats->simd = simd;
  }
  if (k == 0) return {};
  // LESS EF prepass: the presort then runs over the (usually much smaller)
  // survivor set instead of the full input. Dropped tuples are dominated,
  // so the set of maximal tuples — and, because the EF scan preserves
  // relative order, the exact k returned below — is unchanged. The prepass
  // trades O(n * ef_window) extra dominance tests for shrinking the
  // O(n log n) presort to the survivors, so it only runs on inputs large
  // enough for the sort to dominate; below the threshold the progressive
  // filter alone already does fewer dominance tests than a full BMO.
  constexpr size_t kEfMinRows = 4096;
  std::vector<size_t> sorted;
  if (candidates.size() >= kEfMinRows) {
    sorted = EliminationFilterScan(prog, keys, candidates,
                                   std::max<size_t>(1, options.less_window),
                                   simd, options.ctx, stats);
    if (options.ctx != nullptr && options.ctx->interrupted()) return sorted;
  } else {
    sorted.assign(candidates.begin(), candidates.end());
  }
  LexSortInterruptible(sorted, keys, options.ctx);
  std::vector<size_t> result;
  result.reserve(std::min(k, candidates.size()));
  size_t* cmp = stats != nullptr ? &stats->comparisons : nullptr;
  size_t tick = 0;
  for (size_t t : sorted) {
    if (InterruptedTick(options.ctx, &tick)) return result;
    if (!prog.AnyDominates(keys, result.data(), result.size(), t, simd,
                           cmp)) {
      result.push_back(t);
      if (result.size() >= k) break;  // progressive early exit
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

const char* BmoAlgorithmToString(BmoAlgorithm a) {
  switch (a) {
    case BmoAlgorithm::kNaiveNestedLoop:
      return "naive-nested-loop";
    case BmoAlgorithm::kBlockNestedLoop:
      return "block-nested-loop";
    case BmoAlgorithm::kSortFilterSkyline:
      return "sort-filter-skyline";
    case BmoAlgorithm::kLess:
      return "less";
  }
  return "?";
}

Result<BmoAlgorithm> BmoAlgorithmFromString(const std::string& name) {
  if (name == "naive") return BmoAlgorithm::kNaiveNestedLoop;
  if (name == "bnl") return BmoAlgorithm::kBlockNestedLoop;
  if (name == "sfs") return BmoAlgorithm::kSortFilterSkyline;
  if (name == "less") return BmoAlgorithm::kLess;
  return Status::InvalidArgument("unknown BMO algorithm '" + name +
                                 "' (expected naive, bnl, sfs or less)");
}

std::vector<size_t> ComputeBmo(const CompiledPreference& pref,
                               const KeyStore& keys,
                               std::span<const size_t> candidates,
                               const BmoOptions& options, BmoStats* stats) {
  const DominanceProgram& prog = pref.program();
  SimdVariant simd = prog.simd_variant();
  if (stats != nullptr) {
    stats->kernel = prog.kernel();
    stats->simd = simd;
  }
  switch (options.algorithm) {
    case BmoAlgorithm::kNaiveNestedLoop:
      return NaiveNestedLoop(prog, keys, candidates, simd, options.ctx,
                             stats);
    case BmoAlgorithm::kBlockNestedLoop:
      return BlockNestedLoop(prog, keys, candidates, options.bnl_window,
                             simd, options.ctx, stats);
    case BmoAlgorithm::kSortFilterSkyline:
      return SortFilterSkyline(prog, keys, candidates, simd, options.ctx,
                               stats);
    case BmoAlgorithm::kLess:
      return LessSkyline(prog, keys, candidates,
                         std::max<size_t>(1, options.less_window), simd,
                         options.ctx, stats);
  }
  return {};
}

}  // namespace prefsql
