// Compiled dominance programs: the PrefNode constructor tree flattened into
// a small array of opcodes evaluated iteratively, so the BMO hot loop
// (O(n²) dominance tests, §3.2) runs without per-leaf virtual dispatch or
// recursion through the tree.
//
// An op is one node of the (same-kind-flattened) tree in pre-order; each op
// records `end`, the index one past its subtree, which lets the combinators
// short-circuit — a Prioritized node jumps past its remaining children on
// the first non-equivalent component, a Pareto node on the first
// incomparable one.
//
// Two packed kernels specialize the common shapes over the KeyStore's
// contiguous score rows:
//   * kPackedPareto — the preference is a Pareto accumulation of weak-order
//     leaves (the classic skyline case): compare two score slices with a
//     branch-light flag loop.
//   * kPackedLex    — a prioritization of weak-order leaves: first differing
//     score decides.
// Everything else (EXPLICIT partial orders, nested mixes, INTERSECT) runs
// the generic iterative evaluator. The recursive
// CompiledPreference::Compare stays untouched as the parity oracle.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "preference/key_store.h"
#include "preference/preference.h"

namespace prefsql {

struct PrefNode;
struct PrefLeaf;

/// Which comparison kernel a compiled program dispatches to.
enum class DominanceKernel : uint8_t {
  kGeneric,       ///< iterative opcode evaluator (any preference shape)
  kPackedPareto,  ///< all-weak-order Pareto: flat score-slice comparison
  kPackedLex,     ///< all-weak-order prioritization: lexicographic scores
};

const char* DominanceKernelToString(DominanceKernel k);

/// How the block-oriented dominance API (AnyDominates / DominatesBlock)
/// walks a group of KeyStore rows. The generic opcode kernel always runs
/// row-at-a-time; the packed kernels additionally support a portable 4-wide
/// unrolled form and, on x86-64 hosts with AVX2, a vectorized form
/// comparing four rows per instruction with movemask accumulators.
enum class SimdVariant : uint8_t {
  kScalar,     ///< one row at a time (also the generic kernel's only form)
  kUnrolled4,  ///< portable 4-wide unrolled blocks (any host)
  kAvx2,       ///< AVX2 256-bit blocks (x86-64 only, runtime-detected)
};

const char* SimdVariantToString(SimdVariant v);

/// The widest variant this build/host supports, honoring the
/// `PREFSQL_SIMD` environment override (`scalar`/`off`, `unrolled4`,
/// `avx2`; an unsupported request clamps down). Detected once per process.
SimdVariant DispatchedSimdVariant();

/// EXPLAIN/bench name of a (kernel, variant) pair: the packed kernels get
/// a variant suffix ("packed-pareto-avx2"), the generic kernel does not.
std::string DominanceKernelVariantName(DominanceKernel k, SimdVariant v);

/// One opcode of a compiled dominance program.
struct DomOp {
  enum class Kind : uint8_t {
    kLeafWeak,     ///< weak-order leaf: compare scores directly
    kLeafGeneral,  ///< leaf with an overriding Compare (EXPLICIT DAGs)
    kPareto,
    kPrioritized,
    kIntersect,
  };
  Kind kind = Kind::kLeafWeak;
  uint32_t slot = 0;  ///< leaf slot (leaves only)
  uint32_t end = 0;   ///< one past this op's subtree in the program
  const BasePreference* pref = nullptr;  ///< kLeafGeneral only (not owned)
};

class DominanceProgram {
 public:
  DominanceProgram() = default;

  /// Flattens the constructor tree into opcodes and picks the kernel. The
  /// emitted `pref` pointers alias the BasePreference objects owned by
  /// `leaves`; the program must not outlive its CompiledPreference.
  static DominanceProgram Compile(const PrefNode& root,
                                  const std::vector<PrefLeaf>& leaves);

  DominanceKernel kernel() const { return kernel_; }
  /// The block-walk variant this program runs with: the dispatched one for
  /// the packed kernels, scalar for the generic kernel.
  SimdVariant simd_variant() const {
    return kernel_ == DominanceKernel::kGeneric ? SimdVariant::kScalar
                                                : DispatchedSimdVariant();
  }
  size_t num_ops() const { return ops_.size(); }

  /// Compares tuples `a` and `b` of `keys` under the full preference.
  Rel Compare(const KeyStore& keys, size_t a, size_t b) const {
    return Compare(keys.scores(a), keys.ids(a), keys.scores(b), keys.ids(b));
  }

  /// True iff `a` strictly dominates `b`.
  bool Dominates(const KeyStore& keys, size_t a, size_t b) const {
    const double* sa = keys.scores(a);
    const double* sb = keys.scores(b);
    if (kernel_ == DominanceKernel::kPackedPareto) {
      bool strict = false;
      for (size_t i = 0; i < num_leaves_; ++i) {
        if (sa[i] > sb[i]) return false;
        strict |= sa[i] < sb[i];
      }
      return strict;
    }
    return Compare(sa, keys.ids(a), sb, keys.ids(b)) == Rel::kBetter;
  }

  /// Raw-slice comparison (slices must hold one score/id per leaf).
  Rel Compare(const double* sa, const int32_t* ia, const double* sb,
              const int32_t* ib) const;

  // -- Block-oriented dominance API ---------------------------------------
  // The BMO inner loops test one tuple against a set of rows (a window, a
  // growing result, an elimination filter). These entry points take the
  // whole row set at once so the packed kernels can stream 4 rows per
  // iteration (unrolled or AVX2); the generic kernel falls back to the
  // scalar loop regardless of `variant`. `comparisons`, when non-null, is
  // incremented by the number of row tests actually performed (blocks
  // count every lane of a visited group).

  /// True iff any rows[i] (i < count) strictly dominates `target`. A row
  /// equal to `target` (including target itself) never counts — equal keys
  /// are not strict dominance — so callers may pass unfiltered row sets.
  bool AnyDominates(const KeyStore& keys, const size_t* rows, size_t count,
                    size_t target, SimdVariant variant,
                    size_t* comparisons) const;

  /// Sets out_dominated[i] = 1 iff `candidate` strictly dominates rows[i],
  /// 0 otherwise (i < count).
  void DominatesBlock(const KeyStore& keys, size_t candidate,
                      const size_t* rows, size_t count,
                      uint8_t* out_dominated, SimdVariant variant,
                      size_t* comparisons) const;

 private:
  Rel GenericCompare(const double* sa, const int32_t* ia, const double* sb,
                     const int32_t* ib) const;

  std::vector<DomOp> ops_;
  size_t num_leaves_ = 0;
  size_t max_depth_ = 0;  ///< composite nesting depth (frame stack bound)
  DominanceKernel kernel_ = DominanceKernel::kGeneric;
};

}  // namespace prefsql
