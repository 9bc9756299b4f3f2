// Phase 2 of MOCHE: Algorithm 1 — constructing the most comprehensible
// explanation by one scan of the test set in preference order, keeping each
// point iff the grown set is still a partial explanation (Theorem 3).
//
// Ownership & thread-safety: free functions only. They borrow the caller's
// BoundsEngine and write into caller-owned output/scratch; nothing is
// shared behind the caller's back, so concurrent calls are safe as long as
// each thread passes its own scratch (core/workspace.h).

#ifndef MOCHE_CORE_BUILDER_H_
#define MOCHE_CORE_BUILDER_H_

#include <vector>

#include "core/bounds.h"
#include "core/explanation.h"
#include "core/partial.h"
#include "core/preference.h"
#include "util/status.h"

namespace moche {

/// Counters for the construction scan (MocheReport::build_stats).
struct BuildStats {
  size_t candidates_checked = 0;  ///< Theorem 3 evaluations performed
  /// Checker work: tree nodes visited by the closed-form checks and the
  /// accepts, plus steps of the full recursion when it is selected.
  size_t recursion_steps = 0;
};

/// Runs Algorithm 1. `test` is the instance's test set in original order;
/// `pref` the preference list; `k` the size found by phase 1.
/// Each Theorem 3 evaluation is the O(log m) closed form; with
/// `incremental_check` false it is the paper-faithful full O(q) recursion.
/// Returns the explanation as indices into `test`, listed in `pref` order.
/// Checks its inputs first: `pref` must be a permutation of [0, m), and
/// every test value must occur in the engine's frame, including those past
/// the point where the scan stops.
Result<Explanation> BuildMostComprehensible(const BoundsEngine& engine,
                                            size_t k,
                                            const std::vector<double>& test,
                                            const PreferenceList& pref,
                                            bool incremental_check = true,
                                            BuildStats* stats = nullptr);

/// Caller-owned scratch for the construction scan. Members are rebuilt in
/// place on every call (internal state, do not interpret); reusing one
/// BuildScratch across calls is what makes the warm scan allocation-free.
/// ExplainWorkspace embeds one.
struct BuildScratch {
  PartialExplanationChecker checker;     // Theorem-3 state of the scan
  std::vector<unsigned char> pref_seen;  // ValidatePreference's marks

  size_t FootprintBytes() const {
    return checker.FootprintBytes() + pref_seen.capacity();
  }
};

namespace internal {

/// The workspace hot path behind BuildMostComprehensible: borrows
/// caller-owned scratch so a warm caller runs the scan without heap
/// allocation, and writes the explanation into `out` (cleared first,
/// capacity reused). `stats`, when non-null, is overwritten — not
/// accumulated into. Two PRECONDITIONS replace the public entry's checks:
///  * the caller has run ValidatePreference(pref, test.size()) already
///    (Moche's explain pipeline validates once at its entry);
///  * `test` is the multiset the engine's frame was built from, so every
///    value is in the base vector. The scan maps a candidate to its base
///    index only when it reaches it, and it usually stops after a small
///    prefix of `pref`; a foreign value past that point goes unnoticed.
/// Mirrors the ks::internal::*Unchecked pattern.
Status BuildMostComprehensiblePrevalidated(
    const BoundsEngine& engine, size_t k, const std::vector<double>& test,
    const PreferenceList& pref, bool incremental_check, BuildStats* stats,
    BuildScratch* scratch, Explanation* out);

}  // namespace internal

}  // namespace moche

#endif  // MOCHE_CORE_BUILDER_H_
