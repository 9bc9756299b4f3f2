// Phase 2 primitive: deciding whether S u {x_v} is a partial explanation
// (Lemma 2 + Theorem 3).
//
// Fix the explanation size k and the Equation-4 bounds l = l^k, u = u^k.
// For an accepted multiset S with prefix counts P_i = C_S[i] (P_0 = 0), the
// paper tightens the upper bounds by the backward recursion
//   ubar_q = u_q,   ubar_{i-1} = min(u_{i-1}, ubar_i - (P_i - P_{i-1})),
// and Theorem 3 says S extends to some size-k explanation iff
// l_i <= ubar_i for every i in [0, q].
//
// Closed form. Unrolled, the recursion is
//   ubar_i = min_{j >= i} (u_j - (P_j - P_i)),
// so S is feasible iff A_i <= B_j for every i <= j, with A_i = l_i - P_i and
// B_j = u_j - P_j. Adding one occurrence of x_v raises P_j by one for every
// j >= v, which changes only the pairs i < v <= j. So for a feasible S,
// S u {x_v} is feasible iff T still holds a free copy of x_v and
//   max_{i < v} A_i  <=  min_{j >= v} B_j - 1.
//
// Run compression. P steps only at base indices that hold a T value, and
// every candidate is such an index. Let t_1 < ... < t_r (r <= m) be those
// indices and cut [0, q] into r + 1 runs: run 0 = [0, t_1) and
// run b = [t_b, t_{b+1}), with t_{r+1} = q + 1. P is constant on a run, so
// a run is summarised by its max l and its min u, and both queries above
// become a prefix max over runs 0..b-1 and a suffix min over runs b..r,
// where b is the run that starts at v.
//
// Cost. A perfect binary tree over the runs keeps, per node, max A and
// min B of its subtree plus the pending add applied to all of it. One
// bottom-up walk from leaf b answers both queries, and Accept is one suffix
// add of -1 along the same path: O(log m) each, against O(q) for the
// recursion. Reset is one O(q) pass that computes the bounds, a base-index
// -> run map and the leaves. CandidateFeasibleFull keeps the paper's O(q)
// recursion as the ablation (MocheOptions::incremental_partial_check) and
// the test oracle.
//
// Width. Once Reset has found the empty set feasible, every l and u lies
// in [0, k] (Equation 4 clamps l >= 0 and u <= k, and l_0 = u_0 = 0), so A
// and B stay in [-k, k]. The tree, the counts and the run map are 32-bit
// to keep the checker's memory (and a cold call's page faults) small; Reset
// returns OutOfRange when q reaches 2^29, below which every value and the
// padding sentinels fit with room to spare.
//
// Ownership & thread-safety: a PartialExplanationChecker borrows the
// caller's BoundsEngine state and owns its bounds, run map and tree, which
// every Accept mutates — per-thread ownership only, like every workspace
// type (core/workspace.h); concurrent use of one checker is a data race.

#ifndef MOCHE_CORE_PARTIAL_H_
#define MOCHE_CORE_PARTIAL_H_

#include <cstdint>
#include <vector>

#include "core/bounds.h"
#include "core/cumulative.h"
#include "util/status.h"

namespace moche {

class PartialExplanationChecker {
 public:
  /// An unbound checker: call Reset before any query. Exists so a reusable
  /// workspace can carry one checker — and its arrays' capacity — across
  /// many instances.
  PartialExplanationChecker() = default;

  /// Rebinds the checker to (engine, k) and clears the accepted set,
  /// rebuilding all cached state in place (assign-style, so a warm checker
  /// allocates nothing). InvalidArgument unless 0 < k < m; Internal unless
  /// a qualified k-subset exists (i.e. k came from phase 1); OutOfRange for
  /// a frame of 2^29 or more base values. The frame and engine must outlive
  /// the checker's use.
  Status Reset(const BoundsEngine& engine, size_t k);

  /// Heap bytes retained by the checker's arrays (capacity-based; see
  /// CumulativeFrame::FootprintBytes): the bounds and the run map, 20 bytes
  /// per base value, plus O(m) for the runs and the tree.
  size_t FootprintBytes() const {
    return (lk_.capacity() + uk_.capacity()) * sizeof(int64_t) +
           run_of_.capacity() * sizeof(uint32_t) +
           (counts_.capacity() + add_.capacity()) * sizeof(int32_t) +
           nodes_.capacity() * sizeof(Node);
  }

  /// True iff (accepted multiset) u {x_v} is a partial explanation.
  /// v is the 1-based base-vector index of the candidate value.
  /// Closed-form O(log m) check; does not modify the accepted set.
  bool CandidateFeasible(size_t v);

  /// Paper-faithful full O(q) recursion; same answer as CandidateFeasible.
  /// Does not modify the accepted set.
  bool CandidateFeasibleFull(size_t v);

  /// Commits x_v into the accepted multiset. The candidate must be feasible
  /// (re-checked; a violation aborts).
  void Accept(size_t v);

  /// Number of accepted points so far.
  size_t accepted_count() const { return accepted_count_; }

  size_t k() const { return k_; }

  /// Work counter for the ablation bench: tree nodes visited by the closed
  /// form and by Accept, plus steps of the full recursion (~q per
  /// candidate).
  size_t steps() const { return steps_; }

 private:
  // One tree node: max A and min B over its subtree, including the pending
  // adds of the node and its descendants but not those of its ancestors.
  struct Node {
    int32_t max_a;
    int32_t min_b;
  };

  // The closed-form query for run b >= 1 (see the header comment).
  bool RunFeasible(size_t b);

  // A pointer, not a reference, so Reset can rebind a reused checker. Null
  // only in the unbound default-constructed state.
  const CumulativeFrame* frame_ = nullptr;
  size_t k_ = 0;
  std::vector<int64_t> lk_;       // l^k, length q+1
  std::vector<int64_t> uk_;       // u^k, length q+1
  std::vector<uint32_t> run_of_;  // run of each base index 0..q
  std::vector<int32_t> counts_;   // accepted multiplicity of each run's value
  std::vector<Node> nodes_;       // heap order: root 1, leaves from leaves_
  std::vector<int32_t> add_;      // pending add of each internal node
  size_t leaves_ = 0;             // power of two >= number of runs
  size_t accepted_count_ = 0;
  size_t steps_ = 0;
};

}  // namespace moche

#endif  // MOCHE_CORE_PARTIAL_H_
