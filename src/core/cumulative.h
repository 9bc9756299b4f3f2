// Cumulative vectors (paper Definition 3).
//
// The base vector V = <x_1, ..., x_q> holds the unique values of R u T in
// ascending order. The cumulative vector of a multiset S <= T is the
// (q+1)-vector C_S with C_S[0] = 0 and C_S[i] = |{x in S : x <= x_i}|.
// A CumulativeFrame precomputes C_R and C_T once per instance; every MOCHE
// phase works on top of it.
//
// Indexing convention: this class mirrors the paper's 1-based indices —
// CR(i)/CT(i) accept i in [0, q] with CR(0) = CT(0) = 0, and base value x_i
// is Value(i) for i in [1, q].
//
// Anchored frames. Build and BuildFromSortedUncheckedInto keep the paper's
// full base vector, q = |unique(R u T)| <= n + m. BuildAnchoredInto keeps
// only the test-anchored coordinates of ks/anchors.h: every distinct test
// value, the last reference value of each reference-only run, the first
// value of the run before the first test value and the last reference
// value, so q <= min(n + m, 2 d_T + 2) for d_T distinct test values, and
// n() stays |R|. Every Theorem 1, 2 and 3 decision on it equals the full
// frame's:
//  * Inside a reference-only run C_T is fixed and C_R grows, and the
//    computed Gamma = C_T - scale * C_R (scale = (m-h)/n > 0, rounded once)
//    is non-increasing in C_R: the rounded product is monotone in C_R and
//    the rounded difference monotone in it. A run that follows a test value
//    starts no higher than that value's Gamma, and the run before the
//    first test value peaks at its first coordinate, so the prefix maximum
//    M(i,h) — and with it the Lemma-1 lower bound l_i^h — is the same at
//    every kept coordinate and constant across each run.
//  * The upper bound u_i^h = min(FloorTol(Gamma + Omega), C_T, h) is
//    tightest at a run's last coordinate: Gamma + Omega rounds monotonically
//    and FloorTol is monotone (CeilTol too; tests/core/bounds_test.cc walks
//    both across nextafter neighbours around integers, +-0 and +-2^31).
//    So a run fails Theorem 1 somewhere iff it fails at its last
//    coordinate, the phase-2 checker's per-run max l and min u are
//    unchanged, and so are Equation 5a and 5b.
//  * Equation 5c's slack b + TolFor(Gamma) is NOT monotone across nextafter
//    neighbours of Gamma: for Gamma < 0, TolFor grows as Gamma falls, and a
//    rounding tie in the sum can lift it one ulp while b stays put (the
//    bounds test pins such a pair). Across a run it still is: two of a
//    run's coordinates differ in C_R by at least 1, so in Gamma by about
//    scale >= 1/n or more, and that outweighs every rounding in the slack
//    (about 8 units of roundoff of m + Omega) while
//    n (m + Omega(0) + 1) < 2^49. AnchoredIsExact checks that bound;
//    beyond it a caller keeps the full frame.
// Each test value keeps its coordinate, so IndexOfValue finds every test
// value, but an anchored frame's VectorToSubset and CumulativeOf only
// see its kept coordinates.
//
// Ownership & thread-safety: a CumulativeFrame owns its vectors and is
// immutable after Build, so concurrent readers need no synchronization;
// builders hand ownership to the caller by value.

#ifndef MOCHE_CORE_CUMULATIVE_H_
#define MOCHE_CORE_CUMULATIVE_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace moche {

class CumulativeFrame {
 public:
  /// An empty frame (q = n = m = 0), the state a reusable frame starts in;
  /// fill it with BuildAnchoredInto or BuildFromSortedUncheckedInto. Every
  /// accessor requires a built frame.
  CumulativeFrame() = default;

  /// Builds the base vector and the cumulative vectors of R and T.
  /// Fails when either multiset is empty or holds a non-finite value.
  static Result<CumulativeFrame> Build(const std::vector<double>& r,
                                       const std::vector<double>& t);

  /// The full-frame merge behind Build: rebuilds `out` in place from
  /// inputs that are non-empty, finite and sorted ascending (checked by
  /// MOCHE_DCHECK only), reusing its array capacity. O(n + m).
  static void BuildFromSortedUncheckedInto(
      const std::vector<double>& r_sorted,
      const std::vector<double>& t_sorted, CumulativeFrame* out);

  /// The explain pipeline's frame: as BuildFromSortedUncheckedInto, same
  /// preconditions, but keeps only the anchored coordinates (see the header
  /// comment). O(d_T log n) galloping plus O(m), and O(m) memory, so a
  /// window explained against a large prepared reference costs nothing
  /// that grows with the reference; a warm frame allocates nothing.
  static void BuildAnchoredInto(const std::vector<double>& r_sorted,
                                const std::vector<double>& t_sorted,
                                CumulativeFrame* out);

  /// True when an anchored frame of a size-m test set against a size-n
  /// reference decides every Theorem 1/2/3 question as the full frame does
  /// at critical value c_alpha: n (m + Omega(0) + 1) < 2^49 (see the header
  /// comment). False only for very large instances, e.g. a window of
  /// 2^20 values against 2^29 reference values (4 GiB).
  static bool AnchoredIsExact(size_t n, size_t m, double c_alpha);

  /// Heap bytes retained by the frame's arrays (capacity, not size) — the
  /// workspace-footprint accounting the stream monitor reports.
  size_t FootprintBytes() const {
    return values_.capacity() * sizeof(double) +
           (cum_r_.capacity() + cum_t_.capacity()) * sizeof(int64_t);
  }

  size_t q() const { return values_.size(); }
  size_t n() const { return n_; }
  size_t m() const { return m_; }

  /// x_i for i in [1, q].
  double Value(size_t i) const { return values_[i - 1]; }

  /// C_R[i] for i in [0, q].
  int64_t CR(size_t i) const { return cum_r_[i]; }

  /// C_T[i] for i in [0, q].
  int64_t CT(size_t i) const { return cum_t_[i]; }

  /// Multiplicity of x_i in T: C_T[i] - C_T[i-1], i in [1, q].
  int64_t CountT(size_t i) const { return cum_t_[i] - cum_t_[i - 1]; }

  /// 1-based index of `value` in the base vector, or NotFound.
  Result<size_t> IndexOfValue(double value) const;

  /// The cumulative vector C_S (length q+1) of a multiset S (values must all
  /// occur in the base vector; multiplicities are NOT checked against T).
  /// No production path calls it: it stays as the reference form of the
  /// paper's Example 3 that the paper-example tests check against.
  Result<std::vector<int64_t>> CumulativeOf(
      const std::vector<double>& subset) const;

 private:
  size_t n_ = 0;
  size_t m_ = 0;
  std::vector<double> values_;   // x_1..x_q, ascending
  std::vector<int64_t> cum_r_;   // length q+1, cum_r_[0] = 0
  std::vector<int64_t> cum_t_;   // length q+1, cum_t_[0] = 0
};

}  // namespace moche

#endif  // MOCHE_CORE_CUMULATIVE_H_
