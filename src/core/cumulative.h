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
  /// fill it with BuildFromSortedUncheckedInto. Every accessor requires a
  /// built frame.
  CumulativeFrame() = default;

  /// Builds the base vector and the cumulative vectors of R and T.
  /// Fails when either multiset is empty or holds a non-finite value.
  static Result<CumulativeFrame> Build(const std::vector<double>& r,
                                       const std::vector<double>& t);

  /// The hot path behind Build: rebuilds `out` in place from inputs that
  /// are non-empty, finite and sorted ascending (checked by MOCHE_DCHECK
  /// only), reusing its array capacity. A frame cycled through many
  /// same-sized instances stops allocating once warm; the ExplainWorkspace
  /// pipeline calls this per window so the per-call cost has no redundant
  /// O(n) re-validation of a prepared reference.
  static void BuildFromSortedUncheckedInto(
      const std::vector<double>& r_sorted,
      const std::vector<double>& t_sorted, CumulativeFrame* out);

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
