// The two-sample Kolmogorov-Smirnov test (paper Section 3.1).
//
// The KS statistic is D(R,T) = max_{x in R u T} |F_R(x) - F_T(x)|. The null
// hypothesis ("T is sampled from the same distribution as R") is rejected at
// significance level alpha when D exceeds the threshold
//   p = c_alpha * sqrt((n+m)/(n*m)),  c_alpha = sqrt(-ln(alpha/2)/2).
//
// Ownership & thread-safety: the free functions are pure and thread-safe;
// RemovalKs owns its union grid and is mutable per-caller scratch (not
// thread-safe — each worker builds its own).
//
// NaN/empty-sample conventions (shared with the rest of the tree, see
// docs/ARCHITECTURE.md): the Status-returning entry points reject empty
// samples and non-finite values via ValidateSample (a NaN must never reach
// a sort — strict-weak-ordering UB); the Statistic* primitives assume
// validated input and define the degenerate cases deterministically —
// D = 1 when exactly one sample is empty (location: the smallest value of
// the non-empty sample), D = 0 and location 0.0 when both are.
//
// Tie order: `location` is the first copy of the maximizing grid value in
// sorted R, else in sorted T, so for a run of mixed-sign zeros its sign
// depends on how the run is ordered. Every entry point here that sorts
// uses SortFinite (util/sort.h): -0.0 before +0.0, whatever the input
// order. Callers of the *Sorted primitives that want the same bits sort
// with SortFinite too.

#ifndef MOCHE_KS_KS_TEST_H_
#define MOCHE_KS_KS_TEST_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace moche {

/// Everything a single KS test run reports.
struct KsOutcome {
  double statistic = 0.0;    ///< D(R, T)
  double threshold = 0.0;    ///< p = c_alpha * sqrt((n+m)/(n m))
  bool reject = false;       ///< true iff D > p (the test "fails")
  double location = 0.0;     ///< an x achieving the maximum |F_R - F_T|
  size_t n = 0;              ///< |R|
  size_t m = 0;              ///< |T|
};

namespace ks {

/// Rejects empty samples and samples containing NaN/Inf values; `name` is
/// used in the error message ("reference set", ...).
Status ValidateSample(const std::vector<double>& sample, const char* name);

/// Rejects significance levels outside the domain (0, 2) of c_alpha.
Status ValidateAlpha(double alpha);

/// c_alpha = sqrt(-0.5 * ln(alpha/2)). InvalidArgument unless 0 < alpha < 2
/// (the whole public ks surface reports bad inputs through Status; it never
/// aborts).
Result<double> CriticalValue(double alpha);

/// Kolmogorov tail probability Q_KS(lambda) = 2 sum (-1)^{j-1} e^{-2j^2 l^2}.
///
/// For lambda below the crossover 1.18 the alternating series above loses
/// accuracy (its terms approach 1 and cancel), so the complementary Jacobi
/// theta expansion is used instead:
///   Q = 1 - (sqrt(2 pi)/lambda) * (t + t^9 + t^25),  t = exp(-pi^2/(8 l^2))
/// (the dual form of the same theta function; the dropped t^49 term is
/// < 1e-19 at the crossover). Both expansions agree to ~1e-15 near 1.18.
/// Returns 1.0 for lambda <= 0.
double KolmogorovQ(double lambda);

/// Asymptotic two-sample p-value for an observed statistic d:
/// Q_KS(sqrt(nm/(n+m)) * d). Rejecting when p < alpha agrees with the
/// paper's D > Threshold(alpha, n, m) rule up to the higher-order series
/// terms the one-term critical value drops (differences < ~1e-4).
/// InvalidArgument when n or m is zero.
Result<double> PValueAsymptotic(double d, size_t n, size_t m);

/// The rejection threshold p = c_alpha * sqrt((n+m)/(n*m)).
/// InvalidArgument when alpha is outside (0, 2) or n or m is zero.
Result<double> Threshold(double alpha, size_t n, size_t m);

namespace internal {

/// Precondition-based fast paths for hot loops that already validated their
/// inputs (ValidateAlpha / non-empty samples). Preconditions are checked
/// with MOCHE_DCHECK only; release builds compute garbage on bad input.
double CriticalValueUnchecked(double alpha);
double ThresholdUnchecked(double alpha, size_t n, size_t m);

/// RunSorted past its validation: both samples sorted ascending, non-empty
/// and finite, alpha in (0, 2). Allocates nothing.
KsOutcome RunSortedUnchecked(const std::vector<double>& r_sorted,
                             const std::vector<double>& t_sorted, double alpha);

}  // namespace internal

/// D(R,T) for samples that are already sorted ascending, by one merge over
/// the whole union grid: the reference form StatisticAnchored is held to.
/// Returns 1.0 if exactly one sample is empty; 0.0 if both are. `location`
/// (when non-null) is always written: the maximizing x, or 0.0 when both
/// samples are empty and no x exists.
double StatisticSorted(const std::vector<double>& r_sorted,
                       const std::vector<double>& t_sorted,
                       double* location = nullptr);

/// As StatisticSorted, bit-identical statistic and location, but walks
/// only the test-anchored grid points of ks/anchors.h: each distinct test
/// value and the last reference value before it. Galloping through R from
/// one anchor to the next costs O(d_T log n) for d_T distinct test values
/// (merge-level when n ~ m) and allocates nothing, so a small window
/// tested against a large sorted reference does not pay for the whole
/// reference. Same degenerate conventions as StatisticSorted.
double StatisticAnchored(const std::vector<double>& r_sorted,
                         const std::vector<double>& t_sorted,
                         double* location = nullptr);

/// D(R,T) for samples in arbitrary order (sorts copies with SortFinite).
/// Returns NaN (and location 0.0) if either sample contains NaN — a NaN
/// observation has no rank, and sorting it would be UB, not a statistic.
double Statistic(std::vector<double> r, std::vector<double> t,
                 double* location = nullptr);

/// Runs the full three-step test. Fails with InvalidArgument when either
/// sample is empty, contains a non-finite value, or alpha is outside
/// (0, 2); inputs are validated before anything is sorted.
Result<KsOutcome> Run(std::vector<double> r, std::vector<double> t,
                      double alpha);

/// As Run, but for pre-sorted inputs (no copies, no sorting). The
/// statistic comes from StatisticAnchored, so past the O(n + m) validation
/// scan the test costs O(d_T log n).
Result<KsOutcome> RunSorted(const std::vector<double>& r_sorted,
                            const std::vector<double>& t_sorted, double alpha);

}  // namespace ks

/// Re-tests R against T \ S for evolving removal sets S without re-sorting.
///
/// Construction is O((n+m) log(n+m)); each RemoveValue and each
/// CurrentOutcome is O(q) or better, where q is the number of unique values
/// in R u T. This is the workhorse of the greedy-style baselines, which
/// repeatedly grow a removal set and re-run the test.
class RemovalKs {
 public:
  /// Builds the union grid from (unsorted) samples. R must be non-empty and
  /// alpha must satisfy ks::ValidateAlpha — validate before constructing
  /// (the greedy baselines do); violations are caught by MOCHE_DCHECK in
  /// debug builds only.
  RemovalKs(const std::vector<double>& r, const std::vector<double>& t,
            double alpha);

  /// Marks one occurrence of `value` in T as removed.
  /// Returns InvalidArgument if all occurrences are already removed or the
  /// value does not occur in T.
  Status RemoveValue(double value);

  /// Undoes one RemoveValue of `value`.
  Status UnremoveValue(double value);

  /// Clears the removal set.
  void Reset();

  /// KS outcome of R vs T \ S for the current removal set S.
  ///
  /// When the removal set has consumed all of T (|T \ S| = 0), the outcome
  /// is the degenerate one-empty-sample convention of StatisticSorted:
  /// D = 1, reject = true, threshold = 0 (the threshold formula diverges at
  /// m = 0), location = the smallest reference value (where |F_R - F_empty|
  /// first reaches 1). Greedy callers that strip the whole test set
  /// therefore see a well-defined "still failing" result instead of a
  /// crash.
  KsOutcome CurrentOutcome() const;

  /// True iff R and T \ S pass the test at the configured alpha. False when
  /// the whole test set has been removed (see CurrentOutcome).
  bool Passes() const;

  size_t num_removed() const { return removed_total_; }
  size_t n() const { return n_; }
  size_t m() const { return m_; }
  double alpha() const { return alpha_; }

  /// The remaining test multiset T \ S (ascending).
  std::vector<double> RemainingTest() const;

 private:
  double alpha_;
  size_t n_ = 0;
  size_t m_ = 0;
  std::vector<double> values_;       // unique values of R u T, ascending
  std::vector<int64_t> count_r_;     // multiplicity of values_[i] in R
  std::vector<int64_t> count_t_;     // multiplicity of values_[i] in T
  std::vector<double> cum_r_d_;      // prefix sums of count_r_, as double
  std::vector<int64_t> removed_;     // multiplicity removed from T
  size_t removed_total_ = 0;
};

}  // namespace moche

#endif  // MOCHE_KS_KS_TEST_H_
