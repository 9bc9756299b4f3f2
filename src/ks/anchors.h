// The test-anchored walk over a sorted reference: the few points of the
// union grid R u T at which the KS statistic and the MOCHE bounds can be
// decided.
//
// Between two consecutive distinct test values t_k < t_{k+1}, F_T is fixed
// at C_T/m while F_R climbs through the reference values in (t_k, t_{k+1}).
// The rounded difference fl(C_R/n) - fl(C_T/m) is strictly increasing in
// C_R (distinct counts below 2^52 divide to distinct doubles), so
// |F_R - F_T| over the segment [t_k, t_{k+1}) peaks only at its ends: at
// t_k itself or at the last reference value before t_{k+1}. The same holds
// before the first test value (F_T = 0) and after the last (F_T = 1). Those
// points are the anchors. There are at most 2 d_T + 2 of them, d_T the
// number of distinct test values, and ForEachAnchor finds them with one
// galloping search per anchor from the previous position: O(d_T log n)
// against a reference of n points, and merge-level cost when n ~ m.
//
// Each anchor is reported as (x, C_R(x), C_T(x)), ascending in x, with x
// bit for bit the grid value the full merge in ks::StatisticSorted and
// CumulativeFrame::BuildFromSortedUncheckedInto would see there (the first
// copy of its value in R, else in T — only -0.0 and +0.0 can tell).
// Besides the segment ends, the walk reports the first value of the
// reference run before the first test value (CumulativeFrame needs its
// Gamma for the Lemma-1 prefix maximum; to the KS fold it is harmless, as
// |F_R - F_T| only grows along that run) and the last reference value
// (where |F_R - F_T| = 0).
//
// Header-only so the KS fold (ks_test.cc) and the frame builder
// (core/cumulative.cc) inline their visitors into the one walk.
//
// Ownership & thread-safety: free functions over caller-owned, read-only
// samples; they hold no state, so any number of threads may walk the same
// reference at once.

#ifndef MOCHE_KS_ANCHORS_H_
#define MOCHE_KS_ANCHORS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace moche {
namespace ks {
namespace internal {

/// The first index k >= from with !before(v[k]), where `before` holds on a
/// prefix of v: an exponential probe from `from`, then a binary search of
/// the last doubling. O(log(k - from)); O(1) when v[from] already fails.
template <typename Before>
size_t GallopPast(const std::vector<double>& v, size_t from, Before before) {
  const size_t size = v.size();
  if (from >= size || !before(v[from])) return from;
  size_t known = from;  // before(v[known]) holds
  size_t step = 1;
  while (known + step < size && before(v[known + step])) {
    known += step;
    step *= 2;
  }
  const size_t end = std::min(known + step, size);
  return static_cast<size_t>(
      std::partition_point(v.begin() + known + 1, v.begin() + end, before) -
      v.begin());
}

/// The grid value of the reference run that ends at r[end - 1] (r[begin,
/// end) all below the next anchor): the run's first copy, which differs in
/// its bits from r[end - 1] only for a run of mixed-sign zeros.
inline double RunValue(const std::vector<double>& r, size_t begin,
                       size_t end) {
  const double last = r[end - 1];
  if (last != 0.0) return last;
  return *std::lower_bound(r.begin() + begin, r.begin() + end, 0.0);
}

/// Calls visit(x, C_R(x), C_T(x)) for every anchor of the sorted,
/// non-empty samples r and t, ascending in x (see the header comment).
template <typename Visit>
void ForEachAnchor(const std::vector<double>& r, const std::vector<double>& t,
                   Visit&& visit) {
  const size_t n = r.size();
  const size_t m = t.size();
  size_t i = 0;  // reference values at or below the previous test value
  size_t j = 0;  // test values at or below the previous test value
  while (j < m) {
    const double x = t[j];
    const size_t below =
        GallopPast(r, i, [x](double v) { return v < x; });
    if (below > i) {
      if (j == 0) {
        const double first = r[0];
        const size_t first_end =
            GallopPast(r, 0, [first](double v) { return v <= first; });
        if (first_end < below) visit(first, first_end, size_t{0});
      }
      visit(RunValue(r, i, below), below, j);
    }
    const size_t upto = GallopPast(r, below, [x](double v) { return v <= x; });
    size_t next = j + 1;
    while (next < m && t[next] == x) ++next;
    visit(upto > below ? r[below] : x, upto, next);
    i = upto;
    j = next;
  }
  if (i < n) visit(RunValue(r, i, n), n, m);
}

}  // namespace internal
}  // namespace ks
}  // namespace moche

#endif  // MOCHE_KS_ANCHORS_H_
