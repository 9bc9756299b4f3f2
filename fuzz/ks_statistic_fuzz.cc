// Differential oracle: ks::Statistic / StatisticSorted /
// StatisticAnchored against a naive double-loop ECDF reference.
//
// The reference recomputes D(R,T) the textbook way — for every grid value
// x, count r <= x and t <= x with two linear scans and take
// max |cnt_r/n - cnt_t/m| with the first-strict-max location tie-break.
// The divisions are the same IEEE operations in the same order the library
// sweep performs, and a max over the same multiset of finite doubles is
// order-insensitive, so agreement is required BIT-EXACTLY (memcmp), not
// within a tolerance. Any last-ulp divergence here would break the SIMD
// bit-identity contract one layer up.
//
// A last leg holds SortFinite, the sort behind every KS outcome, to
// std::sort with a canonical comparator (ascending, -0.0 before +0.0) on
// both its paths. It draws no bytes: its sample is R, T and every midpoint
// r/2 + t/2, so n * m past kRadixSortMinSize takes the radix path and the
// committed corpus replays unchanged.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "fuzz_target.h"
#include "ks/ks_test.h"
#include "provider.h"
#include "util/sort.h"

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// SortFinite in place and through a scratch buffer against std::sort with
// a canonical comparator: bit-equal outputs, a permutation of the input,
// non-decreasing in SortKey.
void CheckSortFinite(const std::vector<double>& input) {
  std::vector<double> expected = input;
  std::sort(expected.begin(), expected.end(), [](double a, double b) {
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
  });
  std::vector<double> in_place = input;
  moche::SortFinite(&in_place);
  std::vector<double> lent = input;
  std::vector<double> scratch;
  moche::SortFinite(&lent, &scratch);
  for (size_t i = 0; i < input.size(); ++i) {
    MOCHE_FUZZ_CHECK(SameBits(in_place[i], expected[i]) &&
                         SameBits(lent[i], expected[i]),
                     "SortFinite index %zu of %zu: %.17g / %.17g, want %.17g",
                     i, input.size(), in_place[i], lent[i], expected[i]);
    MOCHE_FUZZ_CHECK(i == 0 || moche::SortKey(lent[i - 1]) <=
                                   moche::SortKey(lent[i]),
                     "SortFinite not ascending in SortKey at index %zu", i);
  }
  std::vector<uint64_t> bits_in(input.size());
  std::vector<uint64_t> bits_out(input.size());
  std::transform(input.begin(), input.end(), bits_in.begin(), BitsOf);
  std::transform(lent.begin(), lent.end(), bits_out.begin(), BitsOf);
  std::sort(bits_in.begin(), bits_in.end());
  std::sort(bits_out.begin(), bits_out.end());
  MOCHE_FUZZ_CHECK(bits_in == bits_out,
                   "SortFinite output is not a permutation of its input");
}

// Textbook D(R,T) over the sorted union grid; mirrors the documented
// degenerate conventions (D = 1 with one empty sample, D = 0, location 0.0
// with two).
double NaiveStatistic(const std::vector<double>& r,
                      const std::vector<double>& t, double* location) {
  *location = 0.0;
  if (r.empty() && t.empty()) return 0.0;
  if (r.empty() || t.empty()) {
    const std::vector<double>& s = r.empty() ? t : r;
    *location = *std::min_element(s.begin(), s.end());
    return 1.0;
  }
  std::vector<double> grid;
  grid.reserve(r.size() + t.size());
  grid.insert(grid.end(), r.begin(), r.end());
  grid.insert(grid.end(), t.begin(), t.end());
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  const double n = static_cast<double>(r.size());
  const double m = static_cast<double>(t.size());
  double best = 0.0;
  // The library's D == 0 sentinel is the smallest reference value.
  *location = *std::min_element(r.begin(), r.end());
  for (double x : grid) {
    double cnt_r = 0.0;
    double cnt_t = 0.0;
    for (double v : r) cnt_r += (v <= x) ? 1.0 : 0.0;
    for (double v : t) cnt_t += (v <= x) ? 1.0 : 0.0;
    const double d = std::fabs(cnt_r / n - cnt_t / m);
    if (d > best) {
      best = d;
      *location = x;
    }
  }
  return best;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  // Empty samples are legal for the Statistic* primitives (degenerate
  // conventions), so sizes start at 0 — but mostly non-empty.
  const size_t n = in.SizeInRange(0, 48);
  const size_t m = in.SizeInRange(0, 48);
  std::vector<double> r;
  std::vector<double> t;
  if (in.Bool()) {
    // Tie-heavy shared alphabet: duplicate values across and within samples.
    const int alphabet = static_cast<int>(in.SizeInRange(1, 10));
    in.TiedArray(n, alphabet, &r);
    in.TiedArray(m, alphabet, &t);
  } else {
    in.FiniteArray(n, &r);
    in.FiniteArray(m, &t);
  }

  double naive_loc = 0.0;
  const double naive = NaiveStatistic(r, t, &naive_loc);

  double lib_loc = 0.0;
  const double lib = moche::ks::Statistic(r, t, &lib_loc);
  MOCHE_FUZZ_CHECK(SameBits(lib, naive),
                   "Statistic %.17g != naive %.17g (n=%zu m=%zu)", lib, naive,
                   n, m);
  // Locations compare by value, not bits: a ±0.0 tie collapses to one grid
  // point whose sign depends on which sample supplied it first.
  MOCHE_FUZZ_CHECK(lib_loc == naive_loc,
                   "Statistic location %.17g != naive %.17g", lib_loc,
                   naive_loc);

  // The sorted and scratch variants must agree bit-exactly with Statistic.
  std::vector<double> r_sorted = r;
  std::vector<double> t_sorted = t;
  std::sort(r_sorted.begin(), r_sorted.end());
  std::sort(t_sorted.begin(), t_sorted.end());
  double sorted_loc = 0.0;
  const double sorted =
      moche::ks::StatisticSorted(r_sorted, t_sorted, &sorted_loc);
  MOCHE_FUZZ_CHECK(SameBits(sorted, naive),
                   "StatisticSorted %.17g != naive %.17g", sorted, naive);
  MOCHE_FUZZ_CHECK(sorted_loc == naive_loc,
                   "StatisticSorted location %.17g != naive %.17g",
                   sorted_loc, naive_loc);

  // The test-anchored walk visits only a subset of the grid, so its
  // statistic and first-maximum location must still match bit for bit.
  double anchored_loc = 0.0;
  const double anchored =
      moche::ks::StatisticAnchored(r_sorted, t_sorted, &anchored_loc);
  MOCHE_FUZZ_CHECK(SameBits(anchored, naive),
                   "StatisticAnchored %.17g != naive %.17g (n=%zu m=%zu)",
                   anchored, naive, n, m);
  MOCHE_FUZZ_CHECK(anchored_loc == naive_loc,
                   "StatisticAnchored location %.17g != naive %.17g",
                   anchored_loc, naive_loc);
  // Against the merge, the location's bits too: both take a grid value's
  // first copy, so a -0.0/+0.0 tie resolves the same way in each.
  MOCHE_FUZZ_CHECK(SameBits(anchored_loc, sorted_loc),
                   "StatisticAnchored location bits %.17g != merge %.17g",
                   anchored_loc, sorted_loc);

  // The full three-step test: reject must be exactly D > threshold.
  if (!r.empty() && !t.empty()) {
    const double alpha = in.Alpha();
    auto run = moche::ks::Run(r, t, alpha);
    MOCHE_FUZZ_CHECK(run.ok(), "ks::Run rejected a valid instance: %s",
                     run.status().message().c_str());
    MOCHE_FUZZ_CHECK(SameBits(run->statistic, naive),
                     "Run statistic %.17g != naive %.17g", run->statistic,
                     naive);
    MOCHE_FUZZ_CHECK(run->reject == (run->statistic > run->threshold),
                     "reject flag disagrees with D > p (D=%.17g p=%.17g)",
                     run->statistic, run->threshold);
    MOCHE_FUZZ_CHECK(run->n == r.size() && run->m == t.size(),
                     "outcome sizes n=%zu m=%zu mismatch", run->n, run->m);
  }

  // SortFinite on R, T and their pairwise midpoints (finite: each half is
  // at most DBL_MAX / 2), n + m + n * m values from the bytes already read.
  std::vector<double> sample = r;
  sample.insert(sample.end(), t.begin(), t.end());
  for (double x : r) {
    for (double y : t) sample.push_back(x / 2 + y / 2);
  }
  CheckSortFinite(sample);
  return 0;
}
