// Shared GoogleTest helpers for the MOCHE suite.
//
// Centralizes the numeric tolerances and element-wise vector comparisons
// that were previously repeated ad hoc across tests/ks/ and tests/core/,
// and fixes the RNG seeds used by randomized fixtures so every run of the
// suite exercises the same draws.

#ifndef MOCHE_TESTS_TESTING_UTIL_H_
#define MOCHE_TESTS_TESTING_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace moche {
namespace testing_util {

/// Tolerance for quantities that are exact up to floating-point rounding
/// (ECDF ratios, threshold algebra, incremental-vs-recomputed statistics).
inline constexpr double kTightTol = 1e-12;

/// Tolerance for values checked against hand-computed decimal literals.
inline constexpr double kLooseTol = 1e-6;

/// Seed for randomized test fixtures. Tests that need several independent
/// streams add a small per-stream offset instead of inventing new seeds.
inline constexpr uint64_t kTestSeed = 20210705;  // MOCHE @ VLDB 2021.

/// Cross-platform deterministic draws for tests whose assertions depend on
/// the exact sample sequence. std::mt19937_64 output is pinned by the
/// standard, but the std::*_distribution algorithms are implementation-
/// defined, so Rng::Normal etc. differ between libstdc++/libc++/MSVC.
/// These helpers derive everything from raw engine output instead.
inline double PortableUniform(std::mt19937_64& engine) {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(engine() >> 11) * 0x1.0p-53;
}

/// Box-Muller from two portable uniforms.
inline double PortableNormal(std::mt19937_64& engine, double mean,
                             double stddev) {
  double u1 = PortableUniform(engine);
  while (u1 <= 0.0) u1 = PortableUniform(engine);
  const double u2 = PortableUniform(engine);
  constexpr double kTwoPi = 6.283185307179586476925287;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  return mean + stddev * z;
}

inline bool PortableBernoulli(std::mt19937_64& engine, double p) {
  return PortableUniform(engine) < p;
}

/// Uniform integer in the closed range [lo, hi].
inline int64_t PortableInteger(std::mt19937_64& engine, int64_t lo,
                               int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(engine() % span);
}

/// Sorts finite doubles into SortFinite's order (ascending, -0.0 before
/// +0.0) with a comparator of its own, so an oracle that sorts this way
/// shares nothing with the library's sort.
inline void SortCanonical(std::vector<double>* v) {
  std::sort(v->begin(), v->end(), [](double a, double b) {
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
  });
}

/// Element-wise comparison of two double vectors with an explicit tolerance.
/// Use with EXPECT_TRUE/ASSERT_TRUE; the failure message pinpoints the first
/// offending index, so no per-element EXPECT_NEAR loops are needed.
inline ::testing::AssertionResult VectorsNear(
    const std::vector<double>& actual, const std::vector<double>& expected,
    double tolerance = kTightTol) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: actual has " << actual.size()
           << " elements, expected has " << expected.size();
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    const double diff = std::fabs(actual[i] - expected[i]);
    if (!(diff <= tolerance)) {  // negated so NaN also fails
      return ::testing::AssertionFailure()
             << "vectors differ at index " << i << ": actual " << actual[i]
             << " vs expected " << expected[i] << " (|diff| " << diff
             << " > tolerance " << tolerance << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// True iff every element of `v` is finite (no NaN/Inf).
inline ::testing::AssertionResult AllFinite(const std::vector<double>& v) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << " is not finite: " << v[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// True iff `v` is sorted ascending (adjacent pairs may be equal).
inline ::testing::AssertionResult SortedAscending(
    const std::vector<double>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] > v[i]) {
      return ::testing::AssertionFailure()
             << "out of order at index " << i << ": " << v[i - 1] << " > "
             << v[i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing_util
}  // namespace moche

#endif  // MOCHE_TESTS_TESTING_UTIL_H_
