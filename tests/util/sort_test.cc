#include "util/sort.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing_alloc.h"
#include "testing_util.h"

namespace moche {
namespace {

using testing_alloc::AllocationProbe;

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// One input family per kind; every value finite.
std::vector<double> MakeInput(const std::string& kind, size_t size,
                              std::mt19937_64* engine) {
  std::vector<double> out(size);
  for (size_t i = 0; i < size; ++i) {
    const double normal = testing_util::PortableNormal(*engine, 0.0, 1.0);
    const uint64_t raw = (*engine)();
    double& v = out[i];
    if (kind == "random") {
      v = normal;
    } else if (kind == "rounded") {
      // Ties everywhere, and round() of a small negative gives -0.0.
      v = std::round(normal * 10.0) / 10.0;
    } else if (kind == "denormal") {
      // Sign and mantissa random, exponent zero; one in four a normal.
      v = raw % 4 == 0 ? normal : FromBits(raw & 0x800FFFFFFFFFFFFFull);
    } else if (kind == "signed_zero") {
      v = raw % 8 == 0 ? (raw % 16 == 0 ? -1.0 : 1.0)
                       : (raw % 2 == 0 ? -0.0 : 0.0);
    } else if (kind == "extreme") {
      const double picks[] = {DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
                              DBL_TRUE_MIN, -DBL_TRUE_MIN, 0.0, -0.0,
                              normal};
      v = picks[raw % 9];
    } else if (kind == "integer") {
      // The low mantissa bytes are zero: the radix sort skips their passes.
      v = static_cast<double>(static_cast<int64_t>(raw % 2001) - 1000);
    } else {  // "constant": every digit is constant, no pass runs.
      v = -2.5;
    }
  }
  return out;
}

std::vector<uint64_t> SortedBits(const std::vector<double>& v) {
  std::vector<uint64_t> bits(v.size());
  std::transform(v.begin(), v.end(), bits.begin(), BitsOf);
  std::sort(bits.begin(), bits.end());
  return bits;
}

::testing::AssertionResult SameBitsEverywhere(const std::vector<double>& a,
                                              const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "sizes " << a.size() << " and "
                                         << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (BitsOf(a[i]) != BitsOf(b[i])) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SortFiniteTest, KeyOrdersValuesWithNegativeZeroFirst) {
  const std::vector<double> ascending = {
      -DBL_MAX, -1.0, -DBL_MIN, -DBL_TRUE_MIN, -0.0, 0.0, DBL_TRUE_MIN,
      DBL_MIN,  1.0,  DBL_MAX};
  for (size_t i = 0; i + 1 < ascending.size(); ++i) {
    EXPECT_LT(SortKey(ascending[i]), SortKey(ascending[i + 1]))
        << ascending[i] << " vs " << ascending[i + 1];
  }
}

// Both paths, at every size around the threshold and well past it, on
// every input family: bit-equal to std::sort with the canonical zero order,
// a permutation of the input, and non-decreasing in SortKey.
TEST(SortFiniteTest, MatchesTheCanonicalSortOnEveryPathAndSize) {
  std::mt19937_64 engine(testing_util::kTestSeed);
  const size_t sizes[] = {0,
                          1,
                          kRadixSortMinSize - 1,
                          kRadixSortMinSize,
                          kRadixSortMinSize + 1,
                          size_t{1} << 16};
  std::vector<double> scratch;
  for (const std::string kind : {"random", "rounded", "denormal",
                                 "signed_zero", "extreme", "integer",
                                 "constant"}) {
    for (const size_t size : sizes) {
      SCOPED_TRACE(kind + " size " + std::to_string(size));
      const std::vector<double> input = MakeInput(kind, size, &engine);
      std::vector<double> expected = input;
      testing_util::SortCanonical(&expected);

      std::vector<double> in_place = input;
      SortFinite(&in_place);
      EXPECT_TRUE(SameBitsEverywhere(in_place, expected));

      std::vector<double> lent = input;
      SortFinite(&lent, &scratch);
      EXPECT_TRUE(SameBitsEverywhere(lent, expected));

      EXPECT_EQ(SortedBits(lent), SortedBits(input));
      for (size_t i = 0; i + 1 < lent.size(); ++i) {
        ASSERT_LE(SortKey(lent[i]), SortKey(lent[i + 1])) << "index " << i;
      }
    }
  }
}

TEST(SortFiniteTest, OutputDoesNotDependOnInputOrder) {
  std::mt19937_64 engine(testing_util::kTestSeed + 1);
  for (const size_t size : {size_t{40}, 4 * kRadixSortMinSize}) {
    std::vector<double> input = MakeInput("signed_zero", size, &engine);
    std::vector<double> first = input;
    SortFinite(&first);
    std::vector<double> scratch;
    for (int round = 0; round < 20; ++round) {
      std::shuffle(input.begin(), input.end(), engine);
      std::vector<double> sorted = input;
      SortFinite(&sorted, &scratch);
      ASSERT_TRUE(SameBitsEverywhere(sorted, first)) << "round " << round;
    }
  }
}

TEST(SortFiniteTest, ScratchIsUntouchedBelowTheThreshold) {
  std::mt19937_64 engine(testing_util::kTestSeed + 2);
  std::vector<double> values =
      MakeInput("random", kRadixSortMinSize - 1, &engine);
  std::vector<double> scratch;
  SortFinite(&values, &scratch);
  EXPECT_EQ(scratch.capacity(), 0u);
}

TEST(SortFiniteTest, WarmRadixSortAllocatesNothing) {
  std::mt19937_64 engine(testing_util::kTestSeed + 3);
  const size_t size = 8 * kRadixSortMinSize;
  const std::vector<double> a = MakeInput("random", size, &engine);
  const std::vector<double> b = MakeInput("rounded", size, &engine);
  std::vector<double> values = a;
  std::vector<double> scratch;
  SortFinite(&values, &scratch);  // grows the scratch once
  ASSERT_GE(scratch.capacity(), size);

  AllocationProbe probe;
  for (const std::vector<double>* input : {&a, &b, &a}) {
    std::copy(input->begin(), input->end(), values.begin());
    SortFinite(&values, &scratch);
  }
  const size_t allocations = probe.Delta();
  EXPECT_EQ(allocations, 0u) << "a warm SortFinite must not allocate";
  std::vector<double> expected = a;
  testing_util::SortCanonical(&expected);
  EXPECT_TRUE(SameBitsEverywhere(values, expected));
}

TEST(SortFiniteTest, SortZeroRunRewritesOnlyTheZeros) {
  // Value-sorted, zeros in arrival order: what a snapshot written by a
  // plain std::sort may hold.
  std::vector<double> sorted = {-2.0, 0.0, -0.0, 0.0, -0.0, 3.0};
  SortZeroRun(&sorted);
  EXPECT_TRUE(
      SameBitsEverywhere(sorted, {-2.0, -0.0, -0.0, 0.0, 0.0, 3.0}));
  std::vector<double> no_zeros = {-1.0, 2.0};
  SortZeroRun(&no_zeros);
  EXPECT_TRUE(SameBitsEverywhere(no_zeros, {-1.0, 2.0}));
  std::vector<double> empty;
  SortZeroRun(&empty);
  EXPECT_TRUE(empty.empty());
}

}  // namespace
}  // namespace moche
