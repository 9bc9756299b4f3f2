#include "core/cumulative.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace moche {
namespace {

// Example 3 of the paper.
const std::vector<double> kRefExample{14, 14, 14, 14, 20, 20, 20, 20};
const std::vector<double> kTestExample{13, 13, 12, 20};

TEST(CumulativeFrameTest, PaperExampleThreeBaseVector) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->q(), 4u);
  EXPECT_DOUBLE_EQ(frame->Value(1), 12.0);
  EXPECT_DOUBLE_EQ(frame->Value(2), 13.0);
  EXPECT_DOUBLE_EQ(frame->Value(3), 14.0);
  EXPECT_DOUBLE_EQ(frame->Value(4), 20.0);
  EXPECT_EQ(frame->n(), 8u);
  EXPECT_EQ(frame->m(), 4u);
}

TEST(CumulativeFrameTest, PaperExampleThreeCumulativeVectors) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  // C_R = <0, 0, 0, 4, 8>; C_T = <0, 1, 3, 3, 4>.
  EXPECT_EQ(frame->CR(0), 0);
  EXPECT_EQ(frame->CR(1), 0);
  EXPECT_EQ(frame->CR(2), 0);
  EXPECT_EQ(frame->CR(3), 4);
  EXPECT_EQ(frame->CR(4), 8);
  EXPECT_EQ(frame->CT(0), 0);
  EXPECT_EQ(frame->CT(1), 1);
  EXPECT_EQ(frame->CT(2), 3);
  EXPECT_EQ(frame->CT(3), 3);
  EXPECT_EQ(frame->CT(4), 4);
}

TEST(CumulativeFrameTest, PaperExampleThreeSubsetVector) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  // C_S for S = {13, 13} is <0, 0, 2, 2, 2>.
  auto cs = frame->CumulativeOf({13, 13});
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(*cs, (std::vector<int64_t>{0, 0, 2, 2, 2}));
}

TEST(CumulativeFrameTest, CountT) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->CountT(1), 1);  // one 12 in T
  EXPECT_EQ(frame->CountT(2), 2);  // two 13s
  EXPECT_EQ(frame->CountT(3), 0);  // no 14s
  EXPECT_EQ(frame->CountT(4), 1);  // one 20
}

TEST(CumulativeFrameTest, IndexOfValue) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  auto idx = frame->IndexOfValue(14.0);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 3u);
  EXPECT_TRUE(frame->IndexOfValue(15.0).status().IsNotFound());
}

TEST(CumulativeFrameTest, CumulativeOfUnknownValueFails) {
  auto frame = CumulativeFrame::Build(kRefExample, kTestExample);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->CumulativeOf({99.0}).status().IsNotFound());
}

TEST(CumulativeFrameTest, EmptyInputsRejected) {
  EXPECT_TRUE(CumulativeFrame::Build({}, {1.0}).status().IsInvalidArgument());
  EXPECT_TRUE(CumulativeFrame::Build({1.0}, {}).status().IsInvalidArgument());
}

TEST(CumulativeFrameTest, DuplicatesAcrossSetsCollapse) {
  auto frame = CumulativeFrame::Build({1, 1, 2}, {2, 2, 3});
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->q(), 3u);  // values 1, 2, 3
  EXPECT_EQ(frame->CR(3), 3);
  EXPECT_EQ(frame->CT(3), 3);
  EXPECT_EQ(frame->CT(1), 0);
  EXPECT_EQ(frame->CR(1), 2);
}

TEST(CumulativeFrameTest, SingletonSets) {
  auto frame = CumulativeFrame::Build({5.0}, {5.0});
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->q(), 1u);
  EXPECT_EQ(frame->CR(1), 1);
  EXPECT_EQ(frame->CT(1), 1);
}

TEST(CumulativeFrameTest, LastEntriesEqualSetSizes) {
  auto frame = CumulativeFrame::Build({1, 5, 5, 9}, {2, 2, 2});
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->CR(frame->q()), 4);
  EXPECT_EQ(frame->CT(frame->q()), 3);
}

// R-only runs keep their last value (and, before the first test value, the
// first too); every test value and the last reference value are kept.
TEST(CumulativeFrameTest, AnchoredKeepsTestValuesAndRunEnds) {
  const std::vector<double> r{1, 2, 3, 4, 6, 7, 8, 9, 11, 12};
  const std::vector<double> t{5, 5, 10};
  CumulativeFrame frame;
  CumulativeFrame::BuildAnchoredInto(r, t, &frame);
  EXPECT_EQ(frame.n(), 10u);
  EXPECT_EQ(frame.m(), 3u);
  const std::vector<double> values{1, 4, 5, 9, 10, 12};
  const std::vector<int64_t> cum_r{0, 1, 4, 4, 8, 8, 10};
  const std::vector<int64_t> cum_t{0, 0, 0, 2, 2, 3, 3};
  ASSERT_EQ(frame.q(), values.size());
  for (size_t i = 1; i <= frame.q(); ++i) {
    EXPECT_EQ(frame.Value(i), values[i - 1]) << i;
  }
  for (size_t i = 0; i <= frame.q(); ++i) {
    EXPECT_EQ(frame.CR(i), cum_r[i]) << i;
    EXPECT_EQ(frame.CT(i), cum_t[i]) << i;
  }
  // A recycled frame forgets the previous instance.
  CumulativeFrame::BuildAnchoredInto({5, 5}, {5}, &frame);
  ASSERT_EQ(frame.q(), 1u);
  EXPECT_EQ(frame.CR(1), 2);
  EXPECT_EQ(frame.CT(1), 1);
  // A run of mixed-sign zeros keeps its first copy, as the full merge does.
  CumulativeFrame::BuildAnchoredInto({-1, -0.0, 0.0}, {1}, &frame);
  ASSERT_EQ(frame.q(), 3u);
  EXPECT_EQ(frame.CR(2), 3);
  EXPECT_TRUE(std::signbit(frame.Value(2)));
}

// Every anchored coordinate is the full frame's coordinate of the same
// value, bits included, and there are at most 2 d_T + 2 of them.
TEST(CumulativeFrameTest, AnchoredCoordinatesAreFullFrameCoordinates) {
  Rng rng(77);
  CumulativeFrame anchored;
  for (int rep = 0; rep < 300; ++rep) {
    const int shape = rep % 3;
    const size_t n = static_cast<size_t>(rng.Integer(1, 400));
    const size_t m = static_cast<size_t>(rng.Integer(1, 30));
    const auto draw = [&rng, shape](double shift) {
      if (shape == 0) return static_cast<double>(rng.Integer(0, 6));
      if (shape == 1) {
        const double v = static_cast<double>(rng.Integer(-1, 1));
        return v == 0.0 && rng.Integer(0, 1) == 0 ? -0.0 : v;
      }
      return rng.Normal(shift, 1.0);
    };
    std::vector<double> r(n);
    std::vector<double> t(m);
    for (double& v : r) v = draw(0.0);
    for (double& v : t) v = draw(0.7);
    std::sort(r.begin(), r.end());
    std::sort(t.begin(), t.end());
    // The same sorted arrays feed both builders: std::sort may order a
    // -0.0/+0.0 tie either way, and the frames report the first copy.
    auto full = std::make_unique<CumulativeFrame>();
    CumulativeFrame::BuildFromSortedUncheckedInto(r, t, full.get());
    CumulativeFrame::BuildAnchoredInto(r, t, &anchored);
    ASSERT_EQ(anchored.n(), n);
    ASSERT_EQ(anchored.m(), m);
    const size_t distinct_t = static_cast<size_t>(
        std::unique(t.begin(), t.end()) - t.begin());
    EXPECT_LE(anchored.q(), std::min(full->q(), 2 * distinct_t + 2));
    size_t kept_t = 0;
    size_t j = 1;
    for (size_t i = 1; i <= anchored.q(); ++i) {
      while (j <= full->q() && full->Value(j) < anchored.Value(i)) ++j;
      ASSERT_LE(j, full->q()) << "rep=" << rep;
      ASSERT_EQ(std::signbit(anchored.Value(i)), std::signbit(full->Value(j)))
          << "rep=" << rep << " i=" << i;
      ASSERT_EQ(anchored.Value(i), full->Value(j)) << "rep=" << rep;
      ASSERT_EQ(anchored.CR(i), full->CR(j)) << "rep=" << rep;
      ASSERT_EQ(anchored.CT(i), full->CT(j)) << "rep=" << rep;
      kept_t += anchored.CountT(i) > 0 ? 1 : 0;
    }
    EXPECT_EQ(kept_t, distinct_t) << "rep=" << rep;
    EXPECT_EQ(anchored.Value(anchored.q()), full->Value(full->q()));
  }
}

}  // namespace
}  // namespace moche
