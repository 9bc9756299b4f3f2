#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/cumulative.h"
#include "core/partial.h"
#include "ks/ks_test.h"
#include "testing_util.h"
#include "util/rng.h"

namespace moche {
namespace {

using testing_util::kTightTol;

// Example 3/4 instance: R = {14 x4, 20 x4}, T = {13, 13, 12, 20}, alpha 0.3.
class PaperBoundsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto frame = CumulativeFrame::Build({14, 14, 14, 14, 20, 20, 20, 20},
                                        {13, 13, 12, 20});
    ASSERT_TRUE(frame.ok());
    frame_ = std::make_unique<CumulativeFrame>(std::move(frame).value());
    engine_ = std::make_unique<BoundsEngine>(*frame_, 0.3);
  }

  std::unique_ptr<CumulativeFrame> frame_;
  std::unique_ptr<BoundsEngine> engine_;
};

TEST_F(PaperBoundsTest, OmegaFormula) {
  const double c = *ks::CriticalValue(0.3);
  // Omega(h) = c * sqrt(m-h + (m-h)^2/n), m = 4, n = 8.
  EXPECT_NEAR(engine_->Omega(1), c * std::sqrt(3.0 + 9.0 / 8.0), kTightTol);
  EXPECT_NEAR(engine_->Omega(2), c * std::sqrt(2.0 + 4.0 / 8.0), kTightTol);
}

TEST_F(PaperBoundsTest, GammaFormula) {
  // Gamma(i,h) = C_T[i] - ((m-h)/n) C_R[i].
  EXPECT_NEAR(engine_->Gamma(1, 1), 1.0, kTightTol);
  EXPECT_NEAR(engine_->Gamma(2, 1), 3.0, kTightTol);
  EXPECT_NEAR(engine_->Gamma(3, 1), 3.0 - (3.0 / 8.0) * 4.0, kTightTol);
  EXPECT_NEAR(engine_->Gamma(4, 1), 4.0 - (3.0 / 8.0) * 8.0, kTightTol);
  EXPECT_NEAR(engine_->Gamma(3, 2), 3.0 - (2.0 / 8.0) * 4.0, kTightTol);
}

TEST_F(PaperBoundsTest, ExampleFourSizeOneBoundsContradict) {
  // Paper: at h = 1, l_2 = 2 and u_2 = 1, so no qualified 1-vector exists.
  std::vector<int64_t> lower;
  std::vector<int64_t> upper;
  engine_->ComputeBoundsInto(1, &lower, &upper);
  EXPECT_EQ(lower[2], 2);
  EXPECT_EQ(upper[2], 1);
  EXPECT_FALSE(engine_->ExistsQualified(1));
}

TEST_F(PaperBoundsTest, ExampleFourSizeTwoBounds) {
  // At h = 2 a qualified vector exists. (l_1,u_1) = (0,1) as printed in
  // Example 4; for i >= 2 the formulas give l_i = 2 — Example 4's text lists
  // (1,2) but Example 6 confirms l^k_3 = 2, so we encode the formula value.
  std::vector<int64_t> lower;
  std::vector<int64_t> upper;
  engine_->ComputeBoundsInto(2, &lower, &upper);
  EXPECT_EQ(lower[1], 0);
  EXPECT_EQ(upper[1], 1);
  EXPECT_EQ(lower[2], 2);
  EXPECT_EQ(upper[2], 2);
  EXPECT_EQ(lower[3], 2);
  EXPECT_EQ(upper[3], 2);
  EXPECT_EQ(lower[4], 2);
  EXPECT_EQ(upper[4], 2);
  EXPECT_TRUE(engine_->ExistsQualified(2));
}

TEST_F(PaperBoundsTest, NecessaryConditionMatchesExampleFive) {
  // Example 5: h = 2 satisfies Theorem 2, h = 1 does not.
  EXPECT_FALSE(engine_->NecessaryCondition(1));
  EXPECT_TRUE(engine_->NecessaryCondition(2));
  EXPECT_TRUE(engine_->NecessaryCondition(3));  // monotone
}

TEST_F(PaperBoundsTest, ConstructedVectorIsQualified) {
  auto cum = engine_->ConstructQualifiedVector(2);
  ASSERT_TRUE(cum.ok());
  EXPECT_EQ(cum->front(), 0);
  EXPECT_EQ(cum->back(), 2);
  // The denoted subset's removal must pass the KS test.
  const std::vector<double> subset = engine_->VectorToSubset(*cum);
  ASSERT_EQ(subset.size(), 2u);
  RemovalKs removal({14, 14, 14, 14, 20, 20, 20, 20}, {13, 13, 12, 20}, 0.3);
  for (double v : subset) ASSERT_TRUE(removal.RemoveValue(v).ok());
  EXPECT_TRUE(removal.Passes());
}

TEST_F(PaperBoundsTest, ConstructAtInfeasibleSizeFails) {
  EXPECT_TRUE(engine_->ConstructQualifiedVector(1).status().IsNotFound());
}

TEST(CeilFloorTolTest, ExactIntegersAndNearMisses) {
  EXPECT_EQ(CeilTol(2.0), 2);
  EXPECT_EQ(FloorTol(2.0), 2);
  // Values a hair above/below an integer (floating-point noise) snap to it.
  EXPECT_EQ(CeilTol(2.0 + 1e-12), 2);
  EXPECT_EQ(FloorTol(2.0 - 1e-12), 2);
  // Genuine fractional parts round outward as usual.
  EXPECT_EQ(CeilTol(2.4), 3);
  EXPECT_EQ(FloorTol(2.4), 2);
  EXPECT_EQ(CeilTol(-2.4), -2);
  EXPECT_EQ(FloorTol(-2.4), -3);
}

// The rounding argument behind CumulativeFrame::BuildAnchoredInto
// (core/cumulative.h). Inside a reference-only run C_T is fixed and C_R
// grows, so the anchored frame is exact only if every per-coordinate
// quantity moves one way along the run.

// Gamma = ct - scale * cr, computed as the engine does, never rises with cr.
TEST(AnchoredRoundingTest, GammaIsNonIncreasingInCr) {
  Rng rng(2011);
  for (int rep = 0; rep < 64; ++rep) {
    const double n = std::ldexp(1.0, static_cast<int>(rng.Integer(1, 30))) +
                     static_cast<double>(rng.Integer(0, 1000));
    const double m = static_cast<double>(rng.Integer(2, 1 << 20));
    const double rem = std::floor(rng.Uniform(1.0, m + 1.0));
    const double scale = rem / n;
    ASSERT_GT(scale, 0.0);
    const double ct = std::floor(rng.Uniform(0.0, m + 1.0));
    // A stretch of consecutive counts somewhere in [0, n], and the top.
    const double start = std::floor(rng.Uniform(0.0, n));
    for (double base : {start, std::max(0.0, n - 4096.0)}) {
      double prev = ct - scale * base;
      for (double cr = base + 1.0; cr <= std::min(n, base + 4096.0);
           cr += 1.0) {
        const double gamma = ct - scale * cr;
        ASSERT_LE(gamma, prev) << "ct=" << ct << " scale=" << scale
                               << " cr=" << cr;
        prev = gamma;
      }
    }
  }
}

// CeilTol and FloorTol never step down between nextafter neighbours: around
// integers, around +-0, near +-2^31, and across the points where the
// tolerance moves their answer.
TEST(AnchoredRoundingTest, CeilTolAndFloorTolAreMonotoneAcrossNeighbours) {
  std::vector<double> centers = {0.0, -0.0, 1e-300, -1e-300};
  for (double k : {1.0, 2.0, 3.0, 7.0, 100.0, 4096.0, 1e6, 2147483647.0,
                   2147483648.0, 2147483649.0}) {
    centers.push_back(k);
    centers.push_back(-k);
  }
  const size_t plain = centers.size();
  for (size_t c = 0; c < plain; ++c) {
    // Where FloorTol and CeilTol switch: x + TolFor(x) resp. x - TolFor(x)
    // crosses the integer.
    centers.push_back(centers[c] - TolFor(centers[c]));
    centers.push_back(centers[c] + TolFor(centers[c]));
  }
  constexpr int kSteps = 20000;
  for (double center : centers) {
    double x = center;
    for (int s = 0; s < kSteps; ++s) x = std::nextafter(x, -HUGE_VAL);
    int64_t prev_ceil = CeilTol(x);
    int64_t prev_floor = FloorTol(x);
    for (int s = 0; s < 2 * kSteps; ++s) {
      x = std::nextafter(x, HUGE_VAL);
      const int64_t ceil_now = CeilTol(x);
      const int64_t floor_now = FloorTol(x);
      ASSERT_GE(ceil_now, prev_ceil) << "x=" << x << " center=" << center;
      ASSERT_GE(floor_now, prev_floor) << "x=" << x << " center=" << center;
      prev_ceil = ceil_now;
      prev_floor = floor_now;
    }
  }
}

// Equation 5c's slack (Gamma + Omega) + TolFor(Gamma) is not monotone
// across nextafter neighbours: for Gamma < 0 TolFor grows as Gamma falls,
// and here that lifts the sum across a rounding tie while Gamma + Omega
// stays put. The anchored frame therefore relies on the spacing of a
// run's coordinates instead (next test).
TEST(AnchoredRoundingTest, TheoremTwoSlackIsNotMonotoneAcrossNeighbours) {
  const double omega = 3.5;
  const double gamma = -0.25077109933119374;
  const double lower = std::nextafter(gamma, -HUGE_VAL);
  EXPECT_EQ(gamma + omega, lower + omega);
  EXPECT_GT((lower + omega) + TolFor(lower), (gamma + omega) + TolFor(gamma));
}

// Two coordinates of one run differ in C_R by at least one, so in Gamma by
// at least scale >= 1/n, and while AnchoredIsExact holds that spacing
// outweighs every rounding in the slack: the slack at the later coordinate
// never exceeds the slack at the earlier one.
TEST(AnchoredRoundingTest, TheoremTwoSlackFallsAlongARunWithinTheBound) {
  Rng rng(49);
  const double c_alpha = ks::internal::CriticalValueUnchecked(0.01);
  int tested = 0;
  for (int rep = 0; rep < 400; ++rep) {
    const size_t m = static_cast<size_t>(rng.Integer(2, 1 << 20));
    // The largest n the bound admits for this m (within a factor 1.01), so
    // the spacing is as tight as the anchored frame ever sees.
    const double dm = static_cast<double>(m);
    double n_d = 0x1p49 / (dm + c_alpha * std::sqrt(dm) + 1.0);
    size_t n = static_cast<size_t>(n_d);
    while (!CumulativeFrame::AnchoredIsExact(n, m, c_alpha)) n -= n / 100 + 1;
    ASSERT_TRUE(CumulativeFrame::AnchoredIsExact(n, m, c_alpha));
    n_d = static_cast<double>(n);
    const size_t h =
        static_cast<size_t>(rng.Integer(0, static_cast<int64_t>(m) - 1));
    const double rem = static_cast<double>(m - h);
    const double scale = rem / n_d;
    const double omega = c_alpha * std::sqrt(rem + rem * rem / n_d);
    for (int pair = 0; pair < 250; ++pair) {
      const double ct = std::floor(rng.Uniform(0.0, dm + 1.0));
      const double cr = std::floor(rng.Uniform(0.0, n_d));
      const double g1 = ct - scale * cr;
      const double g2 = ct - scale * (cr + 1.0);
      ASSERT_LE((g2 + omega) + TolFor(g2), (g1 + omega) + TolFor(g1))
          << "n=" << n << " m=" << m << " h=" << h << " ct=" << ct
          << " cr=" << cr;
      ++tested;
    }
  }
  EXPECT_EQ(tested, 400 * 250);
}

TEST(AnchoredRoundingTest, AnchoredIsExactOnlyWithinTheSpacingBound) {
  const double c05 = ks::internal::CriticalValueUnchecked(0.05);
  // The monitor's shapes, far inside the bound.
  EXPECT_TRUE(CumulativeFrame::AnchoredIsExact(size_t{1} << 20, 200, c05));
  EXPECT_TRUE(CumulativeFrame::AnchoredIsExact(5000, 500, c05));
  EXPECT_TRUE(CumulativeFrame::AnchoredIsExact(size_t{1} << 26, 1 << 16, c05));
  // A 2^20 window against a 2^29 reference is past it.
  EXPECT_FALSE(
      CumulativeFrame::AnchoredIsExact(size_t{1} << 29, 1 << 20, c05));
  EXPECT_FALSE(CumulativeFrame::AnchoredIsExact(size_t{1} << 48, 2, c05));
}

// Phase 1 and phase 2 ask the anchored frame the same questions as the
// full one and must get the same answers: Theorem 1 and 2 at every h, the
// SizeScan walk, and the phase-2 checker's Reset and candidate checks along
// a greedy scan.
TEST(AnchoredFrameTest, DecidesEveryTheoremLikeTheFullFrame) {
  Rng rng(1359);
  CumulativeFrame anchored;
  int feasible_sizes = 0;
  for (int rep = 0; rep < 240; ++rep) {
    const int shape = rep % 4;
    const size_t m = static_cast<size_t>(rng.Integer(2, 24));
    const size_t n = shape == 3
                         ? 8 * m + static_cast<size_t>(rng.Integer(0, 300))
                         : static_cast<size_t>(rng.Integer(1, 60));
    const auto draw = [&rng, shape](bool test) {
      if (shape == 0) return static_cast<double>(rng.Integer(0, 4));
      if (shape == 1) {
        const double v = static_cast<double>(rng.Integer(-1, 1));
        return v == 0.0 && rng.Integer(0, 1) == 0 ? -0.0 : v;
      }
      return test ? rng.Normal(1.0, 0.5) : rng.Normal();
    };
    std::vector<double> r(n);
    std::vector<double> t(m);
    for (double& v : r) v = draw(false);
    for (double& v : t) v = draw(true);
    std::sort(r.begin(), r.end());
    std::sort(t.begin(), t.end());
    auto full = CumulativeFrame::Build(r, t);
    ASSERT_TRUE(full.ok());
    CumulativeFrame::BuildAnchoredInto(r, t, &anchored);
    for (double alpha : {0.01, 0.05, 0.3, 1.2}) {
      const BoundsEngine full_engine(*full, alpha);
      const BoundsEngine anchored_engine(anchored, alpha);
      SizeScan full_scan(full_engine);
      SizeScan anchored_scan(anchored_engine);
      for (size_t h = 0; h < m; ++h) {
        const bool exists = full_engine.ExistsQualified(h);
        ASSERT_EQ(anchored_engine.ExistsQualified(h), exists)
            << "rep=" << rep << " alpha=" << alpha << " h=" << h;
        ASSERT_EQ(anchored_engine.NecessaryCondition(h),
                  full_engine.NecessaryCondition(h))
            << "rep=" << rep << " alpha=" << alpha << " h=" << h;
        ASSERT_EQ(anchored_scan.ExistsQualified(h),
                  full_scan.ExistsQualified(h));
        if (!exists || h == 0) continue;
        ++feasible_sizes;
        PartialExplanationChecker full_checker;
        PartialExplanationChecker anchored_checker;
        ASSERT_TRUE(full_checker.Reset(full_engine, h).ok());
        ASSERT_TRUE(anchored_checker.Reset(anchored_engine, h).ok());
        for (double value : t) {
          const size_t v_full = *full->IndexOfValue(value);
          const size_t v_anchored = *anchored.IndexOfValue(value);
          const bool feasible = full_checker.CandidateFeasible(v_full);
          ASSERT_EQ(anchored_checker.CandidateFeasible(v_anchored), feasible)
              << "rep=" << rep << " alpha=" << alpha << " h=" << h;
          ASSERT_EQ(anchored_checker.CandidateFeasibleFull(v_anchored),
                    feasible);
          if (feasible && full_checker.accepted_count() < h) {
            full_checker.Accept(v_full);
            anchored_checker.Accept(v_anchored);
          }
        }
        EXPECT_EQ(anchored_checker.accepted_count(), h);
      }
    }
  }
  EXPECT_GT(feasible_sizes, 500);
}

TEST(BoundsEngineTest, UpperBoundAtLastIndexEqualsH) {
  // l_q >= h - m + C_T[q] = h and u_q <= h force u_q == h whenever a
  // qualified vector exists; spot-check on random failing instances.
  Rng rng(5);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    for (int i = 0; i < 30; ++i) r.push_back(rng.Integer(0, 6));
    for (int i = 0; i < 20; ++i) t.push_back(rng.Integer(3, 9));
    auto frame = CumulativeFrame::Build(r, t);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, 0.05);
    for (size_t h = 1; h < 20; ++h) {
      if (engine.ExistsQualified(h)) {
        std::vector<int64_t> lower;
        std::vector<int64_t> upper;
        engine.ComputeBoundsInto(h, &lower, &upper);
        EXPECT_EQ(upper[frame->q()], static_cast<int64_t>(h));
        EXPECT_LE(lower[frame->q()], upper[frame->q()]);
        break;
      }
    }
  }
}

TEST(BoundsEngineTest, Theorem2MonotoneInH) {
  Rng rng(9);
  for (int rep = 0; rep < 30; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    const int n = static_cast<int>(rng.Integer(5, 40));
    const int m = static_cast<int>(rng.Integer(5, 25));
    for (int i = 0; i < n; ++i) r.push_back(rng.Integer(0, 10));
    for (int i = 0; i < m; ++i) t.push_back(rng.Integer(0, 10));
    auto frame = CumulativeFrame::Build(r, t);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, 0.05);
    bool seen_true = false;
    for (size_t h = 1; h + 1 <= static_cast<size_t>(m); ++h) {
      const bool holds = engine.NecessaryCondition(h);
      if (seen_true) {
        EXPECT_TRUE(holds) << "Theorem 2 not monotone at h=" << h;
      }
      seen_true = seen_true || holds;
    }
  }
}

TEST(BoundsEngineTest, ConstructedVectorsPassForAllFeasibleSizes) {
  Rng rng(21);
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    for (int i = 0; i < 25; ++i) r.push_back(rng.Integer(0, 6));
    for (int i = 0; i < 12; ++i) t.push_back(rng.Integer(2, 9));
    auto frame = CumulativeFrame::Build(r, t);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, 0.05);
    RemovalKs removal(r, t, 0.05);
    for (size_t h = 1; h <= 11; ++h) {
      if (!engine.ExistsQualified(h)) continue;
      auto cum = engine.ConstructQualifiedVector(h);
      ASSERT_TRUE(cum.ok());
      const std::vector<double> subset = engine.VectorToSubset(*cum);
      ASSERT_EQ(subset.size(), h);
      removal.Reset();
      for (double v : subset) ASSERT_TRUE(removal.RemoveValue(v).ok());
      EXPECT_TRUE(removal.Passes()) << "h=" << h;
    }
  }
}

}  // namespace
}  // namespace moche
