#include "core/partial.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/size_search.h"
#include "ks/ks_test.h"
#include "util/rng.h"

namespace moche {
namespace {

// Example 6 walk-through: k = 2, L = [t4, t3, t2, t1] on the Example 3 sets.
class PaperPartialTest : public ::testing::Test {
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

TEST_F(PaperPartialTest, ExampleSixTrace) {
  PartialExplanationChecker checker;
  ASSERT_TRUE(checker.Reset(*engine_, 2).ok());
  // t4 = 20 -> base index 4: not a partial explanation (ubar_3 = 1 < 2).
  EXPECT_FALSE(checker.CandidateFeasible(4));
  // t3 = 12 -> base index 1: partial explanation; accept.
  EXPECT_TRUE(checker.CandidateFeasible(1));
  checker.Accept(1);
  // t2 = 13 -> base index 2: partial explanation; accept -> size k reached.
  EXPECT_TRUE(checker.CandidateFeasible(2));
  checker.Accept(2);
  EXPECT_EQ(checker.accepted_count(), 2u);
}

TEST_F(PaperPartialTest, FullModeAgreesOnExampleSix) {
  PartialExplanationChecker checker;
  ASSERT_TRUE(checker.Reset(*engine_, 2).ok());
  EXPECT_FALSE(checker.CandidateFeasibleFull(4));
  EXPECT_TRUE(checker.CandidateFeasibleFull(1));
  checker.Accept(1);
  EXPECT_TRUE(checker.CandidateFeasibleFull(2));
}

TEST_F(PaperPartialTest, MultiplicityGuard) {
  PartialExplanationChecker checker;
  ASSERT_TRUE(checker.Reset(*engine_, 2).ok());
  // Only one 12 exists in T; a second copy can never be a subset of T.
  ASSERT_TRUE(checker.CandidateFeasible(1));
  checker.Accept(1);
  EXPECT_FALSE(checker.CandidateFeasible(1));
  EXPECT_FALSE(checker.CandidateFeasibleFull(1));
}

TEST_F(PaperPartialTest, CreateRejectsBadSizes) {
  PartialExplanationChecker checker;
  EXPECT_TRUE(checker.Reset(*engine_, 0).IsInvalidArgument());
  EXPECT_TRUE(checker.Reset(*engine_, 4).IsInvalidArgument());
  // k = 1 has no qualified vector (Example 4) -> Internal.
  EXPECT_TRUE(checker.Reset(*engine_, 1).IsInternal());
}

// The incremental and the paper-faithful full check must agree on every
// candidate across random accept sequences.
TEST(PartialCheckerPropertyTest, IncrementalEqualsFull) {
  Rng rng(31);
  int instances = 0;
  for (int rep = 0; rep < 80 && instances < 25; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    const int n = static_cast<int>(rng.Integer(5, 30));
    const int m = static_cast<int>(rng.Integer(5, 15));
    for (int i = 0; i < n; ++i) r.push_back(rng.Integer(0, 7));
    for (int i = 0; i < m; ++i) t.push_back(rng.Integer(3, 10));
    auto outcome = ks::Run(r, t, 0.1);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->reject) continue;
    ++instances;

    auto frame = CumulativeFrame::Build(r, t);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, 0.1);
    auto size = SizeSearcher(engine).FindSize();
    ASSERT_TRUE(size.ok());

    PartialExplanationChecker inc;
    ASSERT_TRUE(inc.Reset(engine, size->k).ok());
    PartialExplanationChecker full;
    ASSERT_TRUE(full.Reset(engine, size->k).ok());

    // Random candidate stream; accept whenever feasible (both must agree).
    for (int step = 0; step < 60; ++step) {
      if (inc.accepted_count() == size->k) break;
      const size_t v =
          static_cast<size_t>(rng.Integer(1, static_cast<int64_t>(frame->q())));
      const bool a = inc.CandidateFeasible(v);
      const bool b = full.CandidateFeasibleFull(v);
      EXPECT_EQ(a, b) << "divergence at v=" << v;
      if (a && b) {
        inc.Accept(v);
        full.Accept(v);
      }
    }
  }
  EXPECT_GE(instances, 10);
}

// Greedy acceptance over any candidate order must always complete to k
// points: the accepted set stays a partial explanation by construction, and
// partial explanations always extend to full ones.
TEST(PartialCheckerPropertyTest, GreedyAcceptanceAlwaysCompletes) {
  Rng rng(37);
  int instances = 0;
  for (int rep = 0; rep < 80 && instances < 20; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    for (int i = 0; i < 25; ++i) r.push_back(rng.Integer(0, 5));
    for (int i = 0; i < 12; ++i) t.push_back(rng.Integer(2, 8));
    auto outcome = ks::Run(r, t, 0.05);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->reject) continue;
    ++instances;

    auto frame = CumulativeFrame::Build(r, t);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, 0.05);
    auto size = SizeSearcher(engine).FindSize();
    ASSERT_TRUE(size.ok());
    PartialExplanationChecker checker;
    ASSERT_TRUE(checker.Reset(engine, size->k).ok());

    // Scan values in a shuffled order, repeating the scan until complete.
    std::vector<size_t> order;
    for (size_t v = 1; v <= frame->q(); ++v) {
      for (int64_t c = 0; c < frame->CountT(v); ++c) order.push_back(v);
    }
    rng.Shuffle(&order);
    for (size_t v : order) {
      if (checker.accepted_count() == size->k) break;
      if (checker.CandidateFeasible(v)) checker.Accept(v);
    }
    EXPECT_EQ(checker.accepted_count(), size->k);
  }
  EXPECT_GE(instances, 8);
}

// What the exhaustive leg below must have reached, so a generator change
// cannot quietly stop covering the edge cases.
struct Coverage {
  int instances = 0;
  int at_limit = 0;  // queries of a value whose every copy is accepted
  int r_only = 0;    // queries of a base index with CountT == 0
  int t_first = 0;   // instances with a T value at base index 1
  int t_last = 0;    // instances with a T value at base index q
};

// Accepts feasible candidates until k, and before every accept (and after
// the last) compares the closed form with the full recursion on every base
// index 1..q. Repeating the last accepted value while it stays feasible
// drives values to their multiplicity limit.
void CompareOnEveryIndex(const std::vector<double>& r,
                         const std::vector<double>& t, double alpha, Rng* rng,
                         Coverage* cov) {
  auto outcome = ks::Run(r, t, alpha);
  ASSERT_TRUE(outcome.ok());
  if (!outcome->reject) return;
  auto frame = CumulativeFrame::Build(r, t);
  ASSERT_TRUE(frame.ok());
  BoundsEngine engine(*frame, alpha);
  auto size = SizeSearcher(engine).FindSize();
  ASSERT_TRUE(size.ok());
  PartialExplanationChecker checker;
  ASSERT_TRUE(checker.Reset(engine, size->k).ok());
  const size_t q = frame->q();
  ++cov->instances;
  if (frame->CountT(1) > 0) ++cov->t_first;
  if (frame->CountT(q) > 0) ++cov->t_last;

  std::vector<int64_t> accepted(q + 1, 0);
  size_t last = 0;
  while (true) {
    std::vector<size_t> feasible;
    for (size_t v = 1; v <= q; ++v) {
      const bool closed = checker.CandidateFeasible(v);
      const bool full = checker.CandidateFeasibleFull(v);
      ASSERT_EQ(closed, full) << "v=" << v << " of q=" << q << " after "
                              << checker.accepted_count() << " accepts";
      if (frame->CountT(v) == 0) {
        ++cov->r_only;
        EXPECT_FALSE(closed);
      } else if (accepted[v] == frame->CountT(v)) {
        ++cov->at_limit;
        EXPECT_FALSE(closed);
      }
      if (closed) feasible.push_back(v);
    }
    if (checker.accepted_count() == size->k) break;
    // A partial explanation always extends, so some candidate is feasible.
    ASSERT_FALSE(feasible.empty());
    size_t v = feasible[static_cast<size_t>(
        rng->Integer(0, static_cast<int64_t>(feasible.size()) - 1))];
    if (std::find(feasible.begin(), feasible.end(), last) != feasible.end() &&
        rng->Bernoulli(0.7)) {
      v = last;
    }
    checker.Accept(v);
    ++accepted[v];
    last = v;
  }
}

TEST(PartialCheckerExhaustiveTest, ClosedFormEqualsFullOnEveryIndex) {
  Rng rng(41);
  Coverage cov;
  const double alphas[] = {0.05, 0.1, 0.2};
  for (int rep = 0; rep < 400; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    const int n = static_cast<int>(rng.Integer(4, 40));
    const int m = static_cast<int>(rng.Integer(4, 18));
    switch (rep % 4) {
      case 0:  // tie-heavy: tiny shared alphabet
        for (int i = 0; i < n; ++i) r.push_back(rng.Integer(0, 4));
        for (int i = 0; i < m; ++i) t.push_back(rng.Integer(2, 6));
        break;
      case 1:  // T holds both extremes: base indices 1 and q
        for (int i = 0; i < n; ++i) r.push_back(rng.Integer(2, 8));
        t = {0.0, 10.0};
        for (int i = 2; i < m; ++i) t.push_back(rng.Integer(0, 10));
        break;
      case 2:  // wide R around a narrow, repeated T: many R-only indices
        for (int i = 0; i < n; ++i) r.push_back(rng.Integer(0, 30));
        for (int i = 0; i < m; ++i) t.push_back(rng.Integer(10, 13));
        break;
      default:  // continuous, shifted: every T value has one copy
        for (int i = 0; i < n; ++i) r.push_back(rng.Normal());
        for (int i = 0; i < m; ++i) t.push_back(rng.Normal(1.0, 0.5));
        break;
    }
    CompareOnEveryIndex(r, t, alphas[rep % 3], &rng, &cov);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(cov.instances, 100);
  EXPECT_GT(cov.at_limit, 0);
  EXPECT_GT(cov.r_only, 0);
  EXPECT_GT(cov.t_first, 0);
  EXPECT_GT(cov.t_last, 0);
}

// A large reference against a small test set (the monitor's exact fallback
// on a big reference): per base value the checker keeps only the two int64
// bounds and a 32-bit run index, plus O(m) for the runs and the tree. Its
// total must stay under five (q+1)-long int64 arrays; a tree over all q+1
// base indices would break the O(m) part.
TEST(PartialCheckerFootprintTest, LargeReferenceSmallTestStaysCompact) {
  const size_t n = size_t{1} << 16;
  const size_t m = 200;
  Rng rng(43);
  std::vector<double> r(n);
  for (size_t i = 0; i < n; ++i) r[i] = static_cast<double>(i);
  const double span = static_cast<double>(n);
  std::vector<double> t;
  for (size_t i = 0; i < 150; ++i) t.push_back(rng.Uniform(0.0, span));
  while (t.size() < m) t.push_back(0.5 * span + 0.5);  // a tied bump
  auto outcome = ks::Run(r, t, 0.05);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->reject);
  auto frame = CumulativeFrame::Build(r, t);
  ASSERT_TRUE(frame.ok());
  BoundsEngine engine(*frame, 0.05);
  auto size = SizeSearcher(engine).FindSize();
  ASSERT_TRUE(size.ok());

  PartialExplanationChecker checker;
  ASSERT_TRUE(checker.Reset(engine, size->k).ok());
  const size_t q = frame->q();
  const size_t old_bytes = 5 * (q + 1) * sizeof(int64_t);
  EXPECT_LT(checker.FootprintBytes(), old_bytes);
  const size_t q_arrays = (q + 1) * (2 * sizeof(int64_t) + sizeof(uint32_t));
  ASSERT_GE(checker.FootprintBytes(), q_arrays);
  EXPECT_LE(checker.FootprintBytes() - q_arrays, 64 * (m + 1));
}

}  // namespace
}  // namespace moche
