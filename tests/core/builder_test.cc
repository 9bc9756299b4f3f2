#include "core/builder.h"

#include <gtest/gtest.h>

#include "core/size_search.h"
#include "util/rng.h"

namespace moche {
namespace {

class PaperBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto frame = CumulativeFrame::Build(ref_, test_);
    ASSERT_TRUE(frame.ok());
    frame_ = std::make_unique<CumulativeFrame>(std::move(frame).value());
    engine_ = std::make_unique<BoundsEngine>(*frame_, 0.3);
  }

  const std::vector<double> ref_{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> test_{13, 13, 12, 20};  // t1, t2, t3, t4
  std::unique_ptr<CumulativeFrame> frame_;
  std::unique_ptr<BoundsEngine> engine_;
};

TEST_F(PaperBuilderTest, ExampleSixExplanation) {
  // L = [t4, t3, t2, t1] -> indices [3, 2, 1, 0]. Expected I = {t3, t2},
  // accepted in that order.
  const PreferenceList pref{3, 2, 1, 0};
  auto expl = BuildMostComprehensible(*engine_, 2, test_, pref);
  ASSERT_TRUE(expl.ok());
  EXPECT_EQ(expl->indices, (std::vector<size_t>{2, 1}));
}

TEST_F(PaperBuilderTest, FullCheckModeGivesSameAnswer) {
  const PreferenceList pref{3, 2, 1, 0};
  auto inc = BuildMostComprehensible(*engine_, 2, test_, pref, true);
  auto full = BuildMostComprehensible(*engine_, 2, test_, pref, false);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(inc->indices, full->indices);
}

TEST_F(PaperBuilderTest, DifferentPreferenceDifferentExplanation) {
  // Preferring t1 first picks {t1, ...} since {13} extends to {13, 12} or
  // {13, 13}.
  const PreferenceList pref{0, 1, 2, 3};
  auto expl = BuildMostComprehensible(*engine_, 2, test_, pref);
  ASSERT_TRUE(expl.ok());
  ASSERT_EQ(expl->indices.size(), 2u);
  EXPECT_EQ(expl->indices[0], 0u);
}

TEST_F(PaperBuilderTest, StatsAreReported) {
  const PreferenceList pref{3, 2, 1, 0};
  BuildStats stats;
  auto expl = BuildMostComprehensible(*engine_, 2, test_, pref, true, &stats);
  ASSERT_TRUE(expl.ok());
  EXPECT_GE(stats.candidates_checked, 3u);  // t4 rejected, t3 + t2 accepted
  EXPECT_GT(stats.recursion_steps, 0u);
}

TEST_F(PaperBuilderTest, RejectsBadPreference) {
  const PreferenceList bad{0, 0, 1, 2};
  auto expl = BuildMostComprehensible(*engine_, 2, test_, bad);
  EXPECT_FALSE(expl.ok());
}

TEST_F(PaperBuilderTest, RejectsMismatchedTest) {
  const std::vector<double> other{13, 13, 12};
  auto expl = BuildMostComprehensible(*engine_, 2, other, {0, 1, 2});
  EXPECT_TRUE(expl.status().IsInvalidArgument());
}

TEST_F(PaperBuilderTest, RejectsForeignValueOutsideTheScannedPrefix) {
  // With L = [t4, t3, t2, t1] the scan stops after three candidates and
  // never reaches t1 ...
  const PreferenceList pref{3, 2, 1, 0};
  BuildStats stats;
  ASSERT_TRUE(
      BuildMostComprehensible(*engine_, 2, test_, pref, true, &stats).ok());
  ASSERT_EQ(stats.candidates_checked, 3u);

  // ... yet a same-size test whose t1 is not in the frame is still refused.
  const std::vector<double> foreign{99, 13, 12, 20};
  auto expl = BuildMostComprehensible(*engine_, 2, foreign, pref);
  EXPECT_TRUE(expl.status().IsNotFound()) << expl.status().ToString();
}

// The explanation is always a prefix-greedy selection: each accepted index
// appears in preference order.
TEST(BuilderPropertyTest, IndicesFollowPreferenceOrder) {
  Rng rng(41);
  int instances = 0;
  for (int rep = 0; rep < 60 && instances < 15; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    for (int i = 0; i < 30; ++i) r.push_back(rng.Integer(0, 6));
    for (int i = 0; i < 14; ++i) t.push_back(rng.Integer(3, 9));
    auto outcome = ks::Run(r, t, 0.05);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->reject) continue;
    ++instances;

    auto frame = CumulativeFrame::Build(r, t);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, 0.05);
    auto size = SizeSearcher(engine).FindSize();
    ASSERT_TRUE(size.ok());

    PreferenceList pref = RandomPreference(t.size(), &rng);
    auto expl = BuildMostComprehensible(engine, size->k, t, pref);
    ASSERT_TRUE(expl.ok());
    ASSERT_EQ(expl->indices.size(), size->k);

    // position in pref must be strictly increasing along expl->indices
    std::vector<size_t> rank(t.size());
    for (size_t pos = 0; pos < pref.size(); ++pos) rank[pref[pos]] = pos;
    for (size_t i = 1; i < expl->indices.size(); ++i) {
      EXPECT_LT(rank[expl->indices[i - 1]], rank[expl->indices[i]]);
    }
  }
  EXPECT_GE(instances, 6);
}

}  // namespace
}  // namespace moche
