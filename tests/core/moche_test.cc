#include "core/moche.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ks/ks_test.h"
#include "testing_util.h"
#include "util/rng.h"

namespace moche {
namespace {

TEST(MocheTest, ExplainsPaperExample) {
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  Moche engine;
  auto report = engine.Explain(r, t, 0.3, {3, 2, 1, 0});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->k, 2u);
  EXPECT_EQ(report->k_hat, 2u);
  EXPECT_EQ(report->explanation.indices, (std::vector<size_t>{2, 1}));
  EXPECT_TRUE(report->original.reject);
  EXPECT_FALSE(report->after.reject);
}

TEST(MocheTest, AlreadyPassingTestIsReported) {
  Moche engine;
  auto report =
      engine.Explain({1, 2, 3, 4}, {1, 2, 3, 4}, 0.05, {0, 1, 2, 3});
  EXPECT_TRUE(report.status().IsAlreadyPasses());
}

TEST(MocheTest, InvalidPreferenceRejected) {
  Moche engine;
  auto report = engine.Explain({1, 2, 3}, {9, 9, 9}, 0.05, {0, 1});
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

TEST(MocheTest, EmptyInputsRejected) {
  Moche engine;
  EXPECT_FALSE(engine.Explain({}, {1.0}, 0.05, {0}).ok());
  EXPECT_FALSE(engine.Explain({1.0}, {}, 0.05, {}).ok());
}

TEST(MocheTest, RemovalAlwaysReversesTheTest) {
  Rng rng(43);
  Moche engine;
  int explained = 0;
  for (int rep = 0; rep < 40 && explained < 15; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    for (int i = 0; i < 200; ++i) r.push_back(rng.Normal(0, 1));
    for (int i = 0; i < 100; ++i) t.push_back(rng.Normal(0.8, 1.3));
    PreferenceList pref = RandomPreference(t.size(), &rng);
    auto report = engine.Explain(r, t, 0.05, pref);
    if (report.status().IsAlreadyPasses()) continue;
    ASSERT_TRUE(report.ok());
    ++explained;

    KsInstance inst{r, t, 0.05};
    EXPECT_TRUE(ValidateExplanation(inst, report->explanation).ok());
    EXPECT_EQ(report->explanation.size(), report->k);
    EXPECT_LE(report->k_hat, report->k);
  }
  EXPECT_GE(explained, 10);
}

TEST(MocheTest, OptionsAblationsAgreeOnOutput) {
  Rng rng(47);
  std::vector<double> r;
  std::vector<double> t;
  for (int i = 0; i < 150; ++i) r.push_back(rng.Normal(0, 1));
  for (int i = 0; i < 80; ++i) t.push_back(rng.Normal(1.0, 1));
  PreferenceList pref = RandomPreference(t.size(), &rng);

  MocheOptions full;
  MocheOptions no_lb;
  no_lb.use_lower_bound = false;
  MocheOptions no_inc;
  no_inc.incremental_partial_check = false;

  auto a = Moche(full).Explain(r, t, 0.05, pref);
  auto b = Moche(no_lb).Explain(r, t, 0.05, pref);
  auto c = Moche(no_inc).Explain(r, t, 0.05, pref);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->explanation.indices, b->explanation.indices);
  EXPECT_EQ(a->explanation.indices, c->explanation.indices);
  EXPECT_EQ(a->k, b->k);
  EXPECT_EQ(b->k_hat, 1u);  // ablation starts the scan at h = 1
}

TEST(MocheTest, FindExplanationSizeOnly) {
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  Moche engine;
  auto size = engine.FindExplanationSize(r, t, 0.3);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size->k, 2u);
}

TEST(MocheTest, ExplanationIsDeterministic) {
  Rng rng(53);
  std::vector<double> r;
  std::vector<double> t;
  for (int i = 0; i < 120; ++i) r.push_back(rng.Integer(0, 30));
  for (int i = 0; i < 60; ++i) t.push_back(rng.Integer(10, 40));
  const PreferenceList pref = RandomPreference(t.size(), &rng);
  Moche engine;
  auto a = engine.Explain(r, t, 0.05, pref);
  auto b = engine.Explain(r, t, 0.05, pref);
  if (a.status().IsAlreadyPasses()) {
    EXPECT_TRUE(b.status().IsAlreadyPasses());
    return;
  }
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->explanation.indices, b->explanation.indices);
}

TEST(MocheTest, TimingsArePopulated) {
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  auto report = Moche().Explain(r, t, 0.3, {0, 1, 2, 3});
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->size_stats.theorem2_checks, 1u);
}


// A larger alpha means a smaller passing threshold, so qualified subsets
// are rarer and the explanation can only get bigger: k is non-decreasing
// in alpha over the alphas where the test fails.
TEST(MocheTest, ExplanationSizeMonotoneInAlpha) {
  Rng rng(59);
  Moche engine;
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<double> r;
    std::vector<double> t;
    for (int i = 0; i < 150; ++i) r.push_back(rng.Normal(0, 1));
    for (int i = 0; i < 90; ++i) t.push_back(rng.Normal(1.0, 1.2));
    size_t prev_k = 0;
    for (double alpha : {0.01, 0.05, 0.1, 0.2}) {
      auto size = engine.FindExplanationSize(r, t, alpha);
      if (!size.ok()) continue;  // test passes at this (stricter) alpha
      EXPECT_GE(size->k, prev_k) << "alpha=" << alpha;
      prev_k = size->k;
    }
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// report.after recomputed the slow way: T \ I from an index mask, sorted
// into the canonical order (-0.0 before +0.0) by a comparator of the
// test's own, tested with ks::StatisticSorted.
void ExpectAfterMatchesMaskAndSort(const std::vector<double>& reference,
                                   const std::vector<double>& test,
                                   double alpha, const MocheReport& report) {
  std::vector<double> r = reference;
  testing_util::SortCanonical(&r);
  std::vector<unsigned char> removed(test.size(), 0);
  for (size_t idx : report.explanation.indices) removed[idx] = 1;
  std::vector<double> remaining;
  for (size_t i = 0; i < test.size(); ++i) {
    if (!removed[i]) remaining.push_back(test[i]);
  }
  testing_util::SortCanonical(&remaining);
  double location = 0.0;
  const double statistic = ks::StatisticSorted(r, remaining, &location);
  auto threshold = ks::Threshold(alpha, r.size(), remaining.size());
  ASSERT_TRUE(threshold.ok());
  EXPECT_TRUE(SameBits(report.after.statistic, statistic))
      << report.after.statistic << " vs " << statistic;
  EXPECT_TRUE(SameBits(report.after.threshold, *threshold));
  EXPECT_TRUE(SameBits(report.after.location, location))
      << report.after.location << " vs " << location;
  EXPECT_EQ(report.after.m, remaining.size());
  EXPECT_EQ(report.after.n, r.size());
}

// Zero with a random sign, so a sample holds both -0.0 and +0.0.
double SignedZero(Rng* rng) { return rng->Bernoulli(0.5) ? -0.0 : 0.0; }

bool HasBothSignedZeros(const std::vector<double>& v) {
  const auto zero_with_sign = [&](bool negative) {
    return std::any_of(v.begin(), v.end(), [&](double x) {
      return x == 0.0 && std::signbit(x) == negative;
    });
  };
  return zero_with_sign(true) && zero_with_sign(false);
}

// The re-check builds T \ I by merging the explained values out of the
// sorted window by bit key, also when the window holds both signed zeros.
// report.after must equal the mask-and-sort oracle bit for bit, through both
// workspace entry points sharing one recycled workspace.
TEST(MocheTest, AfterOutcomeMatchesMaskAndSortBitForBit) {
  struct Case {
    std::string name;
    std::vector<double> reference;
    std::vector<double> test;
    PreferenceList pref;
  };
  Rng rng(61);
  std::vector<Case> cases;

  {  // Tied and rounded data, n != m.
    Case c{"tied_rounded", {}, {}, {}};
    for (int i = 0; i < 240; ++i) {
      c.reference.push_back(std::round(rng.Normal(0, 1) * 4) / 4);
    }
    for (int i = 0; i < 130; ++i) {
      c.test.push_back(std::round(rng.Normal(0.7, 1.2) * 4) / 4);
    }
    c.pref = RandomPreference(c.test.size(), &rng);
    cases.push_back(std::move(c));
  }
  // T holds both signed zeros in excess, against R without and with zeros.
  // Only removing zeros helps, so the after-test's maximum stays at 0; with
  // no zeros in R its location is the first zero left in T \ I, sign and
  // all.
  for (int variant = 0; variant < 8; ++variant) {
    const bool reference_zeros = variant % 2 == 1;
    Case c{reference_zeros ? "signed_zeros_r_with_zeros"
                           : "signed_zeros_r_without_zeros",
           {}, {}, {}};
    for (int i = 0; i < 150; ++i) {
      c.reference.insert(c.reference.end(), {1.0, 2.0});
    }
    for (int i = 0; reference_zeros && i < 30; ++i) {
      c.reference.push_back(SignedZero(&rng));
    }
    for (int i = 0; i < 15; ++i) c.test.insert(c.test.end(), {1.0, 2.0});
    for (int i = 0; i < 40; ++i) c.test.push_back(SignedZero(&rng));
    rng.Shuffle(&c.test);
    ASSERT_TRUE(HasBothSignedZeros(c.test));
    ASSERT_EQ(HasBothSignedZeros(c.reference), reference_zeros);
    c.pref = RandomPreference(c.test.size(), &rng);
    cases.push_back(std::move(c));
  }
  {  // The explanation removes every copy of one value: both 8s go first.
    Case c{"removes_every_copy", {}, {}, {}};
    for (int v = 1; v <= 5; ++v) {
      for (int i = 0; i < 60; ++i) c.reference.push_back(v);
      for (int i = 0; i < 8; ++i) c.test.push_back(v);
    }
    for (int i = 0; i < 20; ++i) c.test.push_back(9.0);
    c.test.push_back(8.0);
    c.test.push_back(8.0);
    c.pref = RandomPreference(c.test.size(), &rng);
    std::stable_partition(c.pref.begin(), c.pref.end(),
                          [&](size_t i) { return c.test[i] == 8.0; });
    cases.push_back(std::move(c));
  }
  {  // m - k = 1: only one of five far points may stay.
    Case c{"one_point_remains", {}, {}, {}};
    for (int i = 0; i < 1000; ++i) c.reference.push_back(rng.Normal(0, 1));
    c.test = {50.0, 51.0, 50.0, 52.0, 53.0};
    c.pref = RandomPreference(c.test.size(), &rng);
    cases.push_back(std::move(c));
  }

  const double alpha = 0.05;
  const Moche engine;
  ExplainWorkspace workspace;
  MocheReport report;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto prepared = engine.Prepare(c.reference, alpha);
    ASSERT_TRUE(prepared.ok());
    ASSERT_TRUE(engine
                    .ExplainInto(c.reference, c.test, alpha, c.pref,
                                 &workspace, &report)
                    .ok());
    ExpectAfterMatchesMaskAndSort(c.reference, c.test, alpha, report);
    const std::vector<size_t> indices = report.explanation.indices;

    if (c.name == "removes_every_copy") {
      ASSERT_GE(indices.size(), 2u);
      EXPECT_EQ(c.test[indices[0]], 8.0);
      EXPECT_EQ(c.test[indices[1]], 8.0);
    } else if (c.name == "one_point_remains") {
      EXPECT_EQ(report.k, c.test.size() - 1);
    }
    EXPECT_NE(c.reference.size(), c.test.size());

    ASSERT_TRUE(engine
                    .ExplainPreparedInto(*prepared, c.test, c.pref,
                                         &workspace, &report)
                    .ok());
    EXPECT_EQ(report.explanation.indices, indices);
    ExpectAfterMatchesMaskAndSort(c.reference, c.test, alpha, report);
  }
}

}  // namespace
}  // namespace moche
