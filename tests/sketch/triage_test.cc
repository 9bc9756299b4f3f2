// Certified-triage properties (src/sketch/sketched_reference.h and the
// Moche::*Sketched entry points).
//
// The contract under test: a kCertainPass / kCertainFail verdict is
// CERTIFIED — the exact ks::Run decision on the same (reference, window)
// is guaranteed to agree. A disagreement is a hard bug, never flaky test
// noise, because the bracket is derived from the sketch's exact integer
// rank bound and the margin only ever widens the uncertain band. The
// randomized sweep below therefore asserts agreement on every certified
// verdict, across regimes chosen to produce all three verdicts.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/moche.h"
#include "ks/ks_test.h"
#include "sketch/sketched_reference.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace moche {
namespace {

using sketch::KllOptions;
using sketch::SketchedReference;
using sketch::SketchTriage;
using sketch::TriageVerdict;

SketchedReference MakeSketched(const std::vector<double>& reference,
                               double alpha, size_t k) {
  KllOptions options;
  options.capacity = k;
  auto sketched = SketchedReference::FromSample(reference, alpha, options);
  EXPECT_TRUE(sketched.ok()) << sketched.status().message();
  return std::move(*sketched);
}

// The full merged sweep StatisticAgainstSorted replaced: every point of the
// union grid, G recomputed as cumulative weight / n at each one. The
// endpoint sweep must return exactly this double.
double MergedSweepOracle(const SketchedReference& sketched,
                         const std::vector<double>& test_sorted) {
  std::vector<double> values;
  std::vector<double> cumulative_weights;
  sketched.sketch().FlattenTo(&values, &cumulative_weights);
  const double n = static_cast<double>(sketched.count());
  const double m = static_cast<double>(test_sorted.size());
  size_t i = 0;
  size_t j = 0;
  double d = 0.0;
  while (i < values.size() || j < test_sorted.size()) {
    double x;
    if (i < values.size() &&
        (j >= test_sorted.size() || values[i] <= test_sorted[j])) {
      x = values[i];
    } else {
      x = test_sorted[j];
    }
    if (i < values.size() && values[i] == x) ++i;
    while (j < test_sorted.size() && test_sorted[j] == x) ++j;
    const double g = (i > 0 ? cumulative_weights[i - 1] : 0.0) / n;
    const double ft = static_cast<double>(j) / m;
    const double diff = g > ft ? g - ft : ft - g;
    if (diff > d) d = diff;
  }
  return d;
}

// Sorts `window` and requires the endpoint sweep to equal the oracle bit
// for bit.
void ExpectSweepParity(const SketchedReference& sketched,
                       std::vector<double> window, const std::string& what) {
  std::sort(window.begin(), window.end());
  const double got = sketched.StatisticAgainstSorted(window);
  const double want = MergedSweepOracle(sketched, window);
  EXPECT_EQ(bin::DoubleBits(got), bin::DoubleBits(want))
      << what << ": endpoint sweep " << got << " vs merged sweep " << want;
}

TEST(SketchTriageTest, CertifiedVerdictsAgreeWithExactKs) {
  Rng rng(101);
  const double alpha = 0.05;
  const size_t n = 4000;
  std::vector<double> reference;
  reference.reserve(n);
  for (size_t i = 0; i < n; ++i) reference.push_back(rng.Normal(0.0, 1.0));

  const Moche engine{MocheOptions{}};
  // A deliberately coarse sketch (k = 128, epsilon ~ 0.04) keeps the
  // uncertain band wide but narrower than the KS threshold itself, so the
  // shift ladder below exercises all three verdicts. (At k = 32 epsilon
  // exceeds the m = 40 threshold and a certified pass cannot exist.)
  const SketchedReference sketched = MakeSketched(reference, alpha, 128);
  ASSERT_GT(sketched.epsilon(), 0.0);

  size_t certified = 0;
  size_t uncertain = 0;
  bool saw_pass = false;
  bool saw_fail = false;
  for (int trial = 0; trial < 200; ++trial) {
    // Shifts from 0 (clear pass) to 3 sigma (clear fail), dense in the
    // middle where the bracket straddles the threshold.
    const double shift = 3.0 * static_cast<double>(trial % 25) / 24.0;
    const size_t m = 40 + static_cast<size_t>(trial % 3) * 40;
    std::vector<double> window;
    window.reserve(m);
    for (size_t j = 0; j < m; ++j) {
      window.push_back(rng.Normal(shift, 1.0));
    }

    auto triage = engine.TriageSketched(sketched, window);
    ASSERT_TRUE(triage.ok()) << triage.status().message();
    auto exact = ks::Run(reference, window, alpha);
    ASSERT_TRUE(exact.ok()) << exact.status().message();

    // The bracket must contain the true statistic, always.
    ASSERT_LE(triage->lower, exact->statistic + 1e-12);
    ASSERT_GE(triage->upper, exact->statistic - 1e-12);
    ASSERT_EQ(triage->n, n);
    ASSERT_EQ(triage->m, m);

    switch (triage->verdict) {
      case TriageVerdict::kCertainPass:
        ASSERT_FALSE(exact->reject)
            << "certified pass but exact KS rejects (shift " << shift
            << ", m " << m << ") — hard bug";
        ++certified;
        saw_pass = true;
        break;
      case TriageVerdict::kCertainFail:
        ASSERT_TRUE(exact->reject)
            << "certified fail but exact KS passes (shift " << shift
            << ", m " << m << ") — hard bug";
        ++certified;
        saw_fail = true;
        break;
      case TriageVerdict::kUncertain:
        ++uncertain;
        break;
    }
  }
  // The regimes must actually exercise the triage: both certified verdicts
  // and a non-trivial uncertain band.
  EXPECT_TRUE(saw_pass);
  EXPECT_TRUE(saw_fail);
  EXPECT_GT(certified, 0u);
  EXPECT_GT(uncertain, 0u);
}

TEST(SketchTriageTest, BatchedTriageMatchesPerWindowTriage) {
  Rng rng(103);
  const double alpha = 0.05;
  std::vector<double> reference;
  for (int i = 0; i < 2000; ++i) reference.push_back(rng.Uniform(0.0, 1.0));
  const Moche engine{MocheOptions{}};
  const SketchedReference sketched = MakeSketched(reference, alpha, 64);

  const size_t count = 9;
  const size_t width = 50;
  std::vector<double> flat;
  for (size_t w = 0; w < count; ++w) {
    const double shift = 0.15 * static_cast<double>(w % 3);
    for (size_t j = 0; j < width; ++j) {
      flat.push_back(rng.Uniform(shift, 1.0 + shift));
    }
  }
  WindowBatch batch;
  batch.data = flat.data();
  batch.count = count;
  batch.width = width;

  ExplainWorkspace workspace;
  std::vector<SketchTriage> triages;
  ASSERT_TRUE(
      engine.EvaluateBatchSketched(sketched, batch, &workspace, &triages)
          .ok());
  ASSERT_EQ(triages.size(), count);
  for (size_t w = 0; w < count; ++w) {
    const std::vector<double> window(flat.begin() + w * width,
                                     flat.begin() + (w + 1) * width);
    auto single = engine.TriageSketched(sketched, window);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(triages[w].verdict, single->verdict);
    EXPECT_EQ(triages[w].statistic, single->statistic);  // bit-identical
    EXPECT_EQ(triages[w].lower, single->lower);
    EXPECT_EQ(triages[w].upper, single->upper);
  }

  // One non-finite value fails the whole batch.
  flat[3] = std::nan("");
  EXPECT_FALSE(
      engine.EvaluateBatchSketched(sketched, batch, &workspace, &triages)
          .ok());
}

TEST(SketchTriageTest, SerializeRoundTripPreservesTriage) {
  Rng rng(109);
  const double alpha = 0.02;
  std::vector<double> reference;
  for (int i = 0; i < 1500; ++i) reference.push_back(rng.Exponential(1.0));
  const SketchedReference sketched = MakeSketched(reference, alpha, 32);

  std::string bytes;
  sketched.SerializeTo(&bytes);
  bin::Reader reader(bytes);
  auto restored = SketchedReference::DeserializeFrom(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_TRUE(reader.AtEnd());
  std::string again;
  restored->SerializeTo(&again);
  EXPECT_EQ(bytes, again);

  std::vector<double> window;
  for (int i = 0; i < 60; ++i) window.push_back(rng.Exponential(0.7));
  std::sort(window.begin(), window.end());
  EXPECT_EQ(restored->StatisticAgainstSorted(window),
            sketched.StatisticAgainstSorted(window));
  const SketchTriage a = sketched.Classify(0.3, window.size());
  const SketchTriage b = restored->Classify(0.3, window.size());
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.epsilon, b.epsilon);
}

TEST(SketchTriageTest, EndpointSweepMatchesMergedSweepBitForBit) {
  Rng rng(127);
  // Sketches from exact (n <= k, no compaction) to heavily compacted, over
  // a continuous reference and over a tied one that contains both zeros.
  const double alphabet[] = {-3.0, -1.5, -0.0, 0.0, 0.25, 1.0, 2.0, 7.5};
  for (size_t k : {8, 32, 256}) {
    for (size_t n : {1, 2, 50, 3000}) {
      for (bool tied : {false, true}) {
        std::vector<double> reference;
        for (size_t i = 0; i < n; ++i) {
          reference.push_back(
              tied ? alphabet[rng.Integer(0, 7)] : rng.Normal(0.0, 1.0));
        }
        const SketchedReference sketched = MakeSketched(reference, 0.05, k);
        const std::vector<double>& summary = sketched.values();
        const std::string what = "k=" + std::to_string(k) +
                                 " n=" + std::to_string(n) +
                                 (tied ? " tied" : " continuous");
        for (int trial = 0; trial < 20; ++trial) {
          const size_t m = static_cast<size_t>(rng.Integer(1, 120));
          // Random windows, from a shifted distribution so some runs of
          // summary points lie below, between and above the window.
          std::vector<double> window;
          for (size_t j = 0; j < m; ++j) {
            window.push_back(rng.Normal(rng.Uniform(-1.0, 1.0), 1.5));
          }
          ExpectSweepParity(sketched, window, what + " random");
          // Tied windows drawing from the alphabet and from the summary
          // itself, so test values coincide with grid points.
          window.clear();
          for (size_t j = 0; j < m; ++j) {
            window.push_back(
                rng.Bernoulli(0.5)
                    ? alphabet[rng.Integer(0, 7)]
                    : summary[static_cast<size_t>(rng.Integer(
                          0, static_cast<int64_t>(summary.size()) - 1))]);
          }
          ExpectSweepParity(sketched, window, what + " tied");
          // Windows entirely below and entirely above the summary.
          window.assign(m, summary.front() - 1.0);
          window.back() = summary.front() - 0.5;
          ExpectSweepParity(sketched, window, what + " below");
          window.assign(m, summary.back() + 1.0);
          window.front() = summary.back() + 0.5;
          ExpectSweepParity(sketched, window, what + " above");
        }
        // m = 1: at the extremes, on each summary point, and between.
        for (size_t i = 0; i < summary.size(); ++i) {
          ExpectSweepParity(sketched, {summary[i]}, what + " m=1 on");
          if (i + 1 < summary.size()) {
            ExpectSweepParity(sketched, {(summary[i] + summary[i + 1]) / 2},
                              what + " m=1 between");
          }
        }
        ExpectSweepParity(sketched, {summary.front() - 1.0}, what + " m=1 <");
        ExpectSweepParity(sketched, {summary.back() + 1.0}, what + " m=1 >");
        // Signed zeros on either side of a zero grid point.
        ExpectSweepParity(sketched, {-0.0, 0.0, -0.0}, what + " zeros");
        ExpectSweepParity(sketched, {-0.0}, what + " -0.0");
        ExpectSweepParity(sketched, {0.0, 0.0, 1.0}, what + " +0.0");
      }
    }
  }
}

TEST(SketchTriageTest, EndpointSweepOnAOneValueSummary) {
  // Every reference value equal (one of them written as -0.0): the summary
  // is a single grid point at 0 carrying all the weight.
  std::vector<double> reference(500, 0.0);
  reference[7] = -0.0;
  const SketchedReference sketched = MakeSketched(reference, 0.05, 8);
  ASSERT_EQ(sketched.values().size(), 1u);
  for (const std::vector<double>& window :
       std::vector<std::vector<double>>{{-0.0},
                                        {0.0},
                                        {-1.0},
                                        {1.0},
                                        {-1.0, 1.0},
                                        {-0.0, 0.0, 0.0, 2.0},
                                        {-5.0, -4.0, -0.0, 3.0, 3.0},
                                        {1.0, 2.0, 3.0}}) {
    ExpectSweepParity(sketched, window, "one-value summary");
  }
  // A one-observation reference has the same one-point summary shape.
  ExpectSweepParity(MakeSketched({2.5}, 0.05, 8), {1.0, 2.5, 4.0},
                    "one-observation reference");
}

// More capacity can only shrink the uncertain band: a window certified at
// coarse k must stay certified (same direction) at finer k.
TEST(SketchTriageTest, FinerSketchesNeverLoseCertifications) {
  Rng rng(113);
  const double alpha = 0.05;
  std::vector<double> reference;
  for (int i = 0; i < 4000; ++i) reference.push_back(rng.Uniform(0.0, 1.0));
  const Moche engine{MocheOptions{}};
  const SketchedReference coarse = MakeSketched(reference, alpha, 16);
  const SketchedReference fine = MakeSketched(reference, alpha, 512);
  ASSERT_LT(fine.epsilon(), coarse.epsilon());

  for (int trial = 0; trial < 60; ++trial) {
    const double shift = 0.8 * static_cast<double>(trial) / 59.0;
    std::vector<double> window;
    for (int j = 0; j < 80; ++j) {
      window.push_back(rng.Uniform(shift, 1.0 + shift));
    }
    auto coarse_triage = engine.TriageSketched(coarse, window);
    auto fine_triage = engine.TriageSketched(fine, window);
    ASSERT_TRUE(coarse_triage.ok() && fine_triage.ok());
    auto exact = ks::Run(reference, window, alpha);
    ASSERT_TRUE(exact.ok());
    // Certified verdicts at ANY capacity agree with the exact decision, so
    // certifications can change only by leaving the uncertain band.
    for (const SketchTriage* t : {&*coarse_triage, &*fine_triage}) {
      if (t->verdict == TriageVerdict::kCertainPass) {
        ASSERT_FALSE(exact->reject);
      } else if (t->verdict == TriageVerdict::kCertainFail) {
        ASSERT_TRUE(exact->reject);
      }
    }
  }
}

}  // namespace
}  // namespace moche
