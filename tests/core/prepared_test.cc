// The prepared-instance API: Moche::Prepare sorts/validates the reference
// once, ExplainPreparedInto reuses it per test window. Its contract is that
// reports are bit-identical to the one-shot Explain on the same inputs.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/moche.h"
#include "sketch/sketched_reference.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace moche {
namespace {

void ExpectSameReport(const MocheReport& a, const MocheReport& b) {
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.k_hat, b.k_hat);
  EXPECT_EQ(a.explanation.indices, b.explanation.indices);
  EXPECT_DOUBLE_EQ(a.original.statistic, b.original.statistic);
  EXPECT_DOUBLE_EQ(a.original.threshold, b.original.threshold);
  EXPECT_DOUBLE_EQ(a.original.location, b.original.location);
  EXPECT_EQ(a.original.reject, b.original.reject);
  EXPECT_DOUBLE_EQ(a.after.statistic, b.after.statistic);
  EXPECT_EQ(a.after.reject, b.after.reject);
}

// One ExplainPreparedInto call on a fresh workspace and report.
Result<MocheReport> ExplainPreparedFresh(const Moche& engine,
                                         const PreparedReference& prepared,
                                         const std::vector<double>& test,
                                         const PreferenceList& preference) {
  ExplainWorkspace workspace;
  MocheReport report;
  MOCHE_RETURN_IF_ERROR(engine.ExplainPreparedInto(prepared, test, preference,
                                                   &workspace, &report));
  return report;
}

TEST(PreparedReferenceTest, PrepareValidatesInputs) {
  Moche engine;
  EXPECT_TRUE(engine.Prepare({}, 0.05).status().IsInvalidArgument());
  EXPECT_TRUE(engine.Prepare({1.0, 2.0}, 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(engine.Prepare({1.0, 2.0}, 2.5).status().IsInvalidArgument());

  auto prepared = engine.Prepare({3.0, 1.0, 2.0}, 0.05);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->sorted_reference(),
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(prepared->alpha(), 0.05);
}

TEST(PreparedReferenceTest, MatchesExplainOnPaperExample) {
  const std::vector<double> r{14, 14, 14, 14, 20, 20, 20, 20};
  const std::vector<double> t{13, 13, 12, 20};
  Moche engine;
  auto direct = engine.Explain(r, t, 0.3, {3, 2, 1, 0});
  ASSERT_TRUE(direct.ok());

  auto prepared = engine.Prepare(r, 0.3);
  ASSERT_TRUE(prepared.ok());
  auto via_prepared = ExplainPreparedFresh(engine, *prepared, t, {3, 2, 1, 0});
  ASSERT_TRUE(via_prepared.ok());
  ExpectSameReport(*direct, *via_prepared);
  EXPECT_EQ(via_prepared->explanation.indices, (std::vector<size_t>{2, 1}));
}

TEST(PreparedReferenceTest, OneReferenceManyWindowsMatchesExplain) {
  // The motivating workload: one reference sample, many test windows sliced
  // from the same stream. Every window's report must equal the one-shot
  // Explain.
  Rng rng(71);
  std::vector<double> reference;
  for (int i = 0; i < 200; ++i) reference.push_back(rng.Normal(0, 1));

  Moche engine;
  auto prepared = engine.Prepare(reference, 0.05);
  ASSERT_TRUE(prepared.ok());

  int explained = 0;
  for (int window = 0; window < 12; ++window) {
    std::vector<double> test;
    const double shift = 0.5 + 0.1 * window;
    for (int i = 0; i < 80; ++i) test.push_back(rng.Normal(shift, 1.1));
    PreferenceList pref = RandomPreference(test.size(), &rng);

    auto direct = engine.Explain(reference, test, 0.05, pref);
    auto via_prepared = ExplainPreparedFresh(engine, *prepared, test, pref);
    ASSERT_EQ(direct.ok(), via_prepared.ok()) << "window " << window;
    if (!direct.ok()) {
      EXPECT_EQ(direct.status().code(), via_prepared.status().code());
      continue;
    }
    ++explained;
    ExpectSameReport(*direct, *via_prepared);
  }
  EXPECT_GE(explained, 8);
}

TEST(WindowBatchTest, ValidatesBatchShapeAndContents) {
  // EvaluateBatchSketched's batch validator.
  Moche engine;
  const std::vector<double> reference{1.0, 2.0, 3.0, 4.0};
  auto sketched = sketch::SketchedReference::FromSample(reference, 0.05);
  ASSERT_TRUE(sketched.ok());
  ExplainWorkspace workspace;
  std::vector<sketch::SketchTriage> triages;
  // Evaluates `batch` into two stale outputs.
  const auto evaluate = [&](const WindowBatch& batch) {
    triages.assign(2, sketch::SketchTriage{});
    return engine.EvaluateBatchSketched(*sketched, batch, &workspace, &triages);
  };

  // Empty batch: OK, outputs cleared.
  EXPECT_TRUE(evaluate(WindowBatch{}).ok());
  EXPECT_TRUE(triages.empty());

  const double data[4] = {1.0, 2.0, 3.0, 4.0};
  const double bad[4] = {1.0, 2.0,
                         std::numeric_limits<double>::quiet_NaN(), 4.0};
  const WindowBatch malformed[] = {
      WindowBatch{data, 2, 0},     // count > 0 with width == 0
      WindowBatch{nullptr, 2, 2},  // count > 0 with null data
      // A non-finite value anywhere in the batch poisons the whole call
      // (one SIMD validation pass over the flat buffer).
      WindowBatch{bad, 2, 2},
  };
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(evaluate(malformed[i]).IsInvalidArgument()) << "case " << i;
    EXPECT_EQ(triages.size(), 2u);  // untouched
  }
}

TEST(WindowBatchTest, RejectsOverflowingShape) {
  // count * width wraps to 0 in size_t: the finiteness scan would cover
  // nothing and the per-window loop would run off the buffer.
  const Moche engine;
  const std::vector<double> reference{1.0, 2.0, 3.0, 4.0};
  auto sketched = sketch::SketchedReference::FromSample(reference, 0.05);
  ASSERT_TRUE(sketched.ok());
  const double data[2] = {1.0, 2.0};
  const size_t half = std::numeric_limits<size_t>::max() / 2 + 1;
  ExplainWorkspace workspace;
  for (const WindowBatch& batch :
       {WindowBatch{data, half, 2}, WindowBatch{data, 2, half}}) {
    std::vector<sketch::SketchTriage> triages(1);
    EXPECT_TRUE(engine
                    .EvaluateBatchSketched(*sketched, batch, &workspace,
                                           &triages)
                    .IsInvalidArgument());
    EXPECT_EQ(triages.size(), 1u);  // untouched
  }
}

TEST(PreparedReferenceTest, AlreadyPassingAndValidationErrors) {
  Moche engine;
  auto prepared = engine.Prepare({1, 2, 3, 4}, 0.05);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(ExplainPreparedFresh(engine, *prepared, {1, 2, 3, 4},
                                   {0, 1, 2, 3})
                  .status()
                  .IsAlreadyPasses());
  // bad preference (not a permutation of [0, m))
  EXPECT_TRUE(ExplainPreparedFresh(engine, *prepared, {9, 9, 9}, {0, 1})
                  .status()
                  .IsInvalidArgument());
  // empty test window
  EXPECT_TRUE(ExplainPreparedFresh(engine, *prepared, {}, {})
                  .status()
                  .IsInvalidArgument());
}

// Prepare sorts -0.0 before +0.0, whatever the input order; a snapshot
// written by an older std::sort may hold its zero run in any order, and a
// restore rewrites that run to what Prepare would have written.
TEST(PreparedReferenceTest, ZeroRunIsCanonicalAfterPrepareAndRestore) {
  const auto negative_zeros_first = [](const std::vector<double>& v) {
    const std::vector<double> want = {-2.0, -0.0, -0.0, 0.0, 0.0, 3.0};
    if (v.size() != want.size()) return false;
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] != want[i] || std::signbit(v[i]) != std::signbit(want[i])) {
        return false;
      }
    }
    return true;
  };
  const Moche engine;
  auto prepared = engine.Prepare({0.0, 3.0, -0.0, 0.0, -2.0, -0.0}, 0.05);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(negative_zeros_first(prepared->sorted_reference()));

  std::string bytes;
  bin::AppendDoubleLe(0.05, &bytes);
  bin::AppendDoubleArray({-2.0, 0.0, -0.0, 0.0, -0.0, 3.0}, &bytes);
  bin::Reader reader(bytes);
  auto restored = PreparedReference::DeserializeFrom(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(negative_zeros_first(restored->sorted_reference()));
}

TEST(CumulativeFrameTest, BuildRejectsNonFiniteBeforeSorting) {
  // Regression: Build must validate before sorting — std::sort on a range
  // containing NaN is undefined behavior.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(CumulativeFrame::Build({1.0, nan, 0.5}, {1.0})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(CumulativeFrame::Build({1.0}, {2.0, nan})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace moche
