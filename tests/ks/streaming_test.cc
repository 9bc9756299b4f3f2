#include "ks/streaming.h"

// testing_alloc.h defines the counting global operator new, so this file
// must be this binary's only TU including it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>

#include <gtest/gtest.h>

#include "testing_alloc.h"
#include "testing_util.h"
#include "util/rng.h"

namespace moche {
namespace {

using testing_util::kTightTol;

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// The naive integer-score statistic: max |m * C_R(x) - n * C_W(x)| over
// every reference and window value, by counting, divided as the detector
// divides.
double IntegerScoreOracle(const std::vector<double>& ref,
                          const std::deque<double>& window) {
  const int64_t n = static_cast<int64_t>(ref.size());
  const int64_t m = static_cast<int64_t>(window.size());
  int64_t best = 0;
  auto score_at = [&](double x) {
    int64_t c_r = 0;
    int64_t c_w = 0;
    for (double r : ref) c_r += r <= x;
    for (double w : window) c_w += w <= x;
    best = std::max(best, std::abs(m * c_r - n * c_w));
  };
  for (double x : ref) score_at(x);
  for (double x : window) score_at(x);
  return static_cast<double>(best) /
         (static_cast<double>(n) * static_cast<double>(m));
}

// Pushes `values` through a detector over `ref` with window `m` and
// compares the statistic with the oracle, bit for bit, at every full step.
void ExpectOracleAlongStream(const std::vector<double>& ref, size_t m,
                             const std::vector<double>& values) {
  auto stream = StreamingKs::Create(ref, m, 0.05);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  std::deque<double> mirror;
  for (size_t step = 0; step < values.size(); ++step) {
    ASSERT_TRUE(stream->Push(values[step]).ok());
    mirror.push_back(values[step]);
    if (mirror.size() > m) mirror.pop_front();
    if (!stream->WindowFull()) continue;
    auto outcome = stream->CurrentOutcome();
    ASSERT_TRUE(outcome.ok());
    const double expected = IntegerScoreOracle(ref, mirror);
    ASSERT_EQ(Bits(outcome->statistic), Bits(expected))
        << "step " << step << ": " << outcome->statistic << " vs "
        << expected;
  }
}

TEST(StreamingKsTest, ValidatesConstruction) {
  EXPECT_FALSE(StreamingKs::Create({}, 10, 0.05).ok());
  EXPECT_FALSE(StreamingKs::Create({1.0}, 0, 0.05).ok());
  EXPECT_FALSE(StreamingKs::Create({1.0}, 10, 0.0).ok());
  EXPECT_FALSE(StreamingKs::Create({1.0, NAN}, 10, 0.05).ok());
  EXPECT_TRUE(StreamingKs::Create({1.0, 2.0}, 10, 0.05).ok());
  // n * m must stay <= 2^53, and nothing is allocated from the window
  // size, so the largest accepted window is cheap to create.
  const std::vector<double> eight(8, 1.0);
  EXPECT_TRUE(StreamingKs::Create(eight, size_t{1} << 50, 0.05).ok());
  EXPECT_FALSE(StreamingKs::Create(eight, (size_t{1} << 50) + 1, 0.05).ok());
  EXPECT_FALSE(
      StreamingKs::Create(eight, std::numeric_limits<size_t>::max(), 0.05)
          .ok());
}

TEST(StreamingKsTest, RejectsNonFiniteObservations) {
  auto stream = StreamingKs::Create({1, 2, 3}, 2, 0.05);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE(stream->Push(NAN).ok());
  EXPECT_FALSE(stream->Push(INFINITY).ok());
  EXPECT_TRUE(stream->Push(1.0).ok());
}

TEST(StreamingKsTest, OutcomeRequiresFullWindow) {
  auto stream = StreamingKs::Create({1, 2, 3}, 3, 0.05);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE(stream->WindowFull());
  EXPECT_FALSE(stream->CurrentOutcome().ok());
  EXPECT_FALSE(stream->Drifted());
  ASSERT_TRUE(stream->Push(1.0).ok());
  ASSERT_TRUE(stream->Push(2.0).ok());
  ASSERT_TRUE(stream->Push(3.0).ok());
  EXPECT_TRUE(stream->WindowFull());
  EXPECT_TRUE(stream->CurrentOutcome().ok());
}

TEST(StreamingKsTest, IdenticalWindowHasZeroStatistic) {
  const std::vector<double> ref{1, 2, 3, 4};
  auto stream = StreamingKs::Create(ref, 4, 0.05);
  ASSERT_TRUE(stream.ok());
  for (double v : ref) ASSERT_TRUE(stream->Push(v).ok());
  auto outcome = stream->CurrentOutcome();
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->statistic, 0.0);
  EXPECT_FALSE(outcome->reject);
}

// The core property: the incremental statistic equals a from-scratch
// ks::Statistic on the current window at every step, across a long random
// stream with duplicates and evictions.
TEST(StreamingKsTest, MatchesBatchStatisticAtEveryStep) {
  Rng rng(77);
  std::vector<double> ref;
  for (int i = 0; i < 60; ++i) {
    ref.push_back(static_cast<double>(rng.Integer(0, 12)));
  }
  const size_t window = 25;
  auto stream = StreamingKs::Create(ref, window, 0.05);
  ASSERT_TRUE(stream.ok());

  std::deque<double> mirror;
  for (int step = 0; step < 400; ++step) {
    // mixture: mostly same support, occasionally shifted (drift)
    const double v = step < 200
                         ? static_cast<double>(rng.Integer(0, 12))
                         : static_cast<double>(rng.Integer(6, 18));
    ASSERT_TRUE(stream->Push(v).ok());
    mirror.push_back(v);
    if (mirror.size() > window) mirror.pop_front();

    if (stream->WindowFull()) {
      auto outcome = stream->CurrentOutcome();
      ASSERT_TRUE(outcome.ok());
      const double expected =
          ks::Statistic(ref, {mirror.begin(), mirror.end()});
      ASSERT_NEAR(outcome->statistic, expected, kTightTol) << "step " << step;
    }
  }
}

TEST(StreamingKsTest, WindowContentsMatchArrivalOrder) {
  auto stream = StreamingKs::Create({5.0, 6.0}, 3, 0.05);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->Push(1.0).ok());
  ASSERT_TRUE(stream->Push(2.0).ok());
  ASSERT_TRUE(stream->Push(3.0).ok());
  EXPECT_EQ(stream->WindowContents(), (std::vector<double>{1, 2, 3}));
  ASSERT_TRUE(stream->Push(4.0).ok());  // evicts 1.0
  EXPECT_EQ(stream->WindowContents(), (std::vector<double>{2, 3, 4}));
}

TEST(StreamingKsTest, WindowContentsIntoReusesBufferAcrossWraparound) {
  auto stream = StreamingKs::Create({5.0, 6.0}, 3, 0.05);
  ASSERT_TRUE(stream.ok());
  std::vector<double> snapshot{99.0, 99.0, 99.0, 99.0};  // stale contents
  stream->WindowContentsInto(&snapshot);
  EXPECT_TRUE(snapshot.empty());
  // Push far past capacity so the ring wraps several times; the reused
  // buffer must always equal the from-scratch WindowContents.
  for (int i = 1; i <= 11; ++i) {
    ASSERT_TRUE(stream->Push(static_cast<double>(i)).ok());
    stream->WindowContentsInto(&snapshot);
    EXPECT_EQ(snapshot, stream->WindowContents()) << "push " << i;
  }
  EXPECT_EQ(snapshot, (std::vector<double>{9, 10, 11}));
}

TEST(StreamingKsTest, DetectsDriftAfterDistributionShift) {
  Rng rng(91);
  std::vector<double> ref;
  for (int i = 0; i < 300; ++i) ref.push_back(rng.Normal(0.0, 1.0));
  const size_t window = 100;
  auto stream = StreamingKs::Create(ref, window, 0.05);
  ASSERT_TRUE(stream.ok());

  // in-distribution phase: fill the window, expect no drift
  for (size_t i = 0; i < window; ++i) {
    ASSERT_TRUE(stream->Push(rng.Normal(0.0, 1.0)).ok());
  }
  EXPECT_FALSE(stream->Drifted());

  // shifted phase: drift must fire once the window fills with N(3,1)
  bool fired = false;
  for (int i = 0; i < 150 && !fired; ++i) {
    ASSERT_TRUE(stream->Push(rng.Normal(3.0, 1.0)).ok());
    fired = stream->Drifted();
  }
  EXPECT_TRUE(fired);
}

TEST(StreamingKsTest, HeavyDuplicateStream) {
  // Only three distinct values; exercises the equal-key paths hard.
  Rng rng(13);
  std::vector<double> ref;
  for (int i = 0; i < 40; ++i) {
    ref.push_back(static_cast<double>(rng.Integer(0, 2)));
  }
  const size_t window = 15;
  auto stream = StreamingKs::Create(ref, window, 0.05);
  ASSERT_TRUE(stream.ok());
  std::deque<double> mirror;
  for (int step = 0; step < 200; ++step) {
    const double v = static_cast<double>(rng.Integer(0, 2));
    ASSERT_TRUE(stream->Push(v).ok());
    mirror.push_back(v);
    if (mirror.size() > window) mirror.pop_front();
    if (stream->WindowFull()) {
      const double expected =
          ks::Statistic(ref, {mirror.begin(), mirror.end()});
      ASSERT_NEAR(stream->CurrentOutcome()->statistic, expected, kTightTol);
    }
  }
}

// Eviction-heavy differential test: thousands of pushes through a full
// window, drawn from a tiny value alphabet so nearly every insert/evict
// lands on a reference value or in the gap beside one, checked against a
// from-scratch ks::Statistic recompute at every single tick.
TEST(StreamingKsTest, EvictionHeavyDifferentialAgainstBatch) {
  Rng rng(2024);
  std::vector<double> ref;
  for (int i = 0; i < 120; ++i) {
    ref.push_back(static_cast<double>(rng.Integer(0, 6)));
  }
  const size_t window = 40;
  auto stream = StreamingKs::Create(ref, window, 0.05);
  ASSERT_TRUE(stream.ok());

  std::deque<double> mirror;
  for (int step = 0; step < 4000; ++step) {
    // Drifting mixture over a 7-value alphabet: long stretches of heavy
    // duplication, with the support sliding past both ends of the
    // reference so the below-all and above-all leaves fill and drain.
    const int phase = step / 800;
    const double v =
        static_cast<double>(rng.Integer(phase, phase + 4 + (step % 3)));
    ASSERT_TRUE(stream->Push(v).ok());
    mirror.push_back(v);
    if (mirror.size() > window) mirror.pop_front();

    if (stream->WindowFull()) {
      auto outcome = stream->CurrentOutcome();
      ASSERT_TRUE(outcome.ok());
      const double expected =
          ks::Statistic(ref, {mirror.begin(), mirror.end()});
      ASSERT_NEAR(outcome->statistic, expected, kTightTol) << "step " << step;
    }
  }
}

// Bit-for-bit agreement with the naive integer-score oracle on the shapes
// where a tree over the reference's distinct values could slip: ties
// (including -0.0 against 0.0), a single distinct value, windows wholly
// outside the reference, and the extreme size ratios.
TEST(StreamingKsTest, StatisticMatchesIntegerScoreOracleBitForBit) {
  Rng rng(testing_util::kTestSeed);
  const std::vector<double> alphabet{-1.0, -0.0, 0.0, 1.0, 2.0};
  auto tied = [&](size_t count) {
    std::vector<double> out;
    for (size_t i = 0; i < count; ++i) {
      out.push_back(alphabet[static_cast<size_t>(rng.Integer(0, 4))]);
    }
    return out;
  };
  auto shifted = [](std::vector<double> values, double by) {
    for (double& v : values) v += by;
    return values;
  };

  {
    SCOPED_TRACE("tied alphabet with signed zeros");
    ExpectOracleAlongStream(tied(40), 12, tied(400));
  }
  {
    SCOPED_TRACE("all-equal reference (one distinct value)");
    std::vector<double> values;
    for (int i = 0; i < 200; ++i) {
      values.push_back(static_cast<double>(rng.Integer(2, 4)));
    }
    ExpectOracleAlongStream(std::vector<double>(9, 3.0), 7, values);
  }
  {
    SCOPED_TRACE("windows entirely below, then above, the reference");
    const std::vector<double> ref = tied(30);
    std::vector<double> values = shifted(tied(60), -10.0);
    const std::vector<double> above = shifted(tied(60), 10.0);
    values.insert(values.end(), above.begin(), above.end());
    ExpectOracleAlongStream(ref, 10, values);
  }
  {
    SCOPED_TRACE("m > n");
    ExpectOracleAlongStream(tied(3), 25, tied(300));
  }
  {
    SCOPED_TRACE("m = 1");
    ExpectOracleAlongStream(tied(50), 1, tied(100));
  }
  {
    SCOPED_TRACE("n = 1");
    ExpectOracleAlongStream({0.0}, 9, tied(150));
  }
  {
    SCOPED_TRACE("continuous values, sliding off the reference");
    std::vector<double> ref;
    std::vector<double> values;
    for (int i = 0; i < 80; ++i) ref.push_back(rng.Normal(0.0, 1.0));
    for (int i = 0; i < 600; ++i) {
      values.push_back(rng.Normal(i < 300 ? 0.0 : 2.5, 1.0));
    }
    ExpectOracleAlongStream(ref, 30, values);
  }
}

TEST(StreamingKsTest, SteadyPushAllocatesNothing) {
  Rng rng(testing_util::kTestSeed + 1);
  std::vector<double> ref;
  for (int i = 0; i < 500; ++i) ref.push_back(rng.Normal(0.0, 1.0));
  constexpr size_t kWindow = 64;
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.Normal(0.5, 1.0));
  auto stream = StreamingKs::Create(ref, kWindow, 0.05);
  ASSERT_TRUE(stream.ok());
  for (size_t i = 0; i < kWindow; ++i) {
    ASSERT_TRUE(stream->Push(values[i]).ok());
  }
  ASSERT_TRUE(stream->WindowFull());

  size_t failures = 0;
  size_t drifted = 0;
  testing_alloc::AllocationProbe probe;
  for (size_t i = kWindow; i < values.size(); ++i) {
    failures += !stream->Push(values[i]).ok();
    failures += !stream->CurrentOutcome().ok();
    drifted += stream->Drifted();
  }
  const size_t allocations = probe.Delta();
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(drifted, 0u);  // the probed pushes did real work
}

TEST(StreamingKsTest, ThresholdMatchesBatchFormula) {
  auto stream = StreamingKs::Create({1, 2, 3, 4, 5}, 4, 0.1);
  ASSERT_TRUE(stream.ok());
  for (double v : {9.0, 9.0, 9.0, 9.0}) ASSERT_TRUE(stream->Push(v).ok());
  auto outcome = stream->CurrentOutcome();
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->threshold, *ks::Threshold(0.1, 5, 4));
  EXPECT_TRUE(outcome->reject);  // disjoint supports
  EXPECT_DOUBLE_EQ(outcome->statistic, 1.0);
}

}  // namespace
}  // namespace moche
