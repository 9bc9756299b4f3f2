// Exhaustive oracle for Theorem 3: a multiset S is a partial explanation
// iff some k-subset of T containing S reverses the failed test. We
// enumerate ALL k-subsets of small random instances, collect the passing
// ones ("explanations"), and check PartialExplanationChecker's verdict for
// every candidate of every accept sequence against multiset containment in
// that explanation list.

#include <numeric>

#include <gtest/gtest.h>

#include "core/instance.h"
#include "core/partial.h"
#include "core/size_search.h"
#include "ks/ks_test.h"
#include "util/rng.h"

namespace moche {
namespace {

// All passing k-subsets as per-value-index count vectors (index 1..q).
std::vector<std::vector<int64_t>> EnumerateExplanations(
    const KsInstance& inst, const CumulativeFrame& frame, size_t k) {
  const size_t m = inst.test.size();
  RemovalKs removal(inst.reference, inst.test, inst.alpha);
  std::vector<std::vector<int64_t>> explanations;

  std::vector<size_t> combo(k);
  std::iota(combo.begin(), combo.end(), size_t{0});
  while (true) {
    removal.Reset();
    for (size_t pos : combo) {
      EXPECT_TRUE(removal.RemoveValue(inst.test[pos]).ok());
    }
    if (removal.Passes()) {
      std::vector<int64_t> counts(frame.q() + 1, 0);
      for (size_t pos : combo) {
        auto idx = frame.IndexOfValue(inst.test[pos]);
        EXPECT_TRUE(idx.ok());
        ++counts[*idx];
      }
      explanations.push_back(std::move(counts));
    }
    // next combination
    size_t i = k;
    bool advanced = false;
    while (i-- > 0) {
      if (combo[i] != i + m - k) {
        ++combo[i];
        for (size_t j = i + 1; j < k; ++j) combo[j] = combo[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  return explanations;
}

bool AnyExplanationContains(
    const std::vector<std::vector<int64_t>>& explanations,
    const std::vector<int64_t>& accepted) {
  for (const auto& expl : explanations) {
    bool contains = true;
    for (size_t v = 1; v < accepted.size(); ++v) {
      if (accepted[v] > expl[v]) {
        contains = false;
        break;
      }
    }
    if (contains) return true;
  }
  return false;
}

TEST(PartialExplanationOracleTest, CheckerMatchesExhaustiveEnumeration) {
  Rng rng(71);
  int instances = 0;
  for (int rep = 0; rep < 200 && instances < 20; ++rep) {
    KsInstance inst;
    const int n = static_cast<int>(rng.Integer(4, 20));
    const int m = static_cast<int>(rng.Integer(4, 9));
    for (int i = 0; i < n; ++i) {
      inst.reference.push_back(static_cast<double>(rng.Integer(0, 5)));
    }
    for (int i = 0; i < m; ++i) {
      inst.test.push_back(static_cast<double>(rng.Integer(2, 8)));
    }
    inst.alpha = 0.1;
    auto outcome = RunInstance(inst);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->reject) continue;
    ++instances;

    auto frame = CumulativeFrame::Build(inst.reference, inst.test);
    ASSERT_TRUE(frame.ok());
    BoundsEngine engine(*frame, inst.alpha);
    auto size = SizeSearcher(engine).FindSize();
    ASSERT_TRUE(size.ok());

    const auto explanations = EnumerateExplanations(inst, *frame, size->k);
    ASSERT_FALSE(explanations.empty());

    // Several random accept sequences per instance.
    for (int seq = 0; seq < 5; ++seq) {
      PartialExplanationChecker checker;
      ASSERT_TRUE(checker.Reset(engine, size->k).ok());
      std::vector<int64_t> accepted(frame->q() + 1, 0);
      for (int step = 0; step < 30; ++step) {
        if (checker.accepted_count() == size->k) break;
        const size_t v = static_cast<size_t>(
            rng.Integer(1, static_cast<int64_t>(frame->q())));
        std::vector<int64_t> candidate = accepted;
        ++candidate[v];

        // the candidate multiset must also be a sub-multiset of T
        const bool within_t = candidate[v] <= frame->CountT(v);
        const bool oracle =
            within_t && AnyExplanationContains(explanations, candidate);
        const bool verdict = checker.CandidateFeasible(v);
        ASSERT_EQ(verdict, oracle)
            << "instance " << instances << " seq " << seq << " v=" << v;
        if (verdict) {
          checker.Accept(v);
          accepted = candidate;
        }
      }
    }
  }
  EXPECT_GE(instances, 8);
}

}  // namespace
}  // namespace moche
