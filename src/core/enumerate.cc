#include "core/enumerate.h"

#include <algorithm>

#include "core/partial.h"
#include "util/string_util.h"

namespace moche {

namespace {

// Lexicographic DFS over include/exclude decisions in preference order.
class Enumerator {
 public:
  Enumerator(const BoundsEngine& engine, size_t k,
             const std::vector<size_t>& value_index,
             const PreferenceList& pref, const EnumerateOptions& options)
      : engine_(engine),
        k_(k),
        value_index_(value_index),
        pref_(pref),
        options_(options) {}

  Result<std::vector<Explanation>> Run() {
    MOCHE_ASSIGN_OR_RETURN(PartialExplanationChecker checker,
                           PartialExplanationChecker::Create(engine_, k_));
    // Reserve hint only — count is caller-controlled and may be "all of
    // them" (huge), so clamp instead of trusting it with an allocation.
    results_.reserve(std::min(options_.count, pref_.size()));
    std::vector<size_t> chosen;
    chosen.reserve(k_);
    MOCHE_RETURN_IF_ERROR(Dfs(0, &checker, &chosen));
    return std::move(results_);
  }

 private:
  // Explores decisions from preference position `pos` given the checker's
  // accepted state; returns non-OK only on budget exhaustion (with fewer
  // than `count` results).
  Status Dfs(size_t pos, PartialExplanationChecker* checker,
             std::vector<size_t>* chosen) {
    if (results_.size() >= options_.count) return Status::OK();
    if (checker->accepted_count() == k_) {
      Explanation expl;
      expl.indices = *chosen;
      results_.push_back(std::move(expl));
      return Status::OK();
    }
    // Not enough positions left to fill the explanation.
    if (pref_.size() - pos < k_ - checker->accepted_count()) {
      return Status::OK();
    }

    const size_t t_idx = pref_[pos];
    const size_t v = value_index_[t_idx];

    if (++checks_used_ > options_.max_checks) {
      return Status::ResourceExhausted(
          StrFormat("enumeration budget of %zu checks exhausted with %zu of "
                    "%zu explanations found",
                    options_.max_checks, results_.size(), options_.count));
    }
    // Include branch first: lexicographically smaller completions.
    if (checker->CandidateFeasible(v)) {
      // O(q) copy: the bounds and the run map come along with the O(m)
      // tree and counts that the branch's Accept changes.
      PartialExplanationChecker branch = *checker;
      branch.Accept(v);
      chosen->push_back(t_idx);
      MOCHE_RETURN_IF_ERROR(Dfs(pos + 1, &branch, chosen));
      chosen->pop_back();
      if (results_.size() >= options_.count) return Status::OK();
    }
    // Exclude branch.
    return Dfs(pos + 1, checker, chosen);
  }

  const BoundsEngine& engine_;
  const size_t k_;
  const std::vector<size_t>& value_index_;
  const PreferenceList& pref_;
  const EnumerateOptions& options_;
  std::vector<Explanation> results_;
  size_t checks_used_ = 0;
};

}  // namespace

Result<std::vector<Explanation>> EnumerateTopExplanations(
    const BoundsEngine& engine, size_t k, const std::vector<double>& test,
    const PreferenceList& preference, const EnumerateOptions& options) {
  const CumulativeFrame& frame = engine.frame();
  if (test.size() != frame.m()) {
    return Status::InvalidArgument("test set does not match the frame");
  }
  MOCHE_RETURN_IF_ERROR(ValidatePreference(preference, test.size()));
  if (options.count == 0) {
    return Status::InvalidArgument("count must be positive");
  }

  std::vector<size_t> value_index(test.size());
  for (size_t i = 0; i < test.size(); ++i) {
    MOCHE_ASSIGN_OR_RETURN(value_index[i], frame.IndexOfValue(test[i]));
  }
  Enumerator enumerator(engine, k, value_index, preference, options);
  return enumerator.Run();
}

}  // namespace moche
