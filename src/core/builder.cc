#include "core/builder.h"

#include "util/string_util.h"

namespace moche {

Result<Explanation> BuildMostComprehensible(const BoundsEngine& engine,
                                            size_t k,
                                            const std::vector<double>& test,
                                            const PreferenceList& pref,
                                            bool incremental_check,
                                            BuildStats* stats) {
  BuildScratch scratch;
  MOCHE_RETURN_IF_ERROR(
      ValidatePreference(pref, test.size(), &scratch.pref_seen));
  // The scan looks values up only as it reaches them; this entry still
  // rejects a test value outside the frame even when the scan would stop
  // before it.
  const CumulativeFrame& frame = engine.frame();
  if (test.size() == frame.m()) {
    for (double value : test) {
      MOCHE_RETURN_IF_ERROR(frame.IndexOfValue(value).status());
    }
  }
  Explanation expl;
  MOCHE_RETURN_IF_ERROR(internal::BuildMostComprehensiblePrevalidated(
      engine, k, test, pref, incremental_check, stats, &scratch, &expl));
  return expl;
}

Status internal::BuildMostComprehensiblePrevalidated(
    const BoundsEngine& engine, size_t k, const std::vector<double>& test,
    const PreferenceList& pref, bool incremental_check, BuildStats* stats,
    BuildScratch* scratch, Explanation* out) {
  const CumulativeFrame& frame = engine.frame();
  if (stats != nullptr) *stats = BuildStats{};
  if (test.size() != frame.m()) {
    return Status::InvalidArgument("test set does not match the frame");
  }

  PartialExplanationChecker* checker = &scratch->checker;
  MOCHE_RETURN_IF_ERROR(checker->Reset(engine, k));

  out->indices.clear();
  out->indices.reserve(k);
  for (size_t pos = 0; pos < pref.size(); ++pos) {
    const size_t t_idx = pref[pos];
    // Only the candidates the scan reaches are mapped to their 1-based
    // base-vector index; it usually stops long before the end of `pref`.
    MOCHE_ASSIGN_OR_RETURN(const size_t v, frame.IndexOfValue(test[t_idx]));
    if (stats != nullptr) ++stats->candidates_checked;
    const bool feasible = incremental_check
                              ? checker->CandidateFeasible(v)
                              : checker->CandidateFeasibleFull(v);
    if (feasible) {
      checker->Accept(v);
      out->indices.push_back(t_idx);
      if (checker->accepted_count() == k) {
        if (stats != nullptr) stats->recursion_steps = checker->steps();
        return Status::OK();
      }
    }
  }
  if (stats != nullptr) stats->recursion_steps = checker->steps();
  return Status::Internal(
      StrFormat("scan exhausted after accepting %zu of %zu points; "
                "phase 1 and phase 2 disagree",
                checker->accepted_count(), k));
}

}  // namespace moche
