#include "core/moche.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/cumulative.h"
#include "util/simd.h"
#include "util/sort.h"

namespace moche {
namespace {

// Copies `size` doubles from `data` into *sorted (capacity reused) and
// sorts them with SortFinite, radix-sorting through *scratch when the copy
// is long enough. The caller has checked that every value is finite.
void SortedCopyInto(const double* data, size_t size,
                    std::vector<double>* sorted,
                    std::vector<double>* scratch) {
  sorted->assign(data, data + size);
  // moche-lint: allow(sort-doubles): every caller screens the values finite (ValidatedSortedCopyInto or ValidateBatch)
  SortFinite(sorted, scratch);
}

// ks::ValidateSample, then SortedCopyInto.
Status ValidatedSortedCopyInto(const std::vector<double>& sample,
                               const char* name, std::vector<double>* sorted,
                               std::vector<double>* scratch) {
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(sample, name));
  SortedCopyInto(sample.data(), sample.size(), sorted, scratch);
  return Status::OK();
}

// EvaluateBatchSketched's batch checks. An empty batch is valid;
// otherwise the shape must be sound and every value finite, checked in one
// flat SIMD pass over count * width doubles so the vector lanes stay full
// instead of paying per-window ramp-up and tail handling count times.
Status ValidateBatch(const WindowBatch& batch) {
  if (batch.count == 0) return Status::OK();
  if (batch.width == 0) {
    return Status::InvalidArgument("batch windows must be non-empty");
  }
  if (batch.count > SIZE_MAX / batch.width) {
    return Status::InvalidArgument("batch count * width overflows size_t");
  }
  if (batch.data == nullptr) {
    return Status::InvalidArgument("batch data is null");
  }
  if (!simd::ActiveKernels().all_finite(batch.data,
                                        batch.count * batch.width)) {
    return Status::InvalidArgument("test window contains a non-finite value");
  }
  return Status::OK();
}

}  // namespace

Result<MocheReport> Moche::Explain(const std::vector<double>& reference,
                                   const std::vector<double>& test,
                                   double alpha,
                                   const PreferenceList& preference) const {
  ExplainWorkspace workspace;
  MocheReport report;
  MOCHE_RETURN_IF_ERROR(
      ExplainInto(reference, test, alpha, preference, &workspace, &report));
  return report;
}

Result<PreparedReference> Moche::Prepare(std::vector<double> reference,
                                         double alpha) const {
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(reference, "reference set"));
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  PreparedReference prepared;
  // In place, with no scratch: a 2^20-point reference costs no transient
  // memory.
  // moche-lint: allow(sort-doubles): ks::ValidateSample screened the reference above
  SortFinite(&reference);
  prepared.sorted_reference_ = std::move(reference);
  prepared.alpha_ = alpha;
  return prepared;
}

void PreparedReference::SerializeTo(std::string* out) const {
  bin::AppendDoubleLe(alpha_, out);
  bin::AppendDoubleArray(sorted_reference_, out);
}

Result<PreparedReference> PreparedReference::DeserializeFrom(
    bin::Reader* reader) {
  double alpha = 0.0;
  PreparedReference prepared;
  if (!reader->ReadDoubleLe(&alpha) ||
      !reader->ReadDoubleArray(&prepared.sorted_reference_)) {
    return Status::OutOfRange("prepared reference: snapshot truncated");
  }
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  MOCHE_RETURN_IF_ERROR(
      ks::ValidateSample(prepared.sorted_reference_, "prepared reference"));
  if (!std::is_sorted(prepared.sorted_reference_.begin(),
                      prepared.sorted_reference_.end())) {
    return Status::InvalidArgument(
        "prepared reference: snapshot sample is not sorted");
  }
  // A snapshot written before SortFinite holds its ±0.0 run in whatever
  // order std::sort left it; Prepare would have written it -0.0 first.
  SortZeroRun(&prepared.sorted_reference_);
  prepared.alpha_ = alpha;
  return prepared;
}

Status Moche::ExplainPreparedInto(const PreparedReference& prepared,
                                  const std::vector<double>& test,
                                  const PreferenceList& preference,
                                  ExplainWorkspace* workspace,
                                  MocheReport* report) const {
  return ExplainSortedInto(prepared.sorted_reference_, prepared.alpha_, test,
                           preference, workspace, report);
}

Status Moche::ExplainInto(const std::vector<double>& reference,
                          const std::vector<double>& test, double alpha,
                          const PreferenceList& preference,
                          ExplainWorkspace* workspace,
                          MocheReport* report) const {
  MOCHE_RETURN_IF_ERROR(ValidatedSortedCopyInto(
      reference, "reference set", &workspace->reference_sorted_,
      &workspace->sort_scratch_));
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  return ExplainSortedInto(workspace->reference_sorted_, alpha, test,
                           preference, workspace, report);
}

Result<SizeSearchResult> Moche::SearchSizeInto(
    const std::vector<double>& sorted_reference, double alpha,
    const std::vector<double>& test, ExplainWorkspace* workspace,
    KsOutcome* original) const {
  ExplainWorkspace& ws = *workspace;
  // Per-call validation covers only the test window; the reference and
  // alpha were validated (and R sorted) by the caller, so the per-window
  // cost carries no redundant O(n) re-scans of the reference.
  MOCHE_RETURN_IF_ERROR(ValidatedSortedCopyInto(
      test, "test set", &ws.test_sorted_, &ws.sort_scratch_));
  const KsOutcome outcome = ks::internal::RunSortedUnchecked(
      sorted_reference, ws.test_sorted_, alpha);
  if (!outcome.reject) {
    return Status::AlreadyPasses(
        "R and T pass the KS test; there is nothing to explain");
  }
  *original = outcome;
  // The anchored frame decides phases 1 and 2 exactly as the full one
  // (core/cumulative.h). The paper-faithful O(q) recursion of the
  // incremental_partial_check ablation walks the paper's full base vector,
  // and so does any instance too large for the anchored frame's rounding
  // argument.
  if (options_.incremental_partial_check &&
      CumulativeFrame::AnchoredIsExact(
          sorted_reference.size(), ws.test_sorted_.size(),
          ks::internal::CriticalValueUnchecked(alpha))) {
    CumulativeFrame::BuildAnchoredInto(sorted_reference, ws.test_sorted_,
                                       &ws.frame_);
  } else {
    CumulativeFrame::BuildFromSortedUncheckedInto(
        sorted_reference, ws.test_sorted_, &ws.frame_);
  }
  ws.engine_.Reset(ws.frame_, alpha);
  return SizeSearcher(ws.engine_).FindSize(options_.use_lower_bound);
}

Status Moche::ExplainSortedInto(const std::vector<double>& sorted_reference,
                                double alpha, const std::vector<double>& test,
                                const PreferenceList& preference,
                                ExplainWorkspace* workspace,
                                MocheReport* report) const {
  ExplainWorkspace& ws = *workspace;
  MOCHE_RETURN_IF_ERROR(
      ValidatePreference(preference, test.size(), &ws.build_.pref_seen));
  MOCHE_ASSIGN_OR_RETURN(report->size_stats,
                         SearchSizeInto(sorted_reference, alpha, test,
                                        workspace, &report->original));
  report->k = report->size_stats.k;
  report->k_hat = report->size_stats.k_hat;

  // Prevalidated variant: the preference permutation check already ran at
  // this function's entry, and the frame was built from `test` itself.
  MOCHE_RETURN_IF_ERROR(internal::BuildMostComprehensiblePrevalidated(
      ws.engine_, report->k, test, preference,
      options_.incremental_partial_check, &report->build_stats, &ws.build_,
      &report->explanation));

  // T \ I, built here without sorting T again (RemoveExplanation would
  // also copy the reference into a KsInstance, O(n) per window). T and the
  // k explained values are both in SortFinite's order, where no two
  // bit-distinct doubles tie, so one merge by SortKey drops exactly the
  // explained copies, a -0.0 for a -0.0: O(m + k log k), and T \ I comes
  // out as SortFinite would sort it.
  const std::vector<double>& test_sorted = ws.test_sorted_;
  std::vector<double>& removed = ws.removed_values_;
  removed.clear();
  for (size_t idx : report->explanation.indices) {
    removed.push_back(test[idx]);
  }
  // moche-lint: allow(sort-doubles): values of the test window validated finite above
  SortFinite(&removed, &ws.sort_scratch_);
  std::vector<double>& remaining = ws.remaining_;
  remaining.clear();
  remaining.reserve(test.size() - removed.size());
  const auto key_less = [](double a, double b) {
    return SortKey(a) < SortKey(b);
  };
  auto from = test_sorted.cbegin();
  for (double value : removed) {
    const auto hit =
        std::lower_bound(from, test_sorted.cend(), value, key_less);
    remaining.insert(remaining.end(), from, hit);
    from = hit + 1;
  }
  remaining.insert(remaining.end(), from, test_sorted.cend());
  if (remaining.empty()) {
    return Status::Internal("explanation removed the whole test set");
  }
  report->after =
      ks::internal::RunSortedUnchecked(sorted_reference, remaining, alpha);
  if (options_.validate_result && report->after.reject) {
    return Status::Internal(
        "constructed explanation does not reverse the KS test");
  }
  return Status::OK();
}

Result<sketch::SketchTriage> Moche::TriageSketched(
    const sketch::SketchedReference& sketched,
    const std::vector<double>& test) const {
  ExplainWorkspace workspace;
  sketch::SketchTriage triage;
  MOCHE_RETURN_IF_ERROR(
      TriageSketchedInto(sketched, test, &workspace, &triage));
  return triage;
}

Status Moche::TriageSketchedInto(const sketch::SketchedReference& sketched,
                                 const std::vector<double>& test,
                                 ExplainWorkspace* workspace,
                                 sketch::SketchTriage* triage) const {
  std::vector<double>& test_sorted = workspace->test_sorted_;
  MOCHE_RETURN_IF_ERROR(ValidatedSortedCopyInto(
      test, "test set", &test_sorted, &workspace->sort_scratch_));
  *triage = sketched.Classify(sketched.StatisticAgainstSorted(test_sorted),
                              test_sorted.size());
  return Status::OK();
}

Status Moche::EvaluateBatchSketched(
    const sketch::SketchedReference& sketched, const WindowBatch& batch,
    ExplainWorkspace* workspace,
    std::vector<sketch::SketchTriage>* triages) const {
  MOCHE_RETURN_IF_ERROR(ValidateBatch(batch));
  triages->resize(batch.count);
  std::vector<double>& test_sorted = workspace->test_sorted_;
  for (size_t w = 0; w < batch.count; ++w) {
    SortedCopyInto(batch.data + w * batch.width, batch.width, &test_sorted,
                   &workspace->sort_scratch_);
    (*triages)[w] = sketched.Classify(
        sketched.StatisticAgainstSorted(test_sorted), batch.width);
  }
  return Status::OK();
}

Result<SizeSearchResult> Moche::FindExplanationSize(
    const std::vector<double>& reference, const std::vector<double>& test,
    double alpha) const {
  MOCHE_ASSIGN_OR_RETURN(const PreparedReference prepared,
                         Prepare(reference, alpha));
  ExplainWorkspace workspace;
  return FindExplanationSizeInto(prepared, test, &workspace);
}

Result<SizeSearchResult> Moche::FindExplanationSizeInto(
    const PreparedReference& prepared, const std::vector<double>& test,
    ExplainWorkspace* workspace) const {
  KsOutcome original;
  return SearchSizeInto(prepared.sorted_reference_, prepared.alpha_, test,
                        workspace, &original);
}

}  // namespace moche
