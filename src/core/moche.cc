#include "core/moche.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/bounds.h"
#include "core/cumulative.h"
#include "util/simd.h"
#include "util/timer.h"

namespace moche {
namespace {

// True when a sorted sample holds both -0.0 and +0.0: the one case where
// two equal doubles differ in their bits.
bool HoldsBothSignedZeros(const std::vector<double>& sorted) {
  const auto zeros = std::equal_range(sorted.begin(), sorted.end(), 0.0);
  const auto negative = [](double v) { return std::signbit(v); };
  return std::any_of(zeros.first, zeros.second, negative) &&
         !std::all_of(zeros.first, zeros.second, negative);
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
  std::sort(reference.begin(), reference.end());
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
  prepared.alpha_ = alpha;
  return prepared;
}

Result<MocheReport> Moche::ExplainPrepared(
    const PreparedReference& prepared, const std::vector<double>& test,
    const PreferenceList& preference) const {
  ExplainWorkspace workspace;
  MocheReport report;
  MOCHE_RETURN_IF_ERROR(
      ExplainPreparedInto(prepared, test, preference, &workspace, &report));
  return report;
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
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(reference, "reference set"));
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  std::vector<double>& sorted = workspace->reference_sorted_;
  sorted.assign(reference.begin(), reference.end());
  std::sort(sorted.begin(), sorted.end());
  return ExplainSortedInto(sorted, alpha, test, preference, workspace,
                           report);
}

Status Moche::ExplainSortedInto(const std::vector<double>& sorted_reference,
                                double alpha, const std::vector<double>& test,
                                const PreferenceList& preference,
                                ExplainWorkspace* workspace,
                                MocheReport* report) const {
  ExplainWorkspace& ws = *workspace;
  MOCHE_RETURN_IF_ERROR(
      ValidatePreference(preference, test.size(), &ws.build_.pref_seen));
  const std::vector<double>& reference = sorted_reference;

  // Per-call validation covers only the test window; the reference and
  // alpha were validated (and R sorted) by the caller, so the per-window
  // cost carries no redundant O(n) re-scans of the reference.
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(test, "test set"));
  std::vector<double>& test_sorted = ws.test_sorted_;
  test_sorted.assign(test.begin(), test.end());
  std::sort(test_sorted.begin(), test_sorted.end());

  KsOutcome original;
  original.n = reference.size();
  original.m = test_sorted.size();
  original.statistic = ks::StatisticSortedScratch(
      reference, test_sorted, &ws.ks_sweep_, &original.location);
  original.threshold =
      ks::internal::ThresholdUnchecked(alpha, original.n, original.m);
  original.reject = original.statistic > original.threshold;
  if (!original.reject) {
    return Status::AlreadyPasses(
        "R and T pass the KS test; there is nothing to explain");
  }

  report->original = original;

  CumulativeFrame::BuildFromSortedUncheckedInto(reference, test_sorted,
                                                &ws.frame_);
  ws.engine_.Reset(ws.frame_, alpha);
  const BoundsEngine& engine = ws.engine_;

  WallTimer timer;
  const SizeSearcher searcher(engine);
  MOCHE_ASSIGN_OR_RETURN(report->size_stats,
                         searcher.FindSize(options_.use_lower_bound));
  report->k = report->size_stats.k;
  report->k_hat = report->size_stats.k_hat;
  report->seconds_size_search = timer.Seconds();

  timer.Restart();
  // Prevalidated variant: the preference permutation check already ran at
  // this function's entry; no need to re-pay it per call.
  MOCHE_RETURN_IF_ERROR(internal::BuildMostComprehensiblePrevalidated(
      engine, report->k, test, preference, options_.incremental_partial_check,
      &report->build_stats, &ws.build_, &report->explanation));
  report->seconds_construction = timer.Seconds();

  // T \ I, built here without sorting T again (RemoveExplanation would
  // also copy the reference into a KsInstance, O(n) per window).
  std::vector<double>& remaining = ws.remaining_;
  remaining.clear();
  remaining.reserve(test.size() - report->explanation.size());
  if (HoldsBothSignedZeros(test_sorted)) {
    // -0.0 == +0.0, so a merge by value could drop a zero of the other
    // sign than the explained point's; mask by index and sort instead.
    ws.removed_.assign(test.size(), 0);
    for (size_t idx : report->explanation.indices) ws.removed_[idx] = 1;
    for (size_t i = 0; i < test.size(); ++i) {
      if (!ws.removed_[i]) remaining.push_back(test[i]);
    }
    std::sort(remaining.begin(), remaining.end());
  } else {
    // Every other pair of equal doubles is bit-identical, so merging the
    // k sorted explained values out of the sorted window gives the same
    // array in O(m + k log k).
    std::vector<double>& removed = ws.removed_values_;
    removed.clear();
    for (size_t idx : report->explanation.indices) {
      removed.push_back(test[idx]);
    }
    std::sort(removed.begin(), removed.end());
    auto from = test_sorted.cbegin();
    for (double value : removed) {
      const auto hit = std::lower_bound(from, test_sorted.cend(), value);
      remaining.insert(remaining.end(), from, hit);
      from = hit + 1;
    }
    remaining.insert(remaining.end(), from, test_sorted.cend());
  }
  if (remaining.empty()) {
    return Status::Internal("explanation removed the whole test set");
  }
  report->after.n = reference.size();
  report->after.m = remaining.size();
  report->after.statistic = ks::StatisticSortedScratch(
      reference, remaining, &ws.ks_sweep_, &report->after.location);
  report->after.threshold = ks::internal::ThresholdUnchecked(
      alpha, report->after.n, report->after.m);
  report->after.reject = report->after.statistic > report->after.threshold;
  if (options_.validate_result && report->after.reject) {
    return Status::Internal(
        "constructed explanation does not reverse the KS test");
  }
  return Status::OK();
}

Status Moche::EvaluateBatchPrepared(const PreparedReference& prepared,
                                    const WindowBatch& batch,
                                    ExplainWorkspace* workspace,
                                    std::vector<KsOutcome>* outcomes) const {
  if (batch.count == 0) {
    outcomes->clear();
    return Status::OK();
  }
  if (batch.width == 0) {
    return Status::InvalidArgument("batch windows must be non-empty");
  }
  if (batch.count > SIZE_MAX / batch.width) {
    return Status::InvalidArgument("batch count * width overflows size_t");
  }
  if (batch.data == nullptr) {
    return Status::InvalidArgument("batch data is null");
  }
  // One flat finiteness scan over the whole batch: count * width doubles in
  // a single kernel call, so the SIMD lanes stay full instead of paying
  // per-window ramp-up and tail handling count times.
  if (!simd::ActiveKernels().all_finite(batch.data,
                                        batch.count * batch.width)) {
    return Status::InvalidArgument("test window contains a non-finite value");
  }
  const std::vector<double>& reference = prepared.sorted_reference_;
  const double threshold = ks::internal::ThresholdUnchecked(
      prepared.alpha_, reference.size(), batch.width);
  outcomes->resize(batch.count);
  ExplainWorkspace& ws = *workspace;
  for (size_t w = 0; w < batch.count; ++w) {
    const double* window = batch.data + w * batch.width;
    std::vector<double>& test_sorted = ws.test_sorted_;
    test_sorted.assign(window, window + batch.width);
    std::sort(test_sorted.begin(), test_sorted.end());
    KsOutcome& out = (*outcomes)[w];
    out.n = reference.size();
    out.m = batch.width;
    out.statistic = ks::StatisticSortedScratch(reference, test_sorted,
                                               &ws.ks_sweep_, &out.location);
    out.threshold = threshold;  // same n, m, alpha for every window
    out.reject = out.statistic > out.threshold;
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
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(test, "test set"));
  std::vector<double>& test_sorted = workspace->test_sorted_;
  test_sorted.assign(test.begin(), test.end());
  std::sort(test_sorted.begin(), test_sorted.end());
  *triage = sketched.Classify(sketched.StatisticAgainstSorted(test_sorted),
                              test_sorted.size());
  return Status::OK();
}

Status Moche::EvaluateBatchSketched(
    const sketch::SketchedReference& sketched, const WindowBatch& batch,
    ExplainWorkspace* workspace,
    std::vector<sketch::SketchTriage>* triages) const {
  if (batch.count == 0) {
    triages->clear();
    return Status::OK();
  }
  if (batch.width == 0) {
    return Status::InvalidArgument("batch windows must be non-empty");
  }
  if (batch.count > SIZE_MAX / batch.width) {
    return Status::InvalidArgument("batch count * width overflows size_t");
  }
  if (batch.data == nullptr) {
    return Status::InvalidArgument("batch data is null");
  }
  // Same flat finiteness scan as EvaluateBatchPrepared: one kernel call
  // over count * width doubles keeps the SIMD lanes full.
  if (!simd::ActiveKernels().all_finite(batch.data,
                                        batch.count * batch.width)) {
    return Status::InvalidArgument("test window contains a non-finite value");
  }
  triages->resize(batch.count);
  ExplainWorkspace& ws = *workspace;
  for (size_t w = 0; w < batch.count; ++w) {
    const double* window = batch.data + w * batch.width;
    std::vector<double>& test_sorted = ws.test_sorted_;
    test_sorted.assign(window, window + batch.width);
    std::sort(test_sorted.begin(), test_sorted.end());
    // Classify recomputes the threshold per window, but from cheap scalar
    // arithmetic on identical (n, m, alpha) — bit-identical across the
    // batch, so no behavior depends on hoisting it.
    (*triages)[w] = sketched.Classify(
        sketched.StatisticAgainstSorted(test_sorted), batch.width);
  }
  return Status::OK();
}

Result<SizeSearchResult> Moche::FindExplanationSize(
    const std::vector<double>& reference, const std::vector<double>& test,
    double alpha) const {
  MOCHE_ASSIGN_OR_RETURN(const KsOutcome original,
                         ks::Run(reference, test, alpha));
  if (!original.reject) {
    return Status::AlreadyPasses(
        "R and T pass the KS test; there is nothing to explain");
  }
  MOCHE_ASSIGN_OR_RETURN(const CumulativeFrame frame,
                         CumulativeFrame::Build(reference, test));
  const BoundsEngine engine(frame, alpha);
  return SizeSearcher(engine).FindSize(options_.use_lower_bound);
}

Result<SizeSearchResult> Moche::FindExplanationSizeInto(
    const PreparedReference& prepared, const std::vector<double>& test,
    ExplainWorkspace* workspace) const {
  ExplainWorkspace& ws = *workspace;
  const std::vector<double>& reference = prepared.sorted_reference_;
  const double alpha = prepared.alpha_;

  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(test, "test set"));
  std::vector<double>& test_sorted = ws.test_sorted_;
  test_sorted.assign(test.begin(), test.end());
  std::sort(test_sorted.begin(), test_sorted.end());

  const double statistic =
      ks::StatisticSortedScratch(reference, test_sorted, &ws.ks_sweep_);
  const double threshold = ks::internal::ThresholdUnchecked(
      alpha, reference.size(), test_sorted.size());
  if (!(statistic > threshold)) {
    return Status::AlreadyPasses(
        "R and T pass the KS test; there is nothing to explain");
  }

  CumulativeFrame::BuildFromSortedUncheckedInto(reference, test_sorted,
                                                &ws.frame_);
  ws.engine_.Reset(ws.frame_, alpha);
  return SizeSearcher(ws.engine_).FindSize(options_.use_lower_bound);
}

}  // namespace moche
