// Differential oracle: the three Explain entry points against each other,
// plus workspace recycling across size-mixed windows.
//
// Moche::Explain, ExplainInto and ExplainPreparedInto all promise
// bit-identical reports on the same inputs (the *Into paths merely
// relocate scratch into a caller-owned workspace). This target drives a
// sequence of windows of DIFFERENT sizes through ONE recycled workspace
// and ONE recycled report — the steady state of the stream monitor — and
// fails if any path diverges from the allocation-per-call baseline in
// status code, explanation indices, sizes, outcomes (bit-exact statistics)
// or search counters. FindExplanationSize* must agree with the report's
// phase-1 numbers, report.after must match T \ I rebuilt by index mask and
// sorted into the canonical order (-0.0 before +0.0), and
// ks::internal::RunSortedUnchecked on each canonically sorted window of a
// flat batch against the prepared reference must match ks::Run.
//
// Two more legs hold the anchored explain path (a frame of test values and
// reference-run ends, core/cumulative.h) to a full-frame oracle built from
// CumulativeFrame::Build -> BoundsEngine -> SizeSearcher ->
// BuildMostComprehensible: a reference at least 8x the window with the
// window packed into a narrow slice of it (long reference-only runs on both
// sides), and a tie-heavy pair on a shared small alphabet. They draw their
// bytes after every older leg, so the committed corpus keeps its meaning.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/cumulative.h"
#include "core/moche.h"
#include "core/size_search.h"
#include "core/workspace.h"
#include "fuzz_target.h"
#include "ks/ks_test.h"
#include "provider.h"

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The library's canonical order (ascending, -0.0 before +0.0), by a
// comparator of the target's own rather than through moche::SortFinite.
void SortCanonical(std::vector<double>* v) {
  std::sort(v->begin(), v->end(), [](double a, double b) {
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
  });
}

void CheckOutcomesIdentical(const moche::KsOutcome& a,
                            const moche::KsOutcome& b, const char* what,
                            size_t window) {
  MOCHE_FUZZ_CHECK(SameBits(a.statistic, b.statistic),
                   "window %zu: %s statistic %.17g != %.17g", window, what,
                   a.statistic, b.statistic);
  MOCHE_FUZZ_CHECK(SameBits(a.threshold, b.threshold),
                   "window %zu: %s threshold differs", window, what);
  // SameBits, not ==: a location of -0.0 must not pass for +0.0.
  MOCHE_FUZZ_CHECK(SameBits(a.location, b.location),
                   "window %zu: %s location %.17g != %.17g", window, what,
                   a.location, b.location);
  MOCHE_FUZZ_CHECK(a.reject == b.reject && a.n == b.n && a.m == b.m,
                   "window %zu: %s outcome fields differ", window, what);
}

// The re-check oracle: T \ I from an index mask, sorted canonically,
// tested with ks::StatisticSorted. Every explain path shares the library's
// merge-based T \ I, so only this independent rebuild can catch it.
moche::KsOutcome MaskAndSortAfter(const std::vector<double>& sorted_reference,
                                  const std::vector<double>& test,
                                  double alpha,
                                  const moche::Explanation& explanation) {
  std::vector<unsigned char> removed(test.size(), 0);
  for (size_t idx : explanation.indices) removed[idx] = 1;
  std::vector<double> remaining;
  for (size_t i = 0; i < test.size(); ++i) {
    if (!removed[i]) remaining.push_back(test[i]);
  }
  SortCanonical(&remaining);
  moche::KsOutcome out;
  out.n = sorted_reference.size();
  out.m = remaining.size();
  out.statistic =
      moche::ks::StatisticSorted(sorted_reference, remaining, &out.location);
  out.threshold = moche::ks::Threshold(alpha, out.n, out.m).value_or(0.0);
  out.reject = out.statistic > out.threshold;
  return out;
}

void CheckReportsIdentical(const moche::MocheReport& a,
                           const moche::MocheReport& b, const char* what,
                           size_t window) {
  MOCHE_FUZZ_CHECK(a.explanation.indices == b.explanation.indices,
                   "window %zu: %s explanation indices differ", window, what);
  MOCHE_FUZZ_CHECK(a.k == b.k && a.k_hat == b.k_hat,
                   "window %zu: %s sizes differ (k %zu/%zu k_hat %zu/%zu)",
                   window, what, a.k, b.k, a.k_hat, b.k_hat);
  CheckOutcomesIdentical(a.original, b.original, what, window);
  CheckOutcomesIdentical(a.after, b.after, what, window);
  MOCHE_FUZZ_CHECK(a.size_stats.k == b.size_stats.k &&
                       a.size_stats.k_hat == b.size_stats.k_hat &&
                       a.size_stats.theorem1_checks ==
                           b.size_stats.theorem1_checks &&
                       a.size_stats.theorem2_checks ==
                           b.size_stats.theorem2_checks &&
                       a.size_stats.probe_refutations ==
                           b.size_stats.probe_refutations &&
                       a.size_stats.full_scans == b.size_stats.full_scans,
                   "window %zu: %s size-search counters differ", window,
                   what);
  MOCHE_FUZZ_CHECK(a.build_stats.candidates_checked ==
                           b.build_stats.candidates_checked &&
                       a.build_stats.recursion_steps ==
                           b.build_stats.recursion_steps,
                   "window %zu: %s build counters differ", window, what);
}

// The anchored pipeline (ExplainPreparedInto with default options) against
// the full-frame oracle on one (reference, test) pair: same status, same
// k, k_hat and indices, bit-equal original and after outcomes.
void CheckAgainstFullFrame(const std::vector<double>& reference,
                           const std::vector<double>& test, double alpha,
                           const moche::PreferenceList& pref,
                           moche::ExplainWorkspace* workspace,
                           const char* leg) {
  const moche::Moche engine;
  auto prepared = engine.Prepare(reference, alpha);
  MOCHE_FUZZ_CHECK(prepared.ok(), "%s: Prepare failed", leg);
  moche::MocheReport report;
  const moche::Status status =
      engine.ExplainPreparedInto(*prepared, test, pref, workspace, &report);

  // T \ {} through the merge-based oracle is the original test.
  const moche::KsOutcome original = MaskAndSortAfter(
      prepared->sorted_reference(), test, alpha, moche::Explanation{});
  if (!original.reject) {
    MOCHE_FUZZ_CHECK(status.code() == moche::StatusCode::kAlreadyPasses,
                     "%s: passing pair gave %s", leg,
                     moche::StatusCodeToString(status.code()));
    return;
  }
  auto frame = moche::CumulativeFrame::Build(reference, test);
  MOCHE_FUZZ_CHECK(frame.ok(), "%s: CumulativeFrame::Build failed", leg);
  const moche::BoundsEngine bounds(*frame, alpha);
  auto size = moche::SizeSearcher(bounds).FindSize();
  if (!size.ok()) {
    MOCHE_FUZZ_CHECK(status.code() == size.status().code(),
                     "%s: oracle says %s, pipeline %s", leg,
                     moche::StatusCodeToString(size.status().code()),
                     moche::StatusCodeToString(status.code()));
    return;
  }
  MOCHE_FUZZ_CHECK(status.ok(), "%s: pipeline failed where the oracle "
                   "explains: %s", leg, status.message().c_str());
  auto explanation =
      moche::BuildMostComprehensible(bounds, size->k, test, pref);
  MOCHE_FUZZ_CHECK(explanation.ok(), "%s: oracle phase 2 failed: %s", leg,
                   explanation.status().message().c_str());
  MOCHE_FUZZ_CHECK(report.k == size->k && report.k_hat == size->k_hat,
                   "%s: k=%zu k_hat=%zu vs oracle k=%zu k_hat=%zu", leg,
                   report.k, report.k_hat, size->k, size->k_hat);
  MOCHE_FUZZ_CHECK(report.explanation.indices == explanation->indices,
                   "%s: explanation indices differ from the oracle", leg);
  CheckOutcomesIdentical(report.original, original, leg, 0);
  CheckOutcomesIdentical(
      report.after,
      MaskAndSortAfter(prepared->sorted_reference(), test, alpha,
                       *explanation),
      leg, 0);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  const size_t n = in.SizeInRange(1, 40);
  const int alphabet = static_cast<int>(in.SizeInRange(1, 8));
  const bool tied = in.Bool();
  std::vector<double> reference;
  if (tied) {
    in.TiedArray(n, alphabet, &reference);
  } else {
    in.FiniteArray(n, &reference);
  }
  const double alpha = in.Alpha();

  // Toggle the ablation knobs too: all configurations promise identical
  // explanations across entry points (and the ablations promise identical
  // explanations outright, which the unit suite covers — here each run
  // self-compares under one configuration).
  moche::MocheOptions options;
  options.use_lower_bound = in.Bool();
  options.incremental_partial_check = in.Bool();
  const moche::Moche engine(options);

  auto prepared = engine.Prepare(reference, alpha);
  MOCHE_FUZZ_CHECK(prepared.ok(), "Prepare rejected a valid reference: %s",
                   prepared.status().message().c_str());

  // ONE workspace and ONE report recycled across windows of mixed sizes —
  // the recycling contract under test.
  moche::ExplainWorkspace workspace;
  moche::MocheReport into_report;
  moche::MocheReport prepared_into_report;

  const size_t windows = in.SizeInRange(1, 4);
  for (size_t w = 0; w < windows; ++w) {
    const size_t m = in.SizeInRange(2, 14);
    std::vector<double> test;
    if (tied) {
      in.TiedArray(m, alphabet, &test);
    } else {
      in.FiniteArray(m, &test);
    }

    // A byte-derived permutation of [0, m) via Fisher-Yates.
    moche::PreferenceList pref = moche::IdentityPreference(m);
    for (size_t i = m; i > 1; --i) {
      std::swap(pref[i - 1], pref[in.SizeInRange(0, i - 1)]);
    }

    auto base = engine.Explain(reference, test, alpha, pref);
    const moche::Status into_status = engine.ExplainInto(
        reference, test, alpha, pref, &workspace, &into_report);
    const moche::Status prepared_into_status = engine.ExplainPreparedInto(
        *prepared, test, pref, &workspace, &prepared_into_report);

    MOCHE_FUZZ_CHECK(base.status().code() == into_status.code() &&
                         base.status().code() == prepared_into_status.code(),
                     "window %zu: status codes diverge: %s / %s / %s", w,
                     moche::StatusCodeToString(base.status().code()),
                     moche::StatusCodeToString(into_status.code()),
                     moche::StatusCodeToString(prepared_into_status.code()));
    if (base.ok()) {
      CheckReportsIdentical(*base, into_report, "ExplainInto", w);
      CheckReportsIdentical(*base, prepared_into_report, "ExplainPreparedInto",
                            w);

      // Phase-1-only entry points must report the same size search.
      auto size_only = engine.FindExplanationSize(reference, test, alpha);
      MOCHE_FUZZ_CHECK(size_only.ok(),
                       "FindExplanationSize failed where Explain succeeded");
      MOCHE_FUZZ_CHECK(size_only->k == base->k &&
                           size_only->k_hat == base->k_hat,
                       "window %zu: FindExplanationSize k=%zu k_hat=%zu vs "
                       "report k=%zu k_hat=%zu",
                       w, size_only->k, size_only->k_hat, base->k, base->k_hat);
      auto size_into =
          engine.FindExplanationSizeInto(*prepared, test, &workspace);
      MOCHE_FUZZ_CHECK(size_into.ok() &&
                           size_into->k == size_only->k &&
                           size_into->k_hat == size_only->k_hat,
                       "window %zu: FindExplanationSizeInto diverges", w);

      // The report's own invariants: the explanation is a valid index set
      // of the claimed size, the original test rejects, the after test
      // passes.
      MOCHE_FUZZ_CHECK(base->explanation.indices.size() == base->k,
                       "window %zu: k=%zu but %zu indices", w, base->k,
                       base->explanation.indices.size());
      MOCHE_FUZZ_CHECK(base->k_hat <= base->k,
                       "window %zu: lower bound k_hat=%zu exceeds k=%zu", w,
                       base->k_hat, base->k);
      MOCHE_FUZZ_CHECK(base->original.reject && !base->after.reject,
                       "window %zu: reject flags wrong (original=%d after=%d)",
                       w, base->original.reject, base->after.reject);
      CheckOutcomesIdentical(
          base->after,
          MaskAndSortAfter(prepared->sorted_reference(), test, alpha,
                           base->explanation),
          "after vs mask-and-sort", w);
    }
  }

  // ks::internal::RunSortedUnchecked, the sketched monitor's exact
  // fallback: each window of a flat batch of equal-width windows, sorted on
  // its own against the prepared reference, must match ks::Run bit-exactly.
  const size_t count = in.SizeInRange(0, 4);
  const size_t width = in.SizeInRange(1, 10);
  std::vector<double> soa;
  if (tied) {
    in.TiedArray(count * width, alphabet, &soa);
  } else {
    in.FiniteArray(count * width, &soa);
  }
  for (size_t w = 0; w < count; ++w) {
    std::vector<double> window(soa.begin() + w * width,
                               soa.begin() + (w + 1) * width);
    auto direct = moche::ks::Run(reference, window, alpha);
    MOCHE_FUZZ_CHECK(direct.ok(), "direct recompute failed: %s",
                     direct.status().message().c_str());
    SortCanonical(&window);
    const moche::KsOutcome unchecked = moche::ks::internal::RunSortedUnchecked(
        prepared->sorted_reference(), window, alpha);
    CheckOutcomesIdentical(unchecked, *direct, "RunSortedUnchecked", w);
  }

  // A reference at least 8x the window, the window drawn from a narrow
  // slice of the sorted reference (or, per value, anywhere), so the frame
  // keeps a handful of coordinates out of the reference's many.
  {
    const size_t m = in.SizeInRange(2, 12);
    const size_t big_n = 8 * m + in.SizeInRange(0, 64);
    std::vector<double> big;
    if (in.Bool()) {
      in.TiedArray(big_n, static_cast<int>(in.SizeInRange(1, 40)), &big);
    } else {
      in.FiniteArray(big_n, &big);
    }
    std::vector<double> big_sorted = big;
    std::sort(big_sorted.begin(), big_sorted.end());
    const size_t start = in.SizeInRange(0, big_n - 1);
    const size_t spread = in.SizeInRange(0, 4);
    std::vector<double> test(m);
    for (double& v : test) {
      v = in.Bool() ? big_sorted[std::min(big_n - 1,
                                          start + in.SizeInRange(0, spread))]
                    : in.FiniteValue();
    }
    moche::PreferenceList pref = moche::IdentityPreference(m);
    for (size_t i = m; i > 1; --i) {
      std::swap(pref[i - 1], pref[in.SizeInRange(0, i - 1)]);
    }
    CheckAgainstFullFrame(big, test, in.Alpha(), pref, &workspace,
                          "large reference");
  }
  // Tie-heavy: both samples on one small alphabet.
  {
    const size_t tie_n = in.SizeInRange(1, 60);
    const size_t m = in.SizeInRange(2, 16);
    const int letters = static_cast<int>(in.SizeInRange(1, 5));
    std::vector<double> tie_reference;
    std::vector<double> test;
    in.TiedArray(tie_n, letters, &tie_reference);
    in.TiedArray(m, letters, &test);
    moche::PreferenceList pref = moche::IdentityPreference(m);
    for (size_t i = m; i > 1; --i) {
      std::swap(pref[i - 1], pref[in.SizeInRange(0, i - 1)]);
    }
    CheckAgainstFullFrame(tie_reference, test, in.Alpha(), pref, &workspace,
                          "tie-heavy");
  }
  return 0;
}
