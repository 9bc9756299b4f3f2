// The public facade of the library: MOCHE end to end.
//
//   moche::Moche engine;
//   auto report = engine.Explain(reference, test, /*alpha=*/0.05, preference);
//   if (report.ok()) { /* report->explanation.indices ... */ }
//
// Explain returns:
//  * AlreadyPasses when R and T pass the KS test (nothing to explain),
//  * NotFound when no explanation exists (possible only for alpha > 2/e^2,
//    cf. Proposition 1),
//  * otherwise the unique most comprehensible counterfactual explanation.
//
// Ownership & thread-safety: Moche and PreparedReference are immutable
// after construction — one engine and one prepared reference may be shared
// by any number of concurrent Explain/ExplainPreparedInto calls (the batch
// harness and the stream monitor both do). Each call owns all of its
// mutable state on the stack; no call mutates its inputs. The *Into entry
// points move that state into a caller-owned ExplainWorkspace instead: a
// hot-loop caller recycles one workspace (and one MocheReport) per thread
// and the warmed-up steady state allocates nothing (core/workspace.h).
//
// Input conventions: samples must be non-empty and finite —
// ks::ValidateSample rejects NaN/Inf up front with InvalidArgument, so the
// numeric core never sorts or compares a NaN (which would be UB). alpha
// must lie in (0, 2), the domain of the critical value c_alpha. The
// determinism, data-flow, and NaN/empty-sample contracts are collected in
// docs/ARCHITECTURE.md.

#ifndef MOCHE_CORE_MOCHE_H_
#define MOCHE_CORE_MOCHE_H_

#include <vector>

#include "core/builder.h"
#include "core/explanation.h"
#include "core/instance.h"
#include "core/preference.h"
#include "core/size_search.h"
#include "core/workspace.h"
#include "sketch/sketched_reference.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace moche {

/// Tuning knobs; the defaults reproduce the full MOCHE algorithm.
struct MocheOptions {
  /// Phase 1 lower bound via Theorem 2 binary search. Disabling reproduces
  /// the paper's MOCHE_ns ablation (Figure 5).
  bool use_lower_bound = true;

  /// Closed-form Theorem 3 checks in phase 2 (our optimization): O(log m)
  /// per candidate on a range-add tree over T's value runs (core/partial.h).
  /// Disabling uses the paper-faithful O(q)-per-candidate recursion. Both
  /// modes return identical explanations.
  bool incremental_partial_check = true;

  /// Re-run the KS test on R vs T \ I before returning (cheap insurance;
  /// an Internal error here would indicate a bug in the bounds algebra).
  bool validate_result = true;
};

/// Everything one Explain call produces.
struct MocheReport {
  Explanation explanation;     ///< indices into the test set, in L order
  size_t k = 0;                ///< explanation size
  size_t k_hat = 0;            ///< Theorem 2 lower bound (== k start of scan)
  KsOutcome original;          ///< the failed test being explained
  KsOutcome after;             ///< outcome on R vs T \ I (passes)
  SizeSearchResult size_stats;
  BuildStats build_stats;
};

/// A reference sample validated and sorted once, for explaining many test
/// windows against the same R (e.g. the sliding-window sweeps of Section 6:
/// hundreds of test windows are sliced from one series and compared against
/// one reference). Construct with Moche::Prepare; immutable afterwards, so
/// one PreparedReference may be shared by concurrent ExplainPreparedInto
/// calls.
class PreparedReference {
 public:
  const std::vector<double>& sorted_reference() const {
    return sorted_reference_;
  }
  double alpha() const { return alpha_; }

  /// Appends the canonical little-endian encoding (alpha, then the sorted
  /// sample bit-exact; util/binary_io.h) — the snapshot hook of
  /// src/persist. Deterministic: equal prepared references serialize to
  /// equal bytes.
  void SerializeTo(std::string* out) const;

  /// Inverse of SerializeTo over an untrusted buffer. Re-validates
  /// everything Prepare guarantees — alpha domain, non-empty, all-finite,
  /// ascending order — so a corrupted snapshot can never mint a
  /// PreparedReference that breaks the Unchecked hot-path invariants;
  /// restoring skips only the O(n log n) sort, not the checks.
  static Result<PreparedReference> DeserializeFrom(bin::Reader* reader);

 private:
  friend class Moche;
  // Only Moche::Prepare and DeserializeFrom may construct one:
  // ExplainPreparedInto's unchecked hot path relies on the validate-and-sort
  // invariant both establish.
  PreparedReference() = default;

  std::vector<double> sorted_reference_;
  double alpha_ = 0.05;
};

/// A structure-of-arrays batch of equally sized test windows: window w
/// occupies data[w * width, (w + 1) * width). Borrowed, not owned — the
/// buffer must outlive the call. Contiguity is the point: batch validation
/// (the all-finite scan) runs as a single SIMD pass over count * width
/// doubles instead of `count` short per-window passes with ramp-up/tail
/// overhead each, so the vector lanes stay full.
struct WindowBatch {
  const double* data = nullptr;
  size_t count = 0;  ///< number of windows
  size_t width = 0;  ///< observations per window (> 0 when count > 0);
                     ///< count * width must fit in size_t
};

class Moche {
 public:
  explicit Moche(MocheOptions options = {}) : options_(options) {}

  /// Explains why (reference, test) fail the KS test at `alpha`, returning
  /// the most comprehensible explanation under `preference`.
  Result<MocheReport> Explain(const std::vector<double>& reference,
                              const std::vector<double>& test, double alpha,
                              const PreferenceList& preference) const;

  /// Convenience overload for a packaged instance.
  Result<MocheReport> Explain(const KsInstance& instance,
                              const PreferenceList& preference) const {
    return Explain(instance.reference, instance.test, instance.alpha,
                   preference);
  }

  /// Validates and sorts `reference` once for many ExplainPreparedInto
  /// calls.
  /// InvalidArgument on an empty/non-finite sample or out-of-domain alpha.
  Result<PreparedReference> Prepare(std::vector<double> reference,
                                    double alpha) const;

  /// The zero-allocation hot path: as Explain, but reuses the prepared
  /// (already sorted) reference, so only the test window is sorted per
  /// call; every scratch buffer lives in the caller-owned `workspace` and
  /// the result is written into the caller-owned `*report` (whose
  /// explanation vector's capacity is reused). A caller that recycles the
  /// same workspace and report performs no heap allocation once warm — the
  /// steady state of the Section 6 sweeps, harness::RunMethods, and
  /// DriftMonitor. Reports are bit-identical to Explain on the same inputs;
  /// `*report` is meaningful only when the returned Status is OK. The
  /// workspace and report are mutable per-caller state: share the engine
  /// and the prepared reference across threads, never a workspace
  /// (docs/ARCHITECTURE.md).
  Status ExplainPreparedInto(const PreparedReference& prepared,
                             const std::vector<double>& test,
                             const PreferenceList& preference,
                             ExplainWorkspace* workspace,
                             MocheReport* report) const;

  /// One-shot workspace variant: validates and sorts `reference` into the
  /// workspace per call (no PreparedReference needed). Reports are
  /// bit-identical to Explain; used by the batch harness, whose instances
  /// each carry their own reference.
  Status ExplainInto(const std::vector<double>& reference,
                     const std::vector<double>& test, double alpha,
                     const PreferenceList& preference,
                     ExplainWorkspace* workspace, MocheReport* report) const;

  /// Phase 1 only: the explanation size (and lower bound) without building
  /// the explanation. Useful when only conciseness is needed.
  Result<SizeSearchResult> FindExplanationSize(
      const std::vector<double>& reference, const std::vector<double>& test,
      double alpha) const;

  /// As FindExplanationSize, but reuses the prepared (already sorted)
  /// reference — only the test window is sorted and validated per call,
  /// mirroring the Explain/ExplainPreparedInto pair — and runs entirely
  /// inside `workspace`: zero allocation once warm (SizeSearchResult itself
  /// is a plain value). Same results as FindExplanationSize on the same
  /// inputs.
  Result<SizeSearchResult> FindExplanationSizeInto(
      const PreparedReference& prepared, const std::vector<double>& test,
      ExplainWorkspace* workspace) const;

  /// Certified three-way KS triage of one test window against a sketched
  /// reference (sketch/sketched_reference.h): computes the exact weighted
  /// sweep statistic D_sketch against the sketch summary, brackets the
  /// true two-sample D in [D_sketch - eps, D_sketch + eps], and compares
  /// the bracket to the KS threshold. kCertainPass / kCertainFail verdicts
  /// are *certified*: the exact ks::Run decision on (R, T) is guaranteed
  /// to agree; kUncertain means only the exact path can decide. Costs
  /// O(m log m + summary) — independent of the reference size n.
  Result<sketch::SketchTriage> TriageSketched(
      const sketch::SketchedReference& sketched,
      const std::vector<double>& test) const;

  /// Zero-allocation-once-warm variant of TriageSketched: the test window
  /// is sorted into `workspace` and the verdict written to `*triage`
  /// (meaningful only when the returned Status is OK). The stream
  /// monitor's sketched mode skips the sort: it keeps each window sorted
  /// as it slides and calls the sweep and Classify directly.
  Status TriageSketchedInto(const sketch::SketchedReference& sketched,
                            const std::vector<double>& test,
                            ExplainWorkspace* workspace,
                            sketch::SketchTriage* triage) const;

  /// Batched triage: as TriageSketchedInto for every window of an SoA
  /// batch, writing (*triages)[w] for window w. The whole batch is
  /// finiteness-checked in one SIMD pass before any window is evaluated;
  /// InvalidArgument (and *triages untouched) if any window holds a
  /// non-finite value, if count > 0 with width == 0, if count * width
  /// overflows size_t, or if data is null with count * width > 0. Zero
  /// allocation once `workspace` and `triages` are warm.
  Status EvaluateBatchSketched(const sketch::SketchedReference& sketched,
                               const WindowBatch& batch,
                               ExplainWorkspace* workspace,
                               std::vector<sketch::SketchTriage>* triages)
      const;

  const MocheOptions& options() const { return options_; }

 private:
  /// The shared pipeline behind the *Into entry points: `sorted_reference`
  /// must be validated and sorted, `alpha` validated.
  Status ExplainSortedInto(const std::vector<double>& sorted_reference,
                           double alpha, const std::vector<double>& test,
                           const PreferenceList& preference,
                           ExplainWorkspace* workspace,
                           MocheReport* report) const;

  /// The prefix every explain stage shares: validates `test` and sorts it
  /// into the workspace, runs the KS test against `sorted_reference`
  /// (AlreadyPasses when it passes; `*original` is written only when it
  /// rejects), then builds the frame and engine in the workspace and runs
  /// phase 1. Same preconditions as ExplainSortedInto.
  Result<SizeSearchResult> SearchSizeInto(
      const std::vector<double>& sorted_reference, double alpha,
      const std::vector<double>& test, ExplainWorkspace* workspace,
      KsOutcome* original) const;

  MocheOptions options_;
};

}  // namespace moche

#endif  // MOCHE_CORE_MOCHE_H_
