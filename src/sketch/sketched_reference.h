// SketchedReference: the immutable, query-ready form of a KLL-sketched
// reference sample, plus the certified KS triage bracket built on it.
//
// Flattening the sketch once gives a weighted step function G with
// G(x) = EstimateRank(x) / n; the sketch's certified bound says
// sup_x |G(x) - F_R(x)| <= epsilon, with epsilon = rank_error_bound / n a
// deterministic per-instance quantity (kll_sketch.h). For a test window T
// the weighted sweep computes D_sketch = sup_x |G(x) - F_T(x)| exactly,
// and the sup-norm triangle inequality brackets the true two-sample KS
// statistic:
//
//   D_sketch - epsilon  <=  D_true  <=  D_sketch + epsilon.
//
// Comparing the bracket against the KS threshold p yields a three-way
// verdict: the whole bracket above p is a *certified* reject
// (kCertainFail), the whole bracket at or below p a *certified* accept
// (kCertainPass), and only the band straddling p needs the exact path
// (kUncertain): O(d_T log n) for d_T distinct test values against the
// prepared reference (ks::StatisticAnchored). A small fixed margin
// (kTriageMargin) is subtracted from both certify regions to absorb
// floating-point rounding — the margin can only push a verdict into
// kUncertain (more fallbacks), never mint a wrong certification, so a
// certified verdict that disagrees with the exact ks::Run decision is a
// hard bug (the tests/sketch property suite and sketch_fuzz both enforce
// exactly that).
//
// Ownership & thread-safety: a SketchedReference is immutable after Build
// — one instance may be shared (shared_ptr-to-const via
// stream::PreparedReferenceCache) by any number of concurrent triage
// calls, exactly like PreparedReference. Build/Deserialize are the only
// writers and they hand out values.

#ifndef MOCHE_SKETCH_SKETCHED_REFERENCE_H_
#define MOCHE_SKETCH_SKETCHED_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sketch/kll_sketch.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace moche {
namespace sketch {

/// Absolute slack subtracted from both certify regions (see the file
/// header). Orders of magnitude above accumulated ECDF rounding (~1e-15
/// on statistics in [0, 1]) and below any useful epsilon (~1e-2), so it
/// never costs a measurable fallback.
inline constexpr double kTriageMargin = 1e-9;

/// The three-way outcome of a certified KS triage.
enum class TriageVerdict {
  /// The whole bracket clears the threshold: the exact test would reject.
  kCertainFail,
  /// The whole bracket stays at or below the threshold: the exact test
  /// would pass (nothing to explain).
  kCertainPass,
  /// The bracket straddles the threshold; only an exact evaluation can
  /// decide. The caller falls back to the exact path.
  kUncertain,
};

/// One triage answer: the sketch statistic, its certified bracket, and
/// the verdict against the KS threshold.
struct SketchTriage {
  TriageVerdict verdict = TriageVerdict::kUncertain;
  double statistic = 0.0;  ///< D_sketch = sup |G - F_T| (computed exactly)
  double lower = 0.0;      ///< certified lower bracket on the true D
  double upper = 0.0;      ///< certified upper bracket on the true D
  double threshold = 0.0;  ///< KS threshold p for (n, m, alpha)
  double epsilon = 0.0;    ///< the sketch's certified ECDF error
  size_t n = 0;            ///< exact reference count (sketch-tracked)
  size_t m = 0;            ///< test window size
};

class SketchedReference {
 public:
  /// Flattens `sketch` into the query form. InvalidArgument on an empty
  /// sketch or an out-of-domain alpha. The sketch is kept (moved in): it
  /// is the mergeable/serializable identity of this reference.
  static Result<SketchedReference> Build(KllSketch sketch, double alpha);

  /// Validates `sample` (non-empty, finite — ks::ValidateSample) and
  /// `alpha`, feeds every value through a fresh KllSketch(options), and
  /// Builds. The one-stop constructor the intern cache uses.
  static Result<SketchedReference> FromSample(
      const std::vector<double>& sample, double alpha,
      const KllOptions& options = {});

  /// sup_x |G(x) - F_T(x)| over the union grid of the summary values and
  /// the (ascending, finite, non-empty) test window — computed exactly,
  /// allocation-free, in O(summary + m). The caller sorts and validates
  /// the window (Moche::TriageSketchedInto, or the stream monitor's
  /// incrementally sorted window).
  ///
  /// Only one summary point per distinct test value is evaluated. Take
  /// the run of summary points strictly between consecutive distinct test
  /// values x' < x: F_T is constant on it, at its value at x', while G is
  /// non-decreasing and no smaller than G(x'). Where G <= F_T, F_T - G is
  /// therefore at most its value at x', which the sweep evaluated; where
  /// G > F_T, G - F_T peaks at the run's last point. So each run needs
  /// only its last point (before the first test value F_T = 0 and the
  /// same holds). Past the last test value F_T = 1 and G <= 1 (the sketch
  /// conserves weight, so G ends at exactly n / n), so that tail is
  /// covered by the last test value and is not visited at all. The
  /// argument holds in floating point: G is stored pre-divided by n (a
  /// correctly rounded, hence monotone, division), and the rounded
  /// g - F_T and F_T - g are monotone in g. Each evaluated point computes
  /// the same doubles as a full sweep over every grid point, so D is
  /// bit-identical to it; the only divisions left are one j / m per
  /// distinct test value.
  double StatisticAgainstSorted(const std::vector<double>& test_sorted) const;

  /// Classifies a precomputed sweep result against the KS threshold for
  /// (count(), m, alpha()) — the bracket logic of the file header.
  SketchTriage Classify(double statistic, size_t m) const;

  const KllSketch& sketch() const { return sketch_; }
  const std::vector<double>& values() const { return values_; }
  /// Exact number of reference observations the sketch summarizes.
  uint64_t count() const { return sketch_.count(); }
  double alpha() const { return alpha_; }
  double epsilon() const { return sketch_.epsilon(); }
  uint64_t rank_error_bound() const { return sketch_.rank_error_bound(); }
  size_t sketch_capacity() const { return sketch_.capacity(); }

  /// Heap bytes retained: the sketch plus the flattened arrays. The
  /// cache's resident_bytes reports this.
  size_t FootprintBytes() const;

  /// Appends alpha then the sketch encoding (kll_sketch.h) — the snapshot
  /// hook of src/persist. Deterministic, and serialize -> deserialize ->
  /// serialize is a byte fixed point.
  void SerializeTo(std::string* out) const;

  /// Inverse of SerializeTo over an untrusted buffer; re-validates alpha
  /// and every sketch invariant, then rebuilds the flattened form
  /// deterministically.
  static Result<SketchedReference> DeserializeFrom(bin::Reader* reader);

 private:
  SketchedReference() = default;

  KllSketch sketch_;
  double alpha_ = 0.05;
  // Flattened summary (kll_sketch.h FlattenTo): strictly ascending unique
  // values; ecdf_[i] = G(values_[i]) = (estimated #observations <=
  // values_[i]) / n, the FlattenTo cumulative weight divided once at Build.
  std::vector<double> values_;
  std::vector<double> ecdf_;
};

}  // namespace sketch
}  // namespace moche

#endif  // MOCHE_SKETCH_SKETCHED_REFERENCE_H_
