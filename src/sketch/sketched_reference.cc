#include "sketch/sketched_reference.h"

#include <utility>

#include "ks/ks_test.h"

namespace moche {
namespace sketch {

Result<SketchedReference> SketchedReference::Build(KllSketch sketch,
                                                   double alpha) {
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  if (sketch.count() == 0) {
    return Status::InvalidArgument(
        "cannot build a sketched reference from an empty sketch");
  }
  SketchedReference reference;
  reference.sketch_ = std::move(sketch);
  reference.alpha_ = alpha;
  reference.sketch_.FlattenTo(&reference.values_, &reference.ecdf_);
  // Cumulative weights -> G: the one division per summary point, done here
  // so the sweep divides nothing on this side.
  const double n = static_cast<double>(reference.count());
  for (double& g : reference.ecdf_) g /= n;
  return reference;
}

Result<SketchedReference> SketchedReference::FromSample(
    const std::vector<double>& sample, double alpha,
    const KllOptions& options) {
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(sample, "reference set"));
  MOCHE_ASSIGN_OR_RETURN(KllSketch sketch, KllSketch::Create(options));
  for (double v : sample) sketch.Update(v);
  return Build(std::move(sketch), alpha);
}

double SketchedReference::StatisticAgainstSorted(
    const std::vector<double>& test_sorted) const {
  // Sweep over the union grid that evaluates, per distinct test value x,
  // the last summary point strictly below x (at the previous F_T) and x
  // itself (merged with a summary point equal to x, at the new F_T). The
  // header explains why no other grid point can raise the sup.
  const size_t k = values_.size();
  const size_t m = test_sorted.size();
  const double md = static_cast<double>(m);
  size_t i = 0;     // summary points at or below the current grid point
  size_t j = 0;     // test points at or below the current grid point
  double ft = 0.0;  // F_T at the current grid point: j / m
  double d = 0.0;
  const auto fold = [&ft, &d](double g) {
    const double diff = g > ft ? g - ft : ft - g;
    if (diff > d) d = diff;
  };
  while (j < m) {
    const double x = test_sorted[j];
    if (i < k && values_[i] < x) {
      while (++i < k && values_[i] < x) {
      }
      fold(ecdf_[i - 1]);
    }
    if (i < k && values_[i] == x) ++i;
    while (++j < m && test_sorted[j] == x) {
    }
    ft = static_cast<double>(j) / md;
    fold(i > 0 ? ecdf_[i - 1] : 0.0);
  }
  return d;
}

SketchTriage SketchedReference::Classify(double statistic, size_t m) const {
  SketchTriage triage;
  triage.statistic = statistic;
  triage.epsilon = epsilon();
  triage.n = static_cast<size_t>(count());
  triage.m = m;
  triage.threshold =
      ks::internal::ThresholdUnchecked(alpha_, triage.n, triage.m);
  const double lower = statistic - triage.epsilon;
  const double upper = statistic + triage.epsilon;
  triage.lower = lower > 0.0 ? lower : 0.0;
  triage.upper = upper < 1.0 ? upper : 1.0;
  // The exact decision is reject iff D > p. Certifying needs the whole
  // bracket on one side of p with kTriageMargin to spare; the margin only
  // widens the kUncertain band (see sketched_reference.h).
  if (triage.lower > triage.threshold + kTriageMargin) {
    triage.verdict = TriageVerdict::kCertainFail;
  } else if (triage.upper + kTriageMargin <= triage.threshold) {
    triage.verdict = TriageVerdict::kCertainPass;
  } else {
    triage.verdict = TriageVerdict::kUncertain;
  }
  return triage;
}

size_t SketchedReference::FootprintBytes() const {
  return sketch_.FootprintBytes() +
         (values_.capacity() + ecdf_.capacity()) *
             sizeof(double);
}

void SketchedReference::SerializeTo(std::string* out) const {
  bin::AppendDoubleLe(alpha_, out);
  sketch_.SerializeTo(out);
}

Result<SketchedReference> SketchedReference::DeserializeFrom(
    bin::Reader* reader) {
  double alpha = 0.0;
  if (!reader->ReadDoubleLe(&alpha)) {
    return Status::OutOfRange("sketched reference: snapshot truncated");
  }
  MOCHE_ASSIGN_OR_RETURN(KllSketch sketch,
                         KllSketch::DeserializeFrom(reader));
  return Build(std::move(sketch), alpha);
}

}  // namespace sketch
}  // namespace moche
