// Differential oracle: the certified KLL sketch (sketch::KllSketch) and
// the triage bracket (sketch::SketchedReference) against exact recomputes
// on a mirrored sorted vector.
//
// The sketch's whole contract is one integer inequality —
// |EstimateRank(x) - TrueRank(x)| <= rank_error_bound() for every x —
// and everything above it (the KS bracket, the certified verdicts) is
// derived arithmetic. So the oracle checks the bound at adversarial probe
// points (retained values, midpoints, beyond both extremes), re-derives
// the bracket against ks::Run, and requires certified verdicts to agree
// with the exact decision unconditionally: a certified disagreement is a
// hard bug, never tolerance noise. Structure bytes are also fuzzed
// directly: DeserializeFrom on arbitrary bytes must reject with a Status
// or yield a sketch that re-serializes to a byte fixed point — never
// crash, never fabricate retained weight.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "fuzz_target.h"
#include "ks/ks_test.h"
#include "provider.h"
#include "sketch/kll_sketch.h"
#include "sketch/sketched_reference.h"
#include "util/binary_io.h"

namespace {

using moche::sketch::KllOptions;
using moche::sketch::KllSketch;
using moche::sketch::SketchedReference;
using moche::sketch::SketchTriage;
using moche::sketch::TriageVerdict;

// Exact rank: weight of sample values <= x, from the sorted mirror.
uint64_t TrueRank(const std::vector<double>& sorted, double x) {
  return static_cast<uint64_t>(
      std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
}

// Naive D_sketch: at every point x of the union grid, count the summary
// points and test points <= x from scratch. Computes the same G = cw / n,
// F_T = j / m and |G - F_T| doubles as the production endpoint sweep, in
// O((summary + m)^2), so the two must agree bit for bit.
double NaiveSketchStatistic(const SketchedReference& sketched,
                            const std::vector<double>& test_sorted) {
  std::vector<double> values;
  std::vector<double> cumulative_weights;
  sketched.sketch().FlattenTo(&values, &cumulative_weights);
  const double n = static_cast<double>(sketched.count());
  const double m = static_cast<double>(test_sorted.size());
  std::vector<double> grid = values;
  grid.insert(grid.end(), test_sorted.begin(), test_sorted.end());
  double d = 0.0;
  for (double x : grid) {
    size_t i = 0;
    for (double v : values) i += v <= x;
    size_t j = 0;
    for (double t : test_sorted) j += t <= x;
    const double g = (i > 0 ? cumulative_weights[i - 1] : 0.0) / n;
    const double ft = static_cast<double>(j) / m;
    const double diff = g > ft ? g - ft : ft - g;
    if (diff > d) d = diff;
  }
  return d;
}

void CheckCertifiedBound(const KllSketch& sketch,
                         const std::vector<double>& sorted,
                         const char* what) {
  const uint64_t bound = sketch.rank_error_bound();
  auto probe = [&](double x) {
    const uint64_t estimate = sketch.EstimateRank(x);
    const uint64_t truth = TrueRank(sorted, x);
    const uint64_t gap = estimate > truth ? estimate - truth
                                          : truth - estimate;
    MOCHE_FUZZ_CHECK(gap <= bound,
                     "%s: rank of %.17g off by %llu, certified bound %llu",
                     what, x, static_cast<unsigned long long>(gap),
                     static_cast<unsigned long long>(bound));
  };
  for (size_t i = 0; i < sorted.size(); ++i) {
    probe(sorted[i]);
    if (i + 1 < sorted.size() && sorted[i] < sorted[i + 1]) {
      probe(sorted[i] + (sorted[i + 1] - sorted[i]) / 2);
    }
  }
  if (!sorted.empty()) {
    probe(sorted.front() - 1.0);
    probe(sorted.back() + 1.0);
  }
  probe(0.0);
}

KllSketch MustCreate(const KllOptions& options) {
  auto sketch = KllSketch::Create(options);
  MOCHE_FUZZ_CHECK(sketch.ok(), "Create rejected a valid config: %s",
                   sketch.status().message().c_str());
  return std::move(*sketch);
}

// Arbitrary bytes through the deserializer: reject with a Status, or
// produce a sketch whose re-serialization is a byte fixed point.
void HostileBytesOracle(moche::fuzz::Provider* in) {
  const std::string bytes = in->RemainingString();
  moche::bin::Reader reader(bytes);
  auto sketch = KllSketch::DeserializeFrom(&reader);
  if (!sketch.ok()) return;
  std::string first;
  sketch->SerializeTo(&first);
  moche::bin::Reader again_reader(first);
  auto again = KllSketch::DeserializeFrom(&again_reader);
  MOCHE_FUZZ_CHECK(again.ok(),
                   "accepted bytes did not re-deserialize: %s",
                   again.status().message().c_str());
  std::string second;
  again->SerializeTo(&second);
  MOCHE_FUZZ_CHECK(first == second,
                   "serialize -> deserialize -> serialize is not a fixed "
                   "point on accepted hostile bytes");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  if (in.Byte() % 8 == 0) {
    HostileBytesOracle(&in);
    return 0;
  }

  KllOptions options;
  options.capacity = in.SizeInRange(KllSketch::kMinCapacity, 64);
  options.seed = in.U64();
  const int alphabet = static_cast<int>(in.SizeInRange(1, 12));
  const size_t n = in.SizeInRange(0, 300);

  std::vector<double> sample;
  if (in.Bool()) {
    in.TiedArray(n, alphabet, &sample);
  } else {
    in.FiniteArray(n, &sample);
  }

  KllSketch sketch = MustCreate(options);
  for (double v : sample) sketch.Update(v);
  MOCHE_FUZZ_CHECK(sketch.count() == n, "count %llu after %zu updates",
                   static_cast<unsigned long long>(sketch.count()), n);

  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  CheckCertifiedBound(sketch, sorted, "single sketch");

  // Merge: two sketches over a split of the sample certify the union, and
  // the merged error bound is the sum of the parts'.
  const size_t cut = in.SizeInRange(0, n);
  KllSketch left = MustCreate(options);
  KllOptions right_options = options;
  right_options.seed = in.U64();
  KllSketch right = MustCreate(right_options);
  for (size_t i = 0; i < n; ++i) {
    (i < cut ? left : right).Update(sample[i]);
  }
  const uint64_t bound_sum =
      left.rank_error_bound() + right.rank_error_bound();
  auto merge = left.Merge(right);
  MOCHE_FUZZ_CHECK(merge.ok(), "Merge failed: %s",
                   merge.message().c_str());
  MOCHE_FUZZ_CHECK(left.count() == n, "merged count %llu != %zu",
                   static_cast<unsigned long long>(left.count()), n);
  MOCHE_FUZZ_CHECK(left.rank_error_bound() >= bound_sum,
                   "merge shrank the certified bound");
  CheckCertifiedBound(left, sorted, "merged sketch");

  // Serialize -> deserialize -> serialize is a byte fixed point, and the
  // restored sketch answers rank queries bit-identically.
  std::string bytes;
  sketch.SerializeTo(&bytes);
  moche::bin::Reader reader(bytes);
  auto restored = KllSketch::DeserializeFrom(&reader);
  MOCHE_FUZZ_CHECK(restored.ok(), "round trip rejected its own bytes: %s",
                   restored.status().message().c_str());
  MOCHE_FUZZ_CHECK(reader.AtEnd(), "round trip left trailing bytes");
  std::string again;
  restored->SerializeTo(&again);
  MOCHE_FUZZ_CHECK(bytes == again, "serialization is not a fixed point");
  for (double x : sorted) {
    MOCHE_FUZZ_CHECK(restored->EstimateRank(x) == sketch.EstimateRank(x),
                     "restored sketch ranks %.17g differently", x);
  }

  // The triage bracket against exact KS. Certified verdicts must agree
  // with the exact decision; the bracket must contain the exact statistic.
  if (n == 0 || in.empty()) return 0;
  const double alpha = in.Alpha();
  auto sketched = SketchedReference::FromSample(sample, alpha, options);
  MOCHE_FUZZ_CHECK(sketched.ok(), "FromSample rejected a valid sample: %s",
                   sketched.status().message().c_str());
  const size_t m = in.SizeInRange(1, 24);
  std::vector<double> window;
  if (in.Bool()) {
    in.TiedArray(m, alphabet, &window);
  } else {
    in.FiniteArray(m, &window);
  }
  std::vector<double> window_sorted = window;
  std::sort(window_sorted.begin(), window_sorted.end());

  const double statistic = sketched->StatisticAgainstSorted(window_sorted);
  const double naive = NaiveSketchStatistic(*sketched, window_sorted);
  MOCHE_FUZZ_CHECK(moche::bin::DoubleBits(statistic) ==
                       moche::bin::DoubleBits(naive),
                   "endpoint sweep %.17g differs from the naive sweep %.17g",
                   statistic, naive);
  const SketchTriage triage = sketched->Classify(statistic, m);
  auto exact = moche::ks::Run(sample, window, alpha);
  MOCHE_FUZZ_CHECK(exact.ok(), "exact ks::Run failed: %s",
                   exact.status().message().c_str());
  MOCHE_FUZZ_CHECK(
      triage.lower <= exact->statistic + 1e-12 &&
          triage.upper >= exact->statistic - 1e-12,
      "bracket [%.17g, %.17g] misses the exact statistic %.17g",
      triage.lower, triage.upper, exact->statistic);
  if (triage.verdict == TriageVerdict::kCertainPass) {
    MOCHE_FUZZ_CHECK(!exact->reject,
                     "certified pass but exact KS rejects (D=%.17g p=%.17g)",
                     exact->statistic, exact->threshold);
  } else if (triage.verdict == TriageVerdict::kCertainFail) {
    MOCHE_FUZZ_CHECK(exact->reject,
                     "certified fail but exact KS passes (D=%.17g p=%.17g)",
                     exact->statistic, exact->threshold);
  }
  return 0;
}
