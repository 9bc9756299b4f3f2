#include "ks/ks_test.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ks/anchors.h"
#include "util/logging.h"
#include "util/simd.h"
#include "util/sort.h"
#include "util/string_util.h"

namespace moche {
namespace ks {

namespace internal {

double CriticalValueUnchecked(double alpha) {
  MOCHE_DCHECK(alpha > 0.0 && alpha < 2.0);
  return std::sqrt(-0.5 * std::log(alpha / 2.0));
}

double ThresholdUnchecked(double alpha, size_t n, size_t m) {
  MOCHE_DCHECK(n > 0 && m > 0);
  const double dn = static_cast<double>(n);
  const double dm = static_cast<double>(m);
  return CriticalValueUnchecked(alpha) * std::sqrt((dn + dm) / (dn * dm));
}

}  // namespace internal

Status ValidateAlpha(double alpha) {
  if (!(alpha > 0.0 && alpha < 2.0)) {
    return Status::InvalidArgument(
        StrFormat("alpha must be in (0, 2), got %g", alpha));
  }
  return Status::OK();
}

Result<double> CriticalValue(double alpha) {
  MOCHE_RETURN_IF_ERROR(ValidateAlpha(alpha));
  return internal::CriticalValueUnchecked(alpha);
}

double KolmogorovQ(double lambda) {
  if (!(lambda > 0.0)) return 1.0;
  // Below the crossover the alternating series' terms approach 1 and cancel
  // catastrophically (at lambda = 0.3 the true Q is 1 - 9e-5 but the series
  // needs ~1/lambda terms of alternating near-unit magnitude). The dual
  // Jacobi theta form converges fastest exactly there: t < 0.42 below the
  // crossover, so three terms (t, t^9, t^25) leave a t^49 < 1e-19 tail.
  // 1.18 is the classic handover point where both expansions need only a
  // handful of terms and agree to ~1e-15.
  constexpr double kCrossover = 1.18;
  if (lambda < kCrossover) {
    constexpr double kPiSqOver8 = 1.2337005501361697;  // pi^2 / 8
    constexpr double kSqrt2Pi = 2.5066282746310002;    // sqrt(2 pi)
    const double t = std::exp(-kPiSqOver8 / (lambda * lambda));
    if (t == 0.0) return 1.0;  // underflow: Q rounds to 1 exactly
    const double t2 = t * t;
    const double t4 = t2 * t2;
    const double t8 = t4 * t4;
    const double p = (kSqrt2Pi / lambda) * (t + t8 * t + t8 * t8 * t8 * t);
    return std::clamp(1.0 - p, 0.0, 1.0);
  }
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    if (term < 1e-16) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

Result<double> PValueAsymptotic(double d, size_t n, size_t m) {
  if (n == 0 || m == 0) {
    return Status::InvalidArgument(
        StrFormat("sample sizes must be positive, got n=%zu m=%zu", n, m));
  }
  const double dn = static_cast<double>(n);
  const double dm = static_cast<double>(m);
  return KolmogorovQ(d * std::sqrt(dn * dm / (dn + dm)));
}

Result<double> Threshold(double alpha, size_t n, size_t m) {
  MOCHE_RETURN_IF_ERROR(ValidateAlpha(alpha));
  if (n == 0 || m == 0) {
    return Status::InvalidArgument(
        StrFormat("sample sizes must be positive, got n=%zu m=%zu", n, m));
  }
  return internal::ThresholdUnchecked(alpha, n, m);
}

double StatisticSorted(const std::vector<double>& r_sorted,
                       const std::vector<double>& t_sorted, double* location) {
  if (r_sorted.empty() && t_sorted.empty()) {
    // No x exists; write a deterministic sentinel so callers that always
    // read *location never see an uninitialized value.
    if (location != nullptr) *location = 0.0;
    return 0.0;
  }
  if (r_sorted.empty() || t_sorted.empty()) {
    if (location != nullptr) {
      *location = r_sorted.empty() ? t_sorted.front() : r_sorted.front();
    }
    return 1.0;
  }
  const double n = static_cast<double>(r_sorted.size());
  const double m = static_cast<double>(t_sorted.size());
  double best = 0.0;
  double best_x = r_sorted.front();
  size_t i = 0;
  size_t j = 0;
  while (i < r_sorted.size() || j < t_sorted.size()) {
    double x;
    if (j >= t_sorted.size() ||
        (i < r_sorted.size() && r_sorted[i] <= t_sorted[j])) {
      x = r_sorted[i];
    } else {
      x = t_sorted[j];
    }
    while (i < r_sorted.size() && r_sorted[i] == x) ++i;
    while (j < t_sorted.size() && t_sorted[j] == x) ++j;
    const double d =
        std::fabs(static_cast<double>(i) / n - static_cast<double>(j) / m);
    if (d > best) {
      best = d;
      best_x = x;
    }
  }
  if (location != nullptr) *location = best_x;
  return best;
}

double StatisticAnchored(const std::vector<double>& r_sorted,
                         const std::vector<double>& t_sorted,
                         double* location) {
  if (r_sorted.empty() || t_sorted.empty()) {
    // Degenerate conventions live in one place.
    return StatisticSorted(r_sorted, t_sorted, location);
  }
  const double n = static_cast<double>(r_sorted.size());
  const double m = static_cast<double>(t_sorted.size());
  double best = 0.0;
  double best_x = r_sorted.front();
  // The same division, subtraction and first-strict-max fold as
  // StatisticSorted, at the anchors only; no other grid point can hold the
  // first maximum (ks/anchors.h).
  internal::ForEachAnchor(
      r_sorted, t_sorted, [&](double x, size_t cr, size_t ct) {
        const double d = std::fabs(static_cast<double>(cr) / n -
                                   static_cast<double>(ct) / m);
        if (d > best) {
          best = d;
          best_x = x;
        }
      });
  if (location != nullptr) *location = best_x;
  return best;
}

double Statistic(std::vector<double> r, std::vector<double> t,
                 double* location) {
  // Screen before sorting: SortFinite on a NaN-bearing range is UB. (Inf
  // is fine here — it has a rank; only Run/ValidateSample reject it.)
  for (const std::vector<double>* s : {&r, &t}) {
    for (double v : *s) {
      if (std::isnan(v)) {
        if (location != nullptr) *location = 0.0;
        return std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  // moche-lint: allow(sort-doubles): ranges screened NaN-free above
  SortFinite(&r);
  // moche-lint: allow(sort-doubles): ranges screened NaN-free above
  SortFinite(&t);
  return StatisticSorted(r, t, location);
}

Status ValidateSample(const std::vector<double>& sample, const char* name) {
  if (sample.empty()) {
    return Status::InvalidArgument(StrFormat("%s is empty", name));
  }
  if (!simd::ActiveKernels().all_finite(sample.data(), sample.size())) {
    return Status::InvalidArgument(
        StrFormat("%s contains a non-finite value", name));
  }
  return Status::OK();
}

namespace internal {

KsOutcome RunSortedUnchecked(const std::vector<double>& r_sorted,
                             const std::vector<double>& t_sorted,
                             double alpha) {
  KsOutcome out;
  out.n = r_sorted.size();
  out.m = t_sorted.size();
  out.statistic = StatisticAnchored(r_sorted, t_sorted, &out.location);
  out.threshold = ThresholdUnchecked(alpha, out.n, out.m);
  out.reject = out.statistic > out.threshold;
  return out;
}

}  // namespace internal

Result<KsOutcome> RunSorted(const std::vector<double>& r_sorted,
                            const std::vector<double>& t_sorted,
                            double alpha) {
  MOCHE_RETURN_IF_ERROR(ValidateSample(r_sorted, "reference set"));
  MOCHE_RETURN_IF_ERROR(ValidateSample(t_sorted, "test set"));
  MOCHE_RETURN_IF_ERROR(ValidateAlpha(alpha));
  return internal::RunSortedUnchecked(r_sorted, t_sorted, alpha);
}

Result<KsOutcome> Run(std::vector<double> r, std::vector<double> t,
                      double alpha) {
  // Validate before sorting — a NaN must never reach SortFinite (UB).
  // RunSorted re-validates; all_finite is one cheap SIMD pass.
  MOCHE_RETURN_IF_ERROR(ValidateSample(r, "reference set"));
  MOCHE_RETURN_IF_ERROR(ValidateSample(t, "test set"));
  // moche-lint: allow(sort-doubles): ranges validated finite above
  SortFinite(&r);
  // moche-lint: allow(sort-doubles): ranges validated finite above
  SortFinite(&t);
  return RunSorted(r, t, alpha);
}

}  // namespace ks

RemovalKs::RemovalKs(const std::vector<double>& r,
                     const std::vector<double>& t, double alpha)
    : alpha_(alpha), n_(r.size()), m_(t.size()) {
  MOCHE_DCHECK(ks::ValidateAlpha(alpha).ok());
  MOCHE_DCHECK(!r.empty());
  std::vector<double> rs = r;
  std::vector<double> ts = t;
  // moche-lint: allow(sort-doubles): documented precondition — callers validate via ks::ValidateSample
  SortFinite(&rs);
  // moche-lint: allow(sort-doubles): documented precondition — callers validate via ks::ValidateSample
  SortFinite(&ts);
  size_t i = 0;
  size_t j = 0;
  while (i < rs.size() || j < ts.size()) {
    double x;
    if (j >= ts.size() || (i < rs.size() && rs[i] <= ts[j])) {
      x = rs[i];
    } else {
      x = ts[j];
    }
    int64_t cr = 0;
    int64_t ct = 0;
    while (i < rs.size() && rs[i] == x) {
      ++i;
      ++cr;
    }
    while (j < ts.size() && ts[j] == x) {
      ++j;
      ++ct;
    }
    values_.push_back(x);
    count_r_.push_back(cr);
    count_t_.push_back(ct);
  }
  removed_.assign(values_.size(), 0);
  // The reference side never changes, so its cumulative counts are
  // precomputed once, already converted to double (exactly — counts are far
  // below 2^53), and every CurrentOutcome streams them straight into the
  // SIMD sweep.
  cum_r_d_.resize(values_.size());
  int64_t cum_r = 0;
  for (size_t k = 0; k < values_.size(); ++k) {
    cum_r += count_r_[k];
    cum_r_d_[k] = static_cast<double>(cum_r);
  }
}

Status RemovalKs::RemoveValue(double value) {
  const auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) {
    return Status::InvalidArgument("value not present in the union grid");
  }
  const size_t idx = static_cast<size_t>(it - values_.begin());
  if (removed_[idx] >= count_t_[idx]) {
    return Status::InvalidArgument(
        "all occurrences of this value in T are already removed");
  }
  ++removed_[idx];
  ++removed_total_;
  return Status::OK();
}

Status RemovalKs::UnremoveValue(double value) {
  const auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) {
    return Status::InvalidArgument("value not present in the union grid");
  }
  const size_t idx = static_cast<size_t>(it - values_.begin());
  if (removed_[idx] == 0) {
    return Status::InvalidArgument("no removed occurrence of this value");
  }
  --removed_[idx];
  --removed_total_;
  return Status::OK();
}

void RemovalKs::Reset() {
  std::fill(removed_.begin(), removed_.end(), 0);
  removed_total_ = 0;
}

KsOutcome RemovalKs::CurrentOutcome() const {
  KsOutcome out;
  out.n = n_;
  out.m = m_ - removed_total_;
  if (removed_total_ >= m_) {
    // The removal set consumed all of T. Mirror StatisticSorted's
    // one-empty-sample convention (D = 1, reject, location = the smallest
    // reference value, where |F_R - F_empty| first reaches 1); the
    // threshold formula diverges at m = 0, so report the degenerate
    // threshold 0.
    out.statistic = 1.0;
    out.threshold = 0.0;
    out.reject = true;
    out.location = 0.0;
    for (size_t i = 0; i < values_.size(); ++i) {
      if (count_r_[i] > 0) {
        out.location = values_[i];
        break;
      }
    }
    return out;
  }
  const double n = static_cast<double>(n_);
  const double m_rem = static_cast<double>(m_ - removed_total_);
  // The kernel prefix-sums count_t - removed in-register and divides the
  // cumulative counts exactly as the scalar loop did — bit-identical, with
  // the same first-strict-max location semantics (best_index is left alone
  // when every |F_R - F_T| is zero, mirroring the front-value convention).
  size_t best_index = SIZE_MAX;
  const double best = simd::ActiveKernels().ecdf_sweep_counts(
      cum_r_d_.data(), count_t_.data(), removed_.data(), values_.size(), n,
      m_rem, &best_index);
  out.statistic = best;
  out.location = best_index == SIZE_MAX
                     ? (values_.empty() ? 0.0 : values_.front())
                     : values_[best_index];
  out.threshold = ks::internal::ThresholdUnchecked(alpha_, n_,
                                                   m_ - removed_total_);
  out.reject = out.statistic > out.threshold;
  return out;
}

bool RemovalKs::Passes() const { return !CurrentOutcome().reject; }

std::vector<double> RemovalKs::RemainingTest() const {
  std::vector<double> out;
  out.reserve(m_ - removed_total_);
  for (size_t i = 0; i < values_.size(); ++i) {
    for (int64_t c = 0; c < count_t_[i] - removed_[i]; ++c) {
      out.push_back(values_[i]);
    }
  }
  return out;
}

}  // namespace moche
