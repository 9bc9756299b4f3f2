#include "core/cumulative.h"

#include <algorithm>
#include <cmath>

#include "ks/anchors.h"
#include "ks/ks_test.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace moche {

Result<CumulativeFrame> CumulativeFrame::Build(const std::vector<double>& r,
                                               const std::vector<double>& t) {
  // Validate before sorting: std::sort on a range with NaN is undefined
  // behavior.
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(r, "reference set"));
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(t, "test set"));
  std::vector<double> rs = r;
  std::vector<double> ts = t;
  // moche-lint: allow(sort-doubles): range validated finite above (ks::ValidateSample)
  std::sort(rs.begin(), rs.end());
  // moche-lint: allow(sort-doubles): range validated finite above (ks::ValidateSample)
  std::sort(ts.begin(), ts.end());
  CumulativeFrame frame;
  BuildFromSortedUncheckedInto(rs, ts, &frame);
  return frame;
}

void CumulativeFrame::BuildFromSortedUncheckedInto(
    const std::vector<double>& r_sorted, const std::vector<double>& t_sorted,
    CumulativeFrame* out) {
  MOCHE_DCHECK(!r_sorted.empty() && !t_sorted.empty());
  MOCHE_DCHECK(std::is_sorted(r_sorted.begin(), r_sorted.end()));
  MOCHE_DCHECK(std::is_sorted(t_sorted.begin(), t_sorted.end()));

  out->n_ = r_sorted.size();
  out->m_ = t_sorted.size();
  // clear() keeps capacity; n + m bounds q, so a warm frame never
  // reallocates mid-merge.
  out->values_.clear();
  out->cum_r_.clear();
  out->cum_t_.clear();
  const size_t q_bound = r_sorted.size() + t_sorted.size();
  out->values_.reserve(q_bound);
  out->cum_r_.reserve(q_bound + 1);
  out->cum_t_.reserve(q_bound + 1);
  out->cum_r_.push_back(0);
  out->cum_t_.push_back(0);

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
    out->values_.push_back(x);
    out->cum_r_.push_back(static_cast<int64_t>(i));
    out->cum_t_.push_back(static_cast<int64_t>(j));
  }
}

void CumulativeFrame::BuildAnchoredInto(const std::vector<double>& r_sorted,
                                        const std::vector<double>& t_sorted,
                                        CumulativeFrame* out) {
  MOCHE_DCHECK(!r_sorted.empty() && !t_sorted.empty());
  MOCHE_DCHECK(std::is_sorted(r_sorted.begin(), r_sorted.end()));
  MOCHE_DCHECK(std::is_sorted(t_sorted.begin(), t_sorted.end()));

  out->n_ = r_sorted.size();
  out->m_ = t_sorted.size();
  out->values_.clear();
  out->cum_r_.clear();
  out->cum_t_.clear();
  // 2 d_T + 2 <= 2 m + 2 anchors, so the capacity follows the window, not
  // the reference.
  const size_t q_bound = 2 * t_sorted.size() + 2;
  out->values_.reserve(q_bound);
  out->cum_r_.reserve(q_bound + 1);
  out->cum_t_.reserve(q_bound + 1);
  out->cum_r_.push_back(0);
  out->cum_t_.push_back(0);
  ks::internal::ForEachAnchor(
      r_sorted, t_sorted, [out](double x, size_t cr, size_t ct) {
        out->values_.push_back(x);
        out->cum_r_.push_back(static_cast<int64_t>(cr));
        out->cum_t_.push_back(static_cast<int64_t>(ct));
      });
}

bool CumulativeFrame::AnchoredIsExact(size_t n, size_t m, double c_alpha) {
  const double dn = static_cast<double>(n);
  const double dm = static_cast<double>(m);
  const double omega0 = c_alpha * std::sqrt(dm + dm * dm / dn);
  return dn * (dm + omega0 + 1.0) < 0x1p49;
}

Result<size_t> CumulativeFrame::IndexOfValue(double value) const {
  const auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) {
    return Status::NotFound(
        StrFormat("value %g not in the base vector", value));
  }
  return static_cast<size_t>(it - values_.begin()) + 1;  // 1-based
}

Result<std::vector<int64_t>> CumulativeFrame::CumulativeOf(
    const std::vector<double>& subset) const {
  std::vector<int64_t> counts(q() + 1, 0);
  for (double v : subset) {
    MOCHE_ASSIGN_OR_RETURN(const size_t idx, IndexOfValue(v));
    ++counts[idx];
  }
  // prefix-sum the per-value multiplicities into a cumulative vector
  for (size_t i = 1; i <= q(); ++i) counts[i] += counts[i - 1];
  return counts;
}

}  // namespace moche
