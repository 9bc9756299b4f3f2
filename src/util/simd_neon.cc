// NEON (aarch64) kernel table. NEON is the aarch64 baseline, so this TU
// needs no special compile flags; the guard keeps it an empty stub
// elsewhere. The bit-identity contract and the lane-arithmetic arguments
// are the same as simd_avx2.cc, just two lanes wide: vsub/vmul/vadd/vdiv/
// vmin/vmax/vabs over float64x2_t are the correctly rounded IEEE-754
// operations (vabsq_f64 clears the sign bit, exactly std::fabs), no FMA
// intrinsic is used, and vcvtq_f64_s64 (scvtf) is exact for |x| < 2^53.

#include "util/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace moche {
namespace simd {
namespace {

// Prefix max across the two lanes (lane 0 = lowest index), seeded with
// `carry` broadcast in both lanes: out = [max(c, g0), max(c, g0, g1)].
inline float64x2_t PrefixMax2(float64x2_t g, float64x2_t carry) {
  const float64x2_t neg_inf =
      vdupq_n_f64(-std::numeric_limits<double>::infinity());
  // [-inf, g0]: slide one lane up.
  const float64x2_t s1 = vextq_f64(neg_inf, g, 1);
  return vmaxq_f64(vmaxq_f64(g, s1), carry);
}

size_t Theorem1FilterScanNeon(const double* ct_d, const double* cr_d,
                              const double* rigid_d, size_t begin, size_t end,
                              double scale, double omega, double hh_d,
                              double* running_max) {
  const float64x2_t vscale = vdupq_n_f64(scale);
  const float64x2_t vomega = vdupq_n_f64(omega);
  const float64x2_t vhh = vdupq_n_f64(hh_d);
  const float64x2_t vone = vdupq_n_f64(1.0);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  float64x2_t carry = vdupq_n_f64(*running_max);
  size_t i = begin;
  for (; i + 2 <= end; i += 2) {
    const float64x2_t ct = vld1q_f64(ct_d + i);
    const float64x2_t cr = vld1q_f64(cr_d + i);
    const float64x2_t rg = vld1q_f64(rigid_d + i);
    const float64x2_t gamma = vsubq_f64(ct, vmulq_f64(vscale, cr));
    const float64x2_t pm = PrefixMax2(gamma, carry);
    const float64x2_t a = vsubq_f64(pm, vomega);
    const float64x2_t b = vaddq_f64(gamma, vomega);
    const float64x2_t rigid_hi = vminq_f64(ct, vhh);
    const float64x2_t rigid_lo = vmaxq_f64(vaddq_f64(vhh, rg), vzero);
    const uint64x2_t pass =
        vandq_u64(vandq_u64(vcleq_f64(a, rigid_hi), vcgeq_f64(b, rigid_lo)),
                  vcgeq_f64(vsubq_f64(b, a), vone));
    if (vgetq_lane_u64(pass, 0) == 0) {
      *running_max = vgetq_lane_f64(pm, 0);
      return i;
    }
    if (vgetq_lane_u64(pass, 1) == 0) {
      *running_max = vgetq_lane_f64(pm, 1);
      return i + 1;
    }
    carry = vdupq_laneq_f64(pm, 1);
  }
  *running_max = vgetq_lane_f64(carry, 0);
  return KernelsFor(Isa::kScalar)
      .theorem1_filter_scan(ct_d, cr_d, rigid_d, i, end, scale, omega, hh_d,
                            running_max);
}

size_t Theorem2FilterScanNeon(const double* ct_d, const double* cr_d,
                              size_t begin, size_t end, double scale,
                              double omega, double hh_d,
                              double* running_max) {
  const float64x2_t vscale = vdupq_n_f64(scale);
  const float64x2_t vomega = vdupq_n_f64(omega);
  const float64x2_t vhh = vdupq_n_f64(hh_d);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  float64x2_t carry = vdupq_n_f64(*running_max);
  size_t i = begin;
  for (; i + 2 <= end; i += 2) {
    const float64x2_t ct = vld1q_f64(ct_d + i);
    const float64x2_t cr = vld1q_f64(cr_d + i);
    const float64x2_t gamma = vsubq_f64(ct, vmulq_f64(vscale, cr));
    const float64x2_t pm = PrefixMax2(gamma, carry);
    const float64x2_t a = vsubq_f64(pm, vomega);
    const float64x2_t b = vaddq_f64(gamma, vomega);
    const uint64x2_t pass = vandq_u64(
        vandq_u64(vcgeq_f64(b, vzero), vcleq_f64(a, vhh)), vcleq_f64(a, b));
    if (vgetq_lane_u64(pass, 0) == 0) {
      *running_max = vgetq_lane_f64(pm, 0);
      return i;
    }
    if (vgetq_lane_u64(pass, 1) == 0) {
      *running_max = vgetq_lane_f64(pm, 1);
      return i + 1;
    }
    carry = vdupq_laneq_f64(pm, 1);
  }
  *running_max = vgetq_lane_f64(carry, 0);
  return KernelsFor(Isa::kScalar)
      .theorem2_filter_scan(ct_d, cr_d, i, end, scale, omega, hh_d,
                            running_max);
}

// Fold one block's |F_R - F_T| pair into (best, best_index) with the
// scalar loop's first-strict-max semantics.
inline void FoldSweepPair(float64x2_t d, size_t base, double* best,
                          size_t* best_index) {
  const double d0 = vgetq_lane_f64(d, 0);
  const double d1 = vgetq_lane_f64(d, 1);
  if (d0 > *best) {
    *best = d0;
    *best_index = base;
  }
  if (d1 > *best) {
    *best = d1;
    *best_index = base + 1;
  }
}

double EcdfSweepCountsNeon(const double* cum_r_d, const int64_t* count_t,
                           const int64_t* removed, size_t q, double n,
                           double m_rem, size_t* best_index) {
  const float64x2_t vn = vdupq_n_f64(n);
  const float64x2_t vm = vdupq_n_f64(m_rem);
  int64x2_t carry = vdupq_n_s64(0);
  double best = 0.0;
  size_t bi = SIZE_MAX;
  size_t i = 0;
  for (; i + 2 <= q; i += 2) {
    int64x2_t x =
        vsubq_s64(vld1q_s64(count_t + i), vld1q_s64(removed + i));
    // In-register prefix sum: [x0, x0 + x1], plus the carry.
    x = vaddq_s64(x, vextq_s64(vdupq_n_s64(0), x, 1));
    x = vaddq_s64(x, carry);
    carry = vdupq_laneq_s64(x, 1);
    // scvtf is exact for counts < 2^53 — identical to static_cast<double>.
    const float64x2_t dr = vdivq_f64(vld1q_f64(cum_r_d + i), vn);
    const float64x2_t dt = vdivq_f64(vcvtq_f64_s64(x), vm);
    const float64x2_t d = vabsq_f64(vsubq_f64(dr, dt));
    FoldSweepPair(d, i, &best, &bi);
  }
  int64_t cum_t = vgetq_lane_s64(carry, 0);
  for (; i < q; ++i) {
    cum_t += count_t[i] - removed[i];
    const double d =
        std::fabs(cum_r_d[i] / n - static_cast<double>(cum_t) / m_rem);
    if (d > best) {
      best = d;
      bi = i;
    }
  }
  if (bi != SIZE_MAX) *best_index = bi;
  return best;
}

bool AllFiniteNeon(const double* values, size_t count) {
  // finite(v) <=> v - v == 0 (Inf - Inf and NaN - NaN are both NaN).
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const float64x2_t v = vld1q_f64(values + i);
    const uint64x2_t ok = vceqzq_f64(vsubq_f64(v, v));
    if (vgetq_lane_u64(ok, 0) == 0 || vgetq_lane_u64(ok, 1) == 0) {
      return false;
    }
  }
  for (; i < count; ++i) {
    if (!std::isfinite(values[i])) return false;
  }
  return true;
}

const Kernels kNeonKernels = {
    Theorem1FilterScanNeon,
    Theorem2FilterScanNeon,
    EcdfSweepCountsNeon,
    AllFiniteNeon,
};

}  // namespace

namespace internal {

const Kernels* NeonKernelsOrNull() { return &kNeonKernels; }

}  // namespace internal
}  // namespace simd
}  // namespace moche

#else  // !aarch64

namespace moche {
namespace simd {
namespace internal {

const Kernels* NeonKernelsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace moche

#endif
