// AVX2 kernel table. This translation unit (and only this one) is compiled
// with -mavx2 (see src/util/CMakeLists.txt); the guard below keeps it an
// empty stub on non-x86 targets. Runtime safety: the table is handed out
// only after __builtin_cpu_supports("avx2") says the CPU has the
// instructions, so linking this TU into a generic binary is safe.
//
// Bit-identity notes (the contract is spelled out in simd.h): every lane
// operation here — vsubpd/vmulpd/vaddpd/vdivpd/vminpd/vmaxpd/vcmppd — is
// the correctly rounded IEEE-754 operation, identical to its scalar
// counterpart; no FMA is emitted (the fused result would differ) because
// the multiply and subtract are separate intrinsics and the build disables
// contraction. Prefix maxima are computed with in-register max trees, which
// agree with the scalar running max because the inputs are finite and never
// -0.0 (Gamma = C_T - scale*C_R with C_T >= 0 and scale*C_R >= 0 cannot
// round to -0.0, and vmaxpd on bit-equal operands returns those bits).
// First-index tie-breaks re-derive the index from an equality mask instead
// of trusting any reduction order.

#include "util/simd.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace moche {
namespace simd {
namespace {

inline double Lane0(__m256d v) {
  return _mm_cvtsd_f64(_mm256_castpd256_pd128(v));
}

// Prefix max across the four lanes (lane 0 = lowest index), seeded with
// `carry` (the running max before this block, broadcast in all lanes):
// out[k] = max(carry, in[0..k]).
inline __m256d PrefixMax(__m256d g, __m256d carry) {
  const __m256d kNegInf =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  // Slide one lane up, filling with -inf, and take the max; then two lanes.
  __m256d s1 = _mm256_blend_pd(
      _mm256_permute4x64_pd(g, _MM_SHUFFLE(2, 1, 0, 0)), kNegInf, 0x1);
  g = _mm256_max_pd(g, s1);
  __m256d s2 = _mm256_blend_pd(
      _mm256_permute4x64_pd(g, _MM_SHUFFLE(1, 0, 0, 0)), kNegInf, 0x3);
  g = _mm256_max_pd(g, s2);
  return _mm256_max_pd(g, carry);
}

// Max of all four lanes, broadcast to every lane.
inline __m256d HorizontalMax(__m256d d) {
  __m256d t = _mm256_max_pd(d, _mm256_permute2f128_pd(d, d, 0x1));
  return _mm256_max_pd(t, _mm256_permute_pd(t, 0x5));
}

size_t Theorem1FilterScanAvx2(const double* ct_d, const double* cr_d,
                              const double* rigid_d, size_t begin, size_t end,
                              double scale, double omega, double hh_d,
                              double* running_max) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vomega = _mm256_set1_pd(omega);
  const __m256d vhh = _mm256_set1_pd(hh_d);
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d vzero = _mm256_setzero_pd();
  __m256d carry = _mm256_set1_pd(*running_max);
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256d ct = _mm256_loadu_pd(ct_d + i);
    const __m256d cr = _mm256_loadu_pd(cr_d + i);
    const __m256d rg = _mm256_loadu_pd(rigid_d + i);
    const __m256d gamma = _mm256_sub_pd(ct, _mm256_mul_pd(vscale, cr));
    const __m256d pm = PrefixMax(gamma, carry);
    const __m256d a = _mm256_sub_pd(pm, vomega);
    const __m256d b = _mm256_add_pd(gamma, vomega);
    const __m256d rigid_hi = _mm256_min_pd(ct, vhh);
    const __m256d rigid_lo =
        _mm256_max_pd(_mm256_add_pd(vhh, rg), vzero);
    const __m256d pass = _mm256_and_pd(
        _mm256_and_pd(_mm256_cmp_pd(a, rigid_hi, _CMP_LE_OQ),
                      _mm256_cmp_pd(b, rigid_lo, _CMP_GE_OQ)),
        _mm256_cmp_pd(_mm256_sub_pd(b, a), vone, _CMP_GE_OQ));
    const int mask = _mm256_movemask_pd(pass);
    if (mask != 0xF) {
      const int k = __builtin_ctz(~mask & 0xF);
      alignas(32) double pmv[4];
      _mm256_store_pd(pmv, pm);
      *running_max = pmv[k];
      return i + static_cast<size_t>(k);
    }
    carry = _mm256_permute4x64_pd(pm, _MM_SHUFFLE(3, 3, 3, 3));
  }
  *running_max = Lane0(carry);
  return KernelsFor(Isa::kScalar)
      .theorem1_filter_scan(ct_d, cr_d, rigid_d, i, end, scale, omega, hh_d,
                            running_max);
}

size_t Theorem2FilterScanAvx2(const double* ct_d, const double* cr_d,
                              size_t begin, size_t end, double scale,
                              double omega, double hh_d,
                              double* running_max) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vomega = _mm256_set1_pd(omega);
  const __m256d vhh = _mm256_set1_pd(hh_d);
  const __m256d vzero = _mm256_setzero_pd();
  __m256d carry = _mm256_set1_pd(*running_max);
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256d ct = _mm256_loadu_pd(ct_d + i);
    const __m256d cr = _mm256_loadu_pd(cr_d + i);
    const __m256d gamma = _mm256_sub_pd(ct, _mm256_mul_pd(vscale, cr));
    const __m256d pm = PrefixMax(gamma, carry);
    const __m256d a = _mm256_sub_pd(pm, vomega);
    const __m256d b = _mm256_add_pd(gamma, vomega);
    const __m256d pass =
        _mm256_and_pd(_mm256_and_pd(_mm256_cmp_pd(b, vzero, _CMP_GE_OQ),
                                    _mm256_cmp_pd(a, vhh, _CMP_LE_OQ)),
                      _mm256_cmp_pd(a, b, _CMP_LE_OQ));
    const int mask = _mm256_movemask_pd(pass);
    if (mask != 0xF) {
      const int k = __builtin_ctz(~mask & 0xF);
      alignas(32) double pmv[4];
      _mm256_store_pd(pmv, pm);
      *running_max = pmv[k];
      return i + static_cast<size_t>(k);
    }
    carry = _mm256_permute4x64_pd(pm, _MM_SHUFFLE(3, 3, 3, 3));
  }
  *running_max = Lane0(carry);
  return KernelsFor(Isa::kScalar)
      .theorem2_filter_scan(ct_d, cr_d, i, end, scale, omega, hh_d,
                            running_max);
}

// Fold one block of the ECDF sweep's |F_R - F_T| vector into the
// (best, best_index) state with the scalar loop's first-strict-max
// semantics — a new global max picks the block's first lane attaining it.
inline void FoldSweepBlock(__m256d d, size_t base, double* best,
                           size_t* best_index) {
  const double hmax = Lane0(HorizontalMax(d));
  if (hmax > *best) {
    *best = hmax;
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(d, _mm256_set1_pd(hmax), _CMP_EQ_OQ));
    *best_index = base + static_cast<size_t>(__builtin_ctz(mask));
  }
}

// A function, not a global: a namespace-scope __m256d would execute AVX
// instructions in its load-time initializer, before the CPU check runs.
inline __m256d AbsMask() {
  return _mm256_castsi256_pd(
      _mm256_set1_epi64x(static_cast<int64_t>(0x7FFFFFFFFFFFFFFFull)));
}

// Exact int64 -> double conversion for 0 <= x < 2^52: OR in the exponent of
// 2^52 and subtract it back out in double arithmetic.
inline __m256d ExactSmallInt64ToDouble(__m256i x) {
  const __m256i kMagicBits =
      _mm256_set1_epi64x(static_cast<int64_t>(0x4330000000000000ull));
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(x, kMagicBits)),
                       _mm256_set1_pd(0x1p52));
}

double EcdfSweepCountsAvx2(const double* cum_r_d, const int64_t* count_t,
                           const int64_t* removed, size_t q, double n,
                           double m_rem, size_t* best_index) {
  const __m256d vn = _mm256_set1_pd(n);
  const __m256d vm = _mm256_set1_pd(m_rem);
  const __m256i vzero = _mm256_setzero_si256();
  __m256i carry = _mm256_setzero_si256();
  double best = 0.0;
  size_t bi = SIZE_MAX;
  size_t i = 0;
  for (; i + 4 <= q; i += 4) {
    __m256i x = _mm256_sub_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(count_t + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(removed + i)));
    // In-register prefix sum (lane 0 = lowest index), then add the carry.
    __m256i s1 = _mm256_blend_epi32(
        _mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 1, 0, 0)), vzero, 0x03);
    x = _mm256_add_epi64(x, s1);
    __m256i s2 = _mm256_blend_epi32(
        _mm256_permute4x64_epi64(x, _MM_SHUFFLE(1, 0, 0, 0)), vzero, 0x0F);
    x = _mm256_add_epi64(x, s2);
    x = _mm256_add_epi64(x, carry);
    carry = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(3, 3, 3, 3));
    const __m256d dr = _mm256_div_pd(_mm256_loadu_pd(cum_r_d + i), vn);
    const __m256d dt = _mm256_div_pd(ExactSmallInt64ToDouble(x), vm);
    const __m256d d = _mm256_and_pd(_mm256_sub_pd(dr, dt), AbsMask());
    FoldSweepBlock(d, i, &best, &bi);
  }
  int64_t cum_t = _mm256_extract_epi64(carry, 0);
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

bool AllFiniteAvx2(const double* values, size_t count) {
  // finite(v) <=> v - v == 0 (Inf - Inf and NaN - NaN are both NaN).
  const __m256d vzero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    const __m256d diff = _mm256_sub_pd(v, v);
    if (_mm256_movemask_pd(_mm256_cmp_pd(diff, vzero, _CMP_EQ_OQ)) != 0xF) {
      return false;
    }
  }
  for (; i < count; ++i) {
    if (!std::isfinite(values[i])) return false;
  }
  return true;
}

const Kernels kAvx2Kernels = {
    Theorem1FilterScanAvx2,
    Theorem2FilterScanAvx2,
    EcdfSweepCountsAvx2,
    AllFiniteAvx2,
};

}  // namespace

namespace internal {

const Kernels* Avx2KernelsOrNull() {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported ? &kAvx2Kernels : nullptr;
}

}  // namespace internal
}  // namespace simd
}  // namespace moche

#else  // !x86

namespace moche {
namespace simd {
namespace internal {

const Kernels* Avx2KernelsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace moche

#endif
