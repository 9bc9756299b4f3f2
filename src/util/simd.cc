#include "util/simd.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace moche {
namespace simd {

namespace {

// The scalar reference kernels. These are byte-for-byte the loops the
// callers in core/bounds.cc and ks/ks_test.cc used to run inline; the
// vector tables are required to match them bit-identically (file header of
// simd.h), so this translation unit is the specification.

size_t Theorem1FilterScanScalar(const double* ct_d, const double* cr_d,
                                const double* rigid_d, size_t begin,
                                size_t end, double scale, double omega,
                                double hh_d, double* running_max) {
  double run = *running_max;
  for (size_t i = begin; i < end; ++i) {
    const double gamma = ct_d[i] - scale * cr_d[i];
    if (gamma > run) run = gamma;
    const double a = run - omega;
    const double b = gamma + omega;
    const double rigid_hi = ct_d[i] < hh_d ? ct_d[i] : hh_d;
    const double lo_sum = hh_d + rigid_d[i];
    const double rigid_lo = lo_sum > 0.0 ? lo_sum : 0.0;
    if (!(a <= rigid_hi && b >= rigid_lo && b - a >= 1.0)) {
      *running_max = run;
      return i;
    }
  }
  *running_max = run;
  return end;
}

size_t Theorem2FilterScanScalar(const double* ct_d, const double* cr_d,
                                size_t begin, size_t end, double scale,
                                double omega, double hh_d,
                                double* running_max) {
  double run = *running_max;
  for (size_t i = begin; i < end; ++i) {
    const double gamma = ct_d[i] - scale * cr_d[i];
    if (gamma > run) run = gamma;
    const double a = run - omega;
    const double b = gamma + omega;
    if (!(b >= 0.0 && a <= hh_d && a <= b)) {
      *running_max = run;
      return i;
    }
  }
  *running_max = run;
  return end;
}

double EcdfSweepCountsScalar(const double* cum_r_d, const int64_t* count_t,
                             const int64_t* removed, size_t q, double n,
                             double m_rem, size_t* best_index) {
  double best = 0.0;
  int64_t cum_t = 0;
  for (size_t i = 0; i < q; ++i) {
    cum_t += count_t[i] - removed[i];
    const double d =
        std::fabs(cum_r_d[i] / n - static_cast<double>(cum_t) / m_rem);
    if (d > best) {
      best = d;
      *best_index = i;
    }
  }
  return best;
}

bool AllFiniteScalar(const double* values, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (!std::isfinite(values[i])) return false;
  }
  return true;
}

constexpr Kernels kScalarKernels = {
    Theorem1FilterScanScalar,
    Theorem2FilterScanScalar,
    EcdfSweepCountsScalar,
    AllFiniteScalar,
};

Isa DetectIsa() {
  const char* env = std::getenv("MOCHE_SIMD");
  if (env != nullptr && env[0] != '\0') {
    if (std::strcmp(env, "avx2") == 0 &&
        internal::Avx2KernelsOrNull() != nullptr) {
      return Isa::kAvx2;
    }
    if (std::strcmp(env, "neon") == 0 &&
        internal::NeonKernelsOrNull() != nullptr) {
      return Isa::kNeon;
    }
    // "scalar", an unavailable ISA, or an unknown value: the safe choice.
    return Isa::kScalar;
  }
  if (internal::Avx2KernelsOrNull() != nullptr) return Isa::kAvx2;
  if (internal::NeonKernelsOrNull() != nullptr) return Isa::kNeon;
  return Isa::kScalar;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

Isa ActiveIsa() {
  static const Isa isa = DetectIsa();
  return isa;
}

const char* ActiveIsaName() { return IsaName(ActiveIsa()); }

const Kernels& KernelsFor(Isa isa) {
  switch (isa) {
    case Isa::kAvx2: {
      const Kernels* k = internal::Avx2KernelsOrNull();
      if (k != nullptr) return *k;
      break;
    }
    case Isa::kNeon: {
      const Kernels* k = internal::NeonKernelsOrNull();
      if (k != nullptr) return *k;
      break;
    }
    case Isa::kScalar:
      break;
  }
  return kScalarKernels;
}

bool IsaAvailable(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return internal::Avx2KernelsOrNull() != nullptr;
    case Isa::kNeon:
      return internal::NeonKernelsOrNull() != nullptr;
    case Isa::kScalar:
      return true;
  }
  return false;
}

const Kernels& ActiveKernels() {
  static const Kernels& kernels = KernelsFor(ActiveIsa());
  return kernels;
}

}  // namespace simd
}  // namespace moche
