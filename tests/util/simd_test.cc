// Scalar-vs-SIMD parity suite for util/simd.h: every vector kernel table
// available in this build must be bit-identical to the scalar reference on
// randomized, tie-heavy, and adversarial (denormal, ±0.0, monotone)
// inputs — same return indices, same result bits, same untouched-output
// conventions. The suite compares tables directly through KernelsFor, so
// it exercises the vector paths even when MOCHE_SIMD=scalar pins dispatch
// (and degenerates to scalar-vs-scalar on hardware without any vector
// table, which keeps it green everywhere). The kernels are also required
// to be allocation-free: they run under the counting operator new.

#include "util/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "testing_alloc.h"
#include "util/rng.h"

namespace moche {
namespace simd {
namespace {

using testing_alloc::AllocationProbe;

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenormal = std::numeric_limits<double>::denorm_min();

/// The vector tables this build can run, paired with the scalar reference.
std::vector<Isa> VectorIsas() {
  std::vector<Isa> isas;
  if (IsaAvailable(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  if (IsaAvailable(Isa::kNeon)) isas.push_back(Isa::kNeon);
  // Always compare at least one pair so the suite never silently tests
  // nothing (scalar-vs-scalar on plain hardware).
  if (isas.empty()) isas.push_back(Isa::kScalar);
  return isas;
}

/// One synthetic bounds-coefficient instance in the engine's SoA layout.
struct BoundsArrays {
  std::vector<double> ct_d;     // non-decreasing counts in [0, m]
  std::vector<double> cr_d;     // non-decreasing counts in [0, n]
  std::vector<double> rigid_d;  // ct_d - m
  double n = 0.0;
  double m = 0.0;
};

enum class Shape { kRandom, kTieHeavy, kMonotone };

BoundsArrays MakeBounds(size_t q, Shape shape, Rng* rng) {
  BoundsArrays b;
  b.ct_d.resize(q + 1);
  b.cr_d.resize(q + 1);
  b.rigid_d.resize(q + 1);
  int64_t ct = 0;
  int64_t cr = 0;
  for (size_t i = 1; i <= q; ++i) {
    switch (shape) {
      case Shape::kRandom:
        ct += rng->Integer(0, 3);
        cr += rng->Integer(0, 5);
        break;
      case Shape::kTieHeavy:
        // Long flat runs: most gammas equal, so every prefix-max/argmax
        // tie-break path fires.
        ct += rng->Bernoulli(0.1) ? rng->Integer(1, 2) : 0;
        cr += rng->Bernoulli(0.1) ? 1 : 0;
        break;
      case Shape::kMonotone:
        ct += 1;
        cr += 2;
        break;
    }
    b.ct_d[i] = static_cast<double>(ct);
    b.cr_d[i] = static_cast<double>(cr);
  }
  b.m = static_cast<double>(ct > 0 ? ct : 1);
  b.n = static_cast<double>(cr > 0 ? cr : 1);
  for (size_t i = 0; i <= q; ++i) b.rigid_d[i] = b.ct_d[i] - b.m;
  return b;
}

/// Compares one theorem-scan call between `table` and the scalar reference
/// for a grid of begin offsets and running-max seeds (offsets exercise the
/// unaligned heads and scalar tails of the vector paths).
void CheckTheoremScans(const Kernels& table, const BoundsArrays& b,
                       double scale, double omega, double hh_d,
                       const std::string& label) {
  const Kernels& scalar = KernelsFor(Isa::kScalar);
  const size_t end = b.ct_d.size();
  const double seeds[] = {-kInf, 0.0, 1.5};
  for (size_t begin = 1; begin < end && begin <= 9; ++begin) {
    for (double seed : seeds) {
      double run_s = seed;
      double run_v = seed;
      const size_t stop_s =
          scalar.theorem1_filter_scan(b.ct_d.data(), b.cr_d.data(),
                                      b.rigid_d.data(), begin, end, scale,
                                      omega, hh_d, &run_s);
      const size_t stop_v =
          table.theorem1_filter_scan(b.ct_d.data(), b.cr_d.data(),
                                     b.rigid_d.data(), begin, end, scale,
                                     omega, hh_d, &run_v);
      ASSERT_EQ(stop_s, stop_v) << label << " t1 begin=" << begin;
      ASSERT_EQ(Bits(run_s), Bits(run_v)) << label << " t1 begin=" << begin;

      run_s = seed;
      run_v = seed;
      const size_t stop2_s =
          scalar.theorem2_filter_scan(b.ct_d.data(), b.cr_d.data(), begin,
                                      end, scale, omega, hh_d, &run_s);
      const size_t stop2_v =
          table.theorem2_filter_scan(b.ct_d.data(), b.cr_d.data(), begin,
                                     end, scale, omega, hh_d, &run_v);
      ASSERT_EQ(stop2_s, stop2_v) << label << " t2 begin=" << begin;
      ASSERT_EQ(Bits(run_s), Bits(run_v)) << label << " t2 begin=" << begin;
    }
  }
}

TEST(SimdDispatch, ActiveIsaIsStableAndNamed) {
  const std::string name = ActiveIsaName();
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "neon") << name;
  EXPECT_EQ(ActiveIsa(), ActiveIsa());  // latched once
  EXPECT_EQ(name, IsaName(ActiveIsa()));
  EXPECT_TRUE(IsaAvailable(Isa::kScalar));
}

TEST(SimdDispatch, UnavailableIsaFallsBackToScalarTable) {
  const Kernels& scalar = KernelsFor(Isa::kScalar);
  for (Isa isa : {Isa::kAvx2, Isa::kNeon}) {
    if (IsaAvailable(isa)) continue;
    const Kernels& table = KernelsFor(isa);
    EXPECT_EQ(table.theorem1_filter_scan, scalar.theorem1_filter_scan);
    EXPECT_EQ(table.ecdf_sweep_counts, scalar.ecdf_sweep_counts);
  }
  // At most one vector ISA exists per build, never both.
  EXPECT_FALSE(IsaAvailable(Isa::kAvx2) && IsaAvailable(Isa::kNeon));
}

TEST(SimdDispatch, EveryTablePointerIsNonNull) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon}) {
    const Kernels& k = KernelsFor(isa);
    EXPECT_NE(k.theorem1_filter_scan, nullptr);
    EXPECT_NE(k.theorem2_filter_scan, nullptr);
    EXPECT_NE(k.ecdf_sweep_counts, nullptr);
    EXPECT_NE(k.all_finite, nullptr);
  }
}

TEST(SimdParity, TheoremScansOnFuzzedInstances) {
  Rng rng(20260808);
  for (Isa isa : VectorIsas()) {
    const Kernels& table = KernelsFor(isa);
    for (Shape shape :
         {Shape::kRandom, Shape::kTieHeavy, Shape::kMonotone}) {
      for (size_t q : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 33u, 100u, 257u}) {
        for (int rep = 0; rep < 8; ++rep) {
          const BoundsArrays b = MakeBounds(q, shape, &rng);
          const double h = std::floor(rng.Uniform(0.0, b.m));
          const double scale = (b.m - h) / b.n;
          const double omega = rng.Uniform(0.0, 4.0);
          CheckTheoremScans(table, b, scale, omega, h,
                            std::string(IsaName(isa)) + " q=" +
                                std::to_string(q));
        }
      }
    }
  }
}

TEST(SimdParity, TheoremScansOnAdversarialValues) {
  // Denormals, ±0.0, and exact boundary hits (omega = 0, b - a == 1).
  BoundsArrays b;
  b.ct_d = {0.0, kDenormal, -0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0};
  b.cr_d = {0.0, 0.0, kDenormal, -0.0, 0.0, 2.0, 2.0, 4.0, 6.0};
  b.n = 6.0;
  b.m = 3.0;
  b.rigid_d.resize(b.ct_d.size());
  for (size_t i = 0; i < b.ct_d.size(); ++i) {
    b.rigid_d[i] = b.ct_d[i] - b.m;
  }
  for (Isa isa : VectorIsas()) {
    for (double omega : {0.0, 0.5, 1.0}) {
      for (double h : {0.0, 1.0, 2.0}) {
        CheckTheoremScans(KernelsFor(isa), b, (b.m - h) / b.n, omega, h,
                          IsaName(isa));
      }
    }
  }
}

TEST(SimdParity, EcdfSweepLeavesBestIndexUntouchedOnZeroMax) {
  // cum_r equal to the running count of T with n == m makes every d
  // exactly 0.0: the contract says best_index must not be written (callers
  // keep their front-value sentinel). A -0.0 reference count must also
  // yield d == 0.0, not a spurious update.
  const std::vector<double> cum_r_d = {-0.0, 0.0, 1.0, 2.0, 2.0, 3.0};
  const std::vector<int64_t> count_t = {0, 0, 1, 2, 0, 1};
  const std::vector<int64_t> removed = {0, 0, 0, 1, 0, 0};
  for (Isa isa : VectorIsas()) {
    size_t bi = 123456;
    const double best = KernelsFor(isa).ecdf_sweep_counts(
        cum_r_d.data(), count_t.data(), removed.data(), cum_r_d.size(), 3.0,
        3.0, &bi);
    EXPECT_EQ(best, 0.0) << IsaName(isa);
    EXPECT_FALSE(std::signbit(best)) << IsaName(isa);
    EXPECT_EQ(bi, 123456u) << IsaName(isa);
  }
}

TEST(SimdParity, EcdfSweepCountsOnFuzzedInstances) {
  Rng rng(424242);
  const Kernels& scalar = KernelsFor(Isa::kScalar);
  for (Isa isa : VectorIsas()) {
    const Kernels& table = KernelsFor(isa);
    for (size_t q : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 31u, 64u, 200u}) {
      for (int rep = 0; rep < 16; ++rep) {
        std::vector<double> cum_r_d(q);
        std::vector<int64_t> count_t(q);
        std::vector<int64_t> removed(q);
        double r = 0.0;
        int64_t m = 0;
        int64_t rem = 0;
        for (size_t i = 0; i < q; ++i) {
          r += static_cast<double>(rng.Integer(0, 3));
          cum_r_d[i] = r;
          count_t[i] = rng.Integer(0, 4);
          removed[i] = rng.Integer(0, count_t[i]);
          m += count_t[i];
          rem += removed[i];
        }
        const double n = r > 0.0 ? r : 1.0;
        const double m_rem = static_cast<double>(m - rem > 0 ? m - rem : 1);
        size_t bi_s = SIZE_MAX;
        size_t bi_v = SIZE_MAX;
        const double best_s = scalar.ecdf_sweep_counts(
            cum_r_d.data(), count_t.data(), removed.data(), q, n, m_rem,
            &bi_s);
        const double best_v = table.ecdf_sweep_counts(
            cum_r_d.data(), count_t.data(), removed.data(), q, n, m_rem,
            &bi_v);
        ASSERT_EQ(Bits(best_s), Bits(best_v)) << IsaName(isa) << " q=" << q;
        ASSERT_EQ(bi_s, bi_v) << IsaName(isa) << " q=" << q;
      }
    }
  }
}

TEST(SimdParity, AllFiniteAgreesAtEveryPoisonPosition) {
  const double poisons[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                            -kInf};
  for (Isa isa : VectorIsas()) {
    const Kernels& table = KernelsFor(isa);
    for (size_t len : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 9u, 17u}) {
      std::vector<double> v(len, 1.0);
      if (len > 0) {
        v[0] = -0.0;
        v[len / 2] = kDenormal;
      }
      EXPECT_TRUE(table.all_finite(v.data(), v.size()))
          << IsaName(isa) << " len=" << len;
      for (size_t pos = 0; pos < len; ++pos) {
        for (double poison : poisons) {
          std::vector<double> bad = v;
          bad[pos] = poison;
          EXPECT_FALSE(table.all_finite(bad.data(), bad.size()))
              << IsaName(isa) << " len=" << len << " pos=" << pos;
        }
      }
    }
  }
}

TEST(SimdAllocation, KernelsAllocateNothing) {
  // The kernels are leaf functions over caller-owned arrays; pin that with
  // the counting operator new (the zero-allocation explain pipeline sits
  // on top of them).
  Rng rng(5);
  const BoundsArrays b = MakeBounds(64, Shape::kRandom, &rng);
  std::vector<int64_t> count_t(64, 2);
  std::vector<int64_t> removed(64, 1);
  const std::vector<Isa> isas = VectorIsas();
  size_t sink_index = 0;
  double sink = 0.0;
  bool finite = true;
  AllocationProbe probe;
  for (Isa isa : isas) {
    const Kernels& table = KernelsFor(isa);
    double run = -kInf;
    sink_index += table.theorem1_filter_scan(b.ct_d.data(), b.cr_d.data(),
                                             b.rigid_d.data(), 1,
                                             b.ct_d.size(), 0.5, 1.0, 3.0,
                                             &run);
    run = -kInf;
    sink_index += table.theorem2_filter_scan(b.ct_d.data(), b.cr_d.data(), 1,
                                             b.ct_d.size(), 0.5, 1.0, 3.0,
                                             &run);
    sink += table.ecdf_sweep_counts(b.ct_d.data(), count_t.data(),
                                    removed.data(), count_t.size(), b.n,
                                    64.0, &sink_index);
    finite = finite && table.all_finite(b.ct_d.data(), b.ct_d.size());
  }
  const size_t delta = probe.Delta();
  EXPECT_EQ(delta, 0u);
  EXPECT_TRUE(finite);
  EXPECT_GE(sink + static_cast<double>(sink_index), 0.0);  // keep it live
}

}  // namespace
}  // namespace simd
}  // namespace moche
