// Differential oracle: every simd::Kernels entry, each available vector
// ISA against the scalar reference table, bit-exact via memcpy compare.
//
// The scalar table IS the spec (util/simd.h): a vector kernel may only
// exist if it produces the same doubles, indices, and booleans on every
// finite input. This target derives adversarial operand arrays (denormals,
// ±0.0, huge magnitudes, tie-heavy integers) plus arbitrary begin/end
// offsets and running-max seeds, and fails on the first lane divergence.
// all_finite additionally takes raw bit patterns (NaN/Inf lacing) since
// rejecting those is its whole job.

#include <cstdint>
#include <cstring>
#include <vector>

#include "fuzz_target.h"
#include "provider.h"
#include "util/simd.h"

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using moche::simd::Isa;
  using moche::simd::Kernels;

  moche::fuzz::Provider in(data, size);
  const Kernels& scalar = moche::simd::KernelsFor(Isa::kScalar);

  const size_t len = in.SizeInRange(1, 96);
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;
  in.FiniteArray(len, &a);
  in.FiniteArray(len, &b);
  in.FiniteArray(len, &c);

  const size_t begin = in.SizeInRange(0, len);
  const size_t end = in.SizeInRange(begin, len);
  const double scale = in.FiniteValue();
  const double omega = in.FiniteValue();
  const double hh_d = in.FiniteValue();
  const double seed_max = in.FiniteValue();

  // Cumulative-count style operands for the RemovalKs sweep.
  std::vector<int64_t> count_t(len);
  std::vector<int64_t> removed(len);
  std::vector<double> cum_r_d(len);
  {
    int64_t acc_r = 0;
    for (size_t i = 0; i < len; ++i) {
      count_t[i] = in.IntInRange(0, 20);
      removed[i] = in.IntInRange(0, count_t[i]);
      acc_r += in.IntInRange(0, 20);
      cum_r_d[i] = static_cast<double>(acc_r);
    }
  }
  const double n = static_cast<double>(in.SizeInRange(1, 1000));
  const double m = static_cast<double>(in.SizeInRange(1, 1000));

  // Raw (possibly NaN/Inf) buffer for all_finite, poisoned or clean.
  std::vector<double> raw(len);
  for (size_t i = 0; i < len; ++i) {
    raw[i] = in.Bool() ? in.RawDouble() : in.FiniteValue();
  }

  const Isa isas[] = {Isa::kAvx2, Isa::kNeon};
  for (Isa isa : isas) {
    if (!moche::simd::IsaAvailable(isa)) continue;
    const Kernels& vec = moche::simd::KernelsFor(isa);
    const char* name = moche::simd::IsaName(isa);

    {
      double max_s = seed_max;
      double max_v = seed_max;
      const size_t stop_s = scalar.theorem1_filter_scan(
          a.data(), b.data(), c.data(), begin, end, scale, omega, hh_d,
          &max_s);
      const size_t stop_v = vec.theorem1_filter_scan(
          a.data(), b.data(), c.data(), begin, end, scale, omega, hh_d,
          &max_v);
      MOCHE_FUZZ_CHECK(stop_s == stop_v,
                       "[%s] theorem1 stop %zu != scalar %zu", name, stop_v,
                       stop_s);
      MOCHE_FUZZ_CHECK(SameBits(max_s, max_v),
                       "[%s] theorem1 running max %.17g != scalar %.17g",
                       name, max_v, max_s);
    }
    {
      double max_s = seed_max;
      double max_v = seed_max;
      const size_t stop_s = scalar.theorem2_filter_scan(
          a.data(), b.data(), begin, end, scale, omega, hh_d, &max_s);
      const size_t stop_v = vec.theorem2_filter_scan(
          a.data(), b.data(), begin, end, scale, omega, hh_d, &max_v);
      MOCHE_FUZZ_CHECK(stop_s == stop_v,
                       "[%s] theorem2 stop %zu != scalar %zu", name, stop_v,
                       stop_s);
      MOCHE_FUZZ_CHECK(SameBits(max_s, max_v),
                       "[%s] theorem2 running max %.17g != scalar %.17g",
                       name, max_v, max_s);
    }
    {
      size_t best_s = SIZE_MAX;
      size_t best_v = SIZE_MAX;
      const double d_s = scalar.ecdf_sweep_counts(
          cum_r_d.data(), count_t.data(), removed.data(), len, n, m,
          &best_s);
      const double d_v = vec.ecdf_sweep_counts(
          cum_r_d.data(), count_t.data(), removed.data(), len, n, m,
          &best_v);
      MOCHE_FUZZ_CHECK(SameBits(d_s, d_v),
                       "[%s] ecdf_sweep_counts %.17g != scalar %.17g", name,
                       d_v, d_s);
      MOCHE_FUZZ_CHECK(best_s == best_v,
                       "[%s] ecdf_sweep_counts best index %zu != scalar %zu",
                       name, best_v, best_s);
    }
    {
      const bool f_s = scalar.all_finite(raw.data(), len);
      const bool f_v = vec.all_finite(raw.data(), len);
      MOCHE_FUZZ_CHECK(f_s == f_v, "[%s] all_finite %d != scalar %d", name,
                       f_v, f_s);
      // Sub-range sweep: offsets exercise the vector ramp-up/tail paths.
      const bool g_s = scalar.all_finite(raw.data() + begin, end - begin);
      const bool g_v = vec.all_finite(raw.data() + begin, end - begin);
      MOCHE_FUZZ_CHECK(g_s == g_v, "[%s] all_finite subrange %d != %d", name,
                       g_v, g_s);
    }
  }

  // The scalar table must agree with a hand-rolled finiteness loop — the
  // one kernel whose spec is simple enough to state twice.
  bool expect_finite = true;
  for (size_t i = 0; i < len; ++i) {
    const double v = raw[i];
    if (!(v - v == 0.0)) expect_finite = false;  // NaN/Inf both fail this
  }
  MOCHE_FUZZ_CHECK(scalar.all_finite(raw.data(), len) == expect_finite,
                   "scalar all_finite disagrees with the naive loop");
  return 0;
}
