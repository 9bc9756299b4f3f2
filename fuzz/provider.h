// Deterministic byte-to-structure provider for the fuzz targets.
//
// Every fuzz target derives its whole input — sample arrays, alphas,
// window widths, batch schedules — from the raw byte string libFuzzer (or
// the corpus-replay driver) hands it, through this reader. The derivation
// is a pure function of the bytes: the same input file always reproduces
// the same structures, which is what makes a minimized crash input a
// committable regression test (fuzz/corpus/<target>/).
//
// The double generators deliberately lace the stream with the values the
// i.i.d.-minded numeric code never expects: ±0.0, denormals, huge-but-
// finite magnitudes, tie-heavy small integers, and (from the Raw variants
// only) NaN and ±Inf. FiniteValue() never returns a non-finite double, so
// targets can separate "hostile but valid" inputs from "must be rejected
// up front" inputs.
//
// Dependency-free by design: fuzz targets must build in the default matrix
// (replay mode) with nothing beyond the standard library, and under
// -fsanitize=fuzzer without dragging module code into the TU that defines
// the entry point.
//
// Ownership & thread-safety: a Provider borrows the input buffer (the
// caller keeps it alive for the Provider's lifetime) and is mutable
// single-consumer state — one target invocation owns one Provider.

#ifndef MOCHE_FUZZ_PROVIDER_H_
#define MOCHE_FUZZ_PROVIDER_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace moche {
namespace fuzz {

class Provider {
 public:
  Provider(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool empty() const { return pos_ >= size_; }

  /// Next byte, or 0 once the input is exhausted (all generators below are
  /// total: they keep producing deterministic defaults on empty input, so
  /// a truncated corpus entry still replays without branching on size).
  uint8_t Byte() { return pos_ < size_ ? data_[pos_++] : 0; }

  bool Bool() { return (Byte() & 1) != 0; }

  /// Little-endian accumulation of up to 8 bytes.
  uint64_t U64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(Byte()) << (8 * i);
    }
    return v;
  }

  uint32_t U32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(Byte()) << (8 * i);
    }
    return v;
  }

  /// Uniform-ish draw in [lo, hi] (inclusive). Returns lo when hi <= lo.
  size_t SizeInRange(size_t lo, size_t hi) {
    if (hi <= lo) return lo;
    return lo + static_cast<size_t>(U32() % (hi - lo + 1));
  }

  int64_t IntInRange(int64_t lo, int64_t hi) {
    if (hi <= lo) return lo;
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(U64() % span);
  }

  /// A double in [0, 1].
  double Probability() {
    return static_cast<double>(U32()) /
           static_cast<double>(std::numeric_limits<uint32_t>::max());
  }

  /// The raw bit pattern of 8 bytes as a double — may be NaN or ±Inf.
  /// Targets use this for must-be-rejected validation paths and for the
  /// all_finite kernel, never for data that reaches std::sort.
  double RawDouble() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// A finite double laced with the adversarial corners: ±0.0, denormals,
  /// huge magnitudes, tie-heavy small integers, and ordinary reals. Never
  /// NaN/Inf.
  double FiniteValue() {
    switch (Byte() % 8) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      case 2:  // denormal band
        return static_cast<double>(IntInRange(-4, 4)) *
               std::numeric_limits<double>::denorm_min();
      case 3:  // huge but finite
        return static_cast<double>(IntInRange(-8, 8)) * 1e300;
      case 4:  // tiny normal
        return static_cast<double>(IntInRange(-8, 8)) *
               std::numeric_limits<double>::min();
      case 5:
      case 6:  // tie-heavy small integers (the KS grid's favorite food)
        return static_cast<double>(IntInRange(-6, 12));
      default: {  // ordinary real in [-1e3, 1e3]
        const double v = (Probability() - 0.5) * 2000.0;
        return std::isfinite(v) ? v : 0.0;
      }
    }
  }

  /// `count` finite values appended via FiniteValue into a rebuilt vector.
  void FiniteArray(size_t count, std::vector<double>* out) {
    out->clear();
    out->reserve(count);
    for (size_t i = 0; i < count; ++i) out->push_back(FiniteValue());
  }

  /// As FiniteArray but from a small shared alphabet, so duplicates occur
  /// across the reference and test samples (window values landing on
  /// reference values, tied ECDF grid points).
  void TiedArray(size_t count, int alphabet, std::vector<double>* out) {
    if (alphabet < 1) alphabet = 1;
    out->clear();
    out->reserve(count);
    for (size_t i = 0; i < count; ++i) {
      out->push_back(
          static_cast<double>(IntInRange(0, static_cast<int64_t>(alphabet))));
    }
  }

  /// A significance level in the valid domain (0, 2), laced with the
  /// boundary-adjacent values that stress c_alpha and the NotFound branch
  /// (alpha > 2/e^2 ≈ 0.27 is where explanations can stop existing).
  double Alpha() {
    switch (Byte() % 6) {
      case 0:
        return 0.05;
      case 1:
        return 0.01;
      case 2:
        return 1e-9;
      case 3:
        return 1.9999;
      case 4:
        return 0.5;
      default: {
        const double a = Probability() * 1.998 + 1e-3;
        return (a > 0.0 && a < 2.0) ? a : 0.05;
      }
    }
  }

  /// Up to `max_len` bytes as a std::string (for text parsers).
  std::string String(size_t max_len) {
    const size_t len = SizeInRange(0, max_len < remaining() ? max_len
                                                            : remaining());
    std::string out;
    out.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      out.push_back(static_cast<char>(Byte()));
    }
    return out;
  }

  /// The whole remaining buffer as a std::string (text-parser targets feed
  /// the raw input through unchanged so libFuzzer's dictionary mutations
  /// stay byte-for-byte meaningful).
  std::string RemainingString() {
    if (pos_ >= size_) return std::string();
    std::string out(reinterpret_cast<const char*>(data_ + pos_),
                    size_ - pos_);
    pos_ = size_;
    return out;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace fuzz
}  // namespace moche

#endif  // MOCHE_FUZZ_PROVIDER_H_
