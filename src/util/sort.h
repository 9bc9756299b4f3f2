// SortFinite: the one ascending sort for finite doubles whose order reaches
// a KS outcome or a MOCHE report.
//
// Equal doubles are bit-identical except -0.0 and +0.0, so std::sort leaves
// a run of mixed-sign zeros in an order that depends on how the input
// arrived, and any sign read off that run (a KS `location`) with it.
// SortFinite orders by SortKey instead, a total order on the bits of every
// non-NaN double: ascending values, with -0.0 before +0.0. Its output is
// therefore a function of the input multiset alone.
//
// Two algorithms, one output. Given a scratch buffer and at least
// kRadixSortMinSize values, it runs an LSD radix sort on SortKey: one pass
// counts all eight 8-bit digit histograms, then one stable scatter per
// digit, skipping any digit that is constant across the input. Otherwise it
// runs std::sort and rewrites the zero run (SortZeroRun), O(log n + zeros)
// past the sort. From the threshold up the radix sort is 2-3x faster on
// normal data and 1.3-1.8x on data rounded to 0.1 (g++ -O2, 4-vCPU Xeon,
// 512 to 20 000 values).
//
// Ownership & thread-safety: free functions over caller-owned buffers; no
// shared state, so threads may sort distinct buffers concurrently. The
// scratch buffer only grows, so a warm call allocates nothing.

#ifndef MOCHE_UTIL_SORT_H_
#define MOCHE_UTIL_SORT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace moche {

/// The sample size from which SortFinite radix-sorts, when it is lent a
/// scratch buffer. Below it the two sorts are close, and the comparison
/// path needs no scratch.
inline constexpr size_t kRadixSortMinSize = 512;

/// The order-preserving key of a non-NaN double: every bit of a negative
/// value flipped, only the sign bit of a non-negative one. Unsigned order
/// on keys is value order, with -0.0 below +0.0; distinct keys are distinct
/// bits.
inline uint64_t SortKey(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint64_t negative = uint64_t{0} - (bits >> 63);
  return bits ^ (negative | (uint64_t{1} << 63));
}

/// Sorts `values` ascending by SortKey. Precondition: no NaN (infinities
/// sort correctly, but every caller screens them out anyway). With
/// `scratch` non-null and values->size() >= kRadixSortMinSize it
/// radix-sorts, growing *scratch to the input size; otherwise it sorts in
/// place and leaves *scratch alone. Either way the output is the same bits.
void SortFinite(std::vector<double>* values,
                std::vector<double>* scratch = nullptr);

/// Rewrites the run of zeros in a value-sorted, NaN-free vector into
/// SortFinite's order (every -0.0 before every +0.0). O(log n + zeros).
void SortZeroRun(std::vector<double>* sorted);

}  // namespace moche

#endif  // MOCHE_UTIL_SORT_H_
