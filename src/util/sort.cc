#include "util/sort.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace moche {
namespace {

constexpr int kDigits = 8;
constexpr size_t kBuckets = 256;

size_t DigitOf(uint64_t key, int digit) {
  return (key >> (8 * digit)) & (kBuckets - 1);
}

// LSD radix sort of data[0, size) on SortKey, ping-ponging through
// scratch[0, size): one pass counts every digit's histogram, then each
// digit that is not constant across the input gets one stable scatter.
void RadixSort(double* data, size_t size, double* scratch) {
  size_t counts[kDigits][kBuckets] = {};
  for (size_t i = 0; i < size; ++i) {
    const uint64_t key = SortKey(data[i]);
    for (int d = 0; d < kDigits; ++d) ++counts[d][DigitOf(key, d)];
  }
  const uint64_t first_key = SortKey(data[0]);
  double* from = data;
  double* to = scratch;
  for (int d = 0; d < kDigits; ++d) {
    size_t* offsets = counts[d];
    // A digit every value shares leaves the order as it is.
    if (offsets[DigitOf(first_key, d)] == size) continue;
    size_t start = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const size_t count = offsets[b];
      offsets[b] = start;
      start += count;
    }
    for (size_t i = 0; i < size; ++i) {
      to[offsets[DigitOf(SortKey(from[i]), d)]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != data) std::copy(from, from + size, data);
}

}  // namespace

// moche-lint: allow(sort-doubles): the definition, not a call site
void SortFinite(std::vector<double>* values, std::vector<double>* scratch) {
  MOCHE_DCHECK(std::none_of(values->begin(), values->end(),
                            [](double v) { return std::isnan(v); }));
  const size_t size = values->size();
  if (scratch != nullptr && size >= kRadixSortMinSize) {
    if (scratch->size() < size) scratch->resize(size);
    RadixSort(values->data(), size, scratch->data());
    return;
  }
  // moche-lint: allow(sort-doubles): SortFinite's precondition: every caller screens NaN (ks::ValidateSample or simd all_finite), and the DCHECK above holds it in debug builds
  std::sort(values->begin(), values->end());
  SortZeroRun(values);
}

void SortZeroRun(std::vector<double>* sorted) {
  // Every element of the run is a zero, so putting the negative ones first
  // is the whole rewrite.
  const auto zeros = std::equal_range(sorted->begin(), sorted->end(), 0.0);
  std::partition(zeros.first, zeros.second,
                 [](double v) { return std::signbit(v); });
}

}  // namespace moche
