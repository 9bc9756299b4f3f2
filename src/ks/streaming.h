// Incremental Kolmogorov-Smirnov testing over a sliding window, after
// dos Reis, Flach, Matwin & Batista, "Fast unsupervised online drift
// detection using incremental Kolmogorov-Smirnov test" (KDD 2016) — the
// paper's reference [17] and the standard substrate for KS-based drift
// monitors.
//
// A fixed reference sample R (size n) is compared against a sliding test
// window W of fixed capacity m through the integer score
//     s(x) = m * C_R(x) - n * C_W(x)
// (C counts the values <= x), so that D(R, W) = max |s(x)| / (n * m) over
// x in R u W. dos Reis et al. keep R and W together in one randomized
// tree. R never changes, though, so here the tree is static: a flat
// segment tree over the distinct values k_0 < ... < k_{d-1} of R.
//
// Leaf 0 counts the window values below k_0. Leaf i+1 counts the window
// values equal to k_i (eq) and those strictly between k_i and k_{i+1}
// (gap), and holds base = m * C_R(k_i) (leaf 0: base = eq = 0). With c
// the window count before a leaf, every point of R u W in it scores:
//   - x = k_i, in R or in W:       base - n * (c + eq);
//   - x in the gap after k_i:      between base - n * (c + eq + gap) and
//                                  base - n * (c + eq).
// Both ends of that interval are scores of actual points (or 0 at leaf 0,
// which cannot raise a maximum of absolute values), and |.| of a value
// inside an interval never exceeds |.| at its ends. So max |s| is the
// largest |.| over the leaf ends, i.e. max(|max end|, |min end|). A node
// aggregates its leaves relative to the window count before it:
//   leaf:     (base - n*eq, base - n*(eq + gap), eq + gap)
//   internal: (max(L.max, R.max - n*L.sum), min(L.min, R.min - n*L.sum),
//              L.sum + R.sum)
// The root's (max, min) gives the same integer max |s| as the KDD 2016
// tree, divided the same way, so the statistic is bit-identical to it.
//
// Cost: Push is one binary search over the d keys for the evicted value
// and one for the new one, then a root-ward pass from the two touched
// leaves — O(log d), independent of the window size m. CurrentOutcome is
// O(1). Create sorts R once: O(n log n).
//
// Memory: the keys, the d + 1 leaves and the internal nodes of a
// power-of-two tree over them (leaf aggregates are derived from
// (base, eq, gap), never stored): at most about 80 bytes per distinct
// reference value, plus the arrival ring of at most m values.
//
// Bounds: scores lie in [-n*m, n*m]. Create rejects n * m > 2^53, which
// keeps every score and every shifted sentinel of the tree's padding
// inside int64, and the final conversion to double exact.
//
// Allocation: the arrival ring grows by push_back while the window fills,
// so no allocation is sized from window_size (which may come from an
// untrusted snapshot). Once the window is full a Push performs no heap
// allocation at all (the DriftMonitor zero-allocation contract,
// docs/ARCHITECTURE.md).
//
// Ownership & thread-safety: a StreamingKs owns its tree and window ring
// outright (move-only). Push mutates that state, so each detector belongs
// to one stream driver at a time — shared concurrent use requires external
// synchronization. DriftMonitor gives every stream its own detector
// instead of locking one.

#ifndef MOCHE_KS_STREAMING_H_
#define MOCHE_KS_STREAMING_H_

#include <cstdint>
#include <vector>

#include "ks/ks_test.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace moche {

class StreamingKs {
 public:
  /// `reference` is fixed for the lifetime of the detector; `window_size`
  /// is the test-window capacity m. Fails on invalid samples/sizes,
  /// including reference.size() * window_size > 2^53.
  static Result<StreamingKs> Create(const std::vector<double>& reference,
                                    size_t window_size, double alpha);

  StreamingKs(StreamingKs&&) noexcept;
  StreamingKs& operator=(StreamingKs&&) noexcept;
  ~StreamingKs();

  /// Feeds one observation. Once the window is full, the oldest
  /// observation is evicted first. Fails on non-finite values.
  Status Push(double value);

  /// True when the window holds `window_size` observations.
  bool WindowFull() const { return window_.size() == window_size_; }

  /// Current KS outcome of R vs the window contents. Requires a full
  /// window (the fixed-size scores are only calibrated for m elements).
  Result<KsOutcome> CurrentOutcome() const;

  /// Convenience: true iff the window is full and the test rejects.
  bool Drifted() const;

  /// The window contents in arrival order (oldest first) — hand this to
  /// Moche::Explain when a drift fires.
  std::vector<double> WindowContents() const;

  /// As WindowContents, rebuilding `out` in place (capacity reused): the
  /// drift monitor's per-worker snapshot buffer allocates once and is then
  /// recycled for every explanation.
  void WindowContentsInto(std::vector<double>* out) const;

  size_t reference_size() const { return n_; }
  size_t window_size() const { return window_size_; }
  double alpha() const { return alpha_; }

  /// Appends the detector's restorable state in the canonical little-endian
  /// encoding (util/binary_io.h): reference size, window capacity, alpha
  /// (bit-exact), and the surviving window observations in arrival order —
  /// O(w) values. The tree is deliberately NOT serialized: its counts are
  /// a pure function of the reference multiset and the window contents, so
  /// DeserializeState rebuilds it by replaying the ring, O(w log d)
  /// (src/persist's snapshot hook; docs/SNAPSHOT.md).
  void SerializeStateTo(std::string* out) const;

  /// Inverse of SerializeStateTo over an untrusted buffer. `reference`
  /// must be the same multiset the serialized detector was created over
  /// (any order — Create sorts it); size and alpha are cross-checked
  /// against the snapshot, the window capacity passes Create's bounds, and
  /// every window value is re-validated, so a corrupted snapshot fails
  /// with a Status instead of poisoning the score arithmetic. The restored
  /// detector's CurrentOutcome is bit-identical to the serialized one's.
  static Result<StreamingKs> DeserializeState(
      const std::vector<double>& reference, bin::Reader* reader);

 private:
  // Per-leaf counts; see the class comment.
  struct Leaf {
    int64_t base = 0;
    int64_t eq = 0;
    int64_t gap = 0;
  };
  // Score aggregate of a run of leaves, relative to the window count
  // before the run.
  struct Span {
    int64_t max = 0;
    int64_t min = 0;
    int64_t sum = 0;
  };

  StreamingKs(size_t n, size_t window_size, double alpha);

  // Adds `delta` to the count of `value`'s leaf slot; returns the leaf.
  size_t Count(double value, int64_t delta);
  Span LeafSpan(size_t leaf) const;
  Span Combine(const Span& left, const Span& right) const;
  // Recomputes internal node `p` from its two children.
  void Pull(size_t p);
  // Recomputes the internal nodes above leaves `a` and `b`.
  void Refresh(size_t a, size_t b);

  size_t n_ = 0;
  size_t window_size_ = 0;
  double alpha_ = 0.05;
  std::vector<double> keys_;  // distinct reference values, ascending
  std::vector<Leaf> leaves_;  // d + 1 leaves
  // Internal nodes in heap order (node 1 is the root, node i has children
  // 2i and 2i + 1; index 0 is unused). Its size P is a power of two and
  // leaf j sits at heap index P + j; leaves past d are empty padding.
  std::vector<Span> nodes_;
  // Ring over the arrival order: window_[(head + i) % size] is the i-th
  // oldest surviving observation. It grows by push_back until full.
  std::vector<double> window_;
  size_t window_head_ = 0;
};

}  // namespace moche

#endif  // MOCHE_KS_STREAMING_H_
