// Interning cache for Moche reference representations (exact + sketched).
//
// A fleet of drift detectors typically shares a handful of reference
// samples (one per metric, per model version, ...). Moche::Prepare
// validates and sorts the reference — O(n log n) — so a monitor that owns
// thousands of streams over one reference should pay that cost once. The
// cache keys entries by a content key of the raw observation sequence plus
// alpha and hands out shared_ptrs to one immutable PreparedReference per
// distinct (reference, alpha). The same entry can additionally intern the
// reference's KLL summary (sketch::SketchedReference) for the monitor's
// sketched mode — built lazily by GetOrSketch, one summary per entry.
//
// Every entry point — live interning of either form, both forms at once,
// and restores from a snapshot — runs one find-or-insert routine: one
// content key, one exact key comparison, then each requested form is
// served from the entry or built and attached. Forms are built before the
// table is touched, so a call that fails interns nothing.
//
// Keying is by the byte-identical value sequence: two permutations of the
// same sample intern separately (keying must not sort — that is the cost
// being amortized). Two hashes of that sequence exist, with different
// jobs:
//   - internal::ReferenceContentKey keys the in-memory table. It hashes
//     the values in independent lanes, so it runs at memory speed, and it
//     is never persisted.
//   - ReferenceFingerprint is the pinned wire hash (snapshot shard
//     assignment). Its byte-serial FNV-1a chain costs ~10x the content key,
//     so it is computed once, when an entry is inserted, and stored in the
//     entry (FindOriginal hands it to the checkpoint writer).
// A hit therefore costs one content key and one comparison against the
// stored sequence: a bitwise compare, falling back to operator== on a
// mismatch (-0.0 twins, or a content-key collision). A key collision is
// resolved by that comparison, never by trusting the hash. On a 2^20-point
// reference (Release, 4-vCPU AVX2 Xeon) a sketched monitor's AddStream
// hit measures ~1.5-1.8 ms, while ReferenceFingerprint alone takes ~12 ms.
//
// Capacity: by default the intern table grows without bound (monitors hold
// a few distinct references for their whole lifetime). Multi-tenant churn
// is different — references come and go with tenants — so Options::
// capacity bounds the entry count with LRU eviction of *unpinned* entries
// only: an entry whose prepared or sketched reference is still shared
// outside the cache is live state and is never evicted (the table may
// exceed capacity while everything is pinned). stats() reports evictions
// and the resident heap bytes.
//
// Ownership & thread-safety: the cache owns its entries and shares the
// references out via shared_ptr-to-const; all internal state is guarded by
// one Mutex, so every entry point is safe from any thread (see the class
// comment). Forms are built under that mutex: concurrent first sights of
// large references serialize, and in exchange no two callers ever build
// the same form twice.

#ifndef MOCHE_STREAM_PREPARED_CACHE_H_
#define MOCHE_STREAM_PREPARED_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/moche.h"
#include "sketch/sketched_reference.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace moche {
namespace stream {

/// 64-bit fingerprint of (values, alpha): FNV-1a over an explicit
/// canonical byte string — the element count as a little-endian u64, then
/// alpha, then every value as the little-endian bytes of its IEEE-754 bit
/// pattern (util/binary_io.h), each with -0.0 canonicalized to +0.0 first
/// so the fingerprint respects the operator== equality the cache's
/// exact-match guard uses (-0.0 == +0.0). The byte order is pinned, never
/// host memory order: snapshot shard assignment (src/persist) keys on this
/// value, so an x86-64 and an aarch64 build must agree bit-for-bit (a
/// golden-sequence regression test locks the hash down). It is the wire
/// hash, not the cache's table key: the cache computes it once per
/// inserted entry.
uint64_t ReferenceFingerprint(const std::vector<double>& values, double alpha);

namespace internal {

/// Lanes of ReferenceContentKey: value i feeds lane i % kContentKeyLanes.
inline constexpr size_t kContentKeyLanes = 8;
/// Odd lane multiplier, so each lane step is a bijection of its input.
inline constexpr uint64_t kContentKeyMultiplier = 0x9E3779B97F4A7C15ull;

/// PreparedReferenceCache's in-memory table key for (values, alpha). Every
/// lane starts at 0 and steps h <- (h ^ b) * kContentKeyMultiplier over
/// the bit patterns b of its values, each with -0.0 canonicalized to +0.0
/// (so ±0.0 twins share a bucket, as ReferenceFingerprint's do); the lanes
/// are then folded with the count and alpha through a bijective mixer.
/// The lanes are independent multiply chains, so the key costs about one
/// pass over memory. Never persisted, and free to change between builds;
/// the lane layout is public only so tests can build colliding keys.
uint64_t ReferenceContentKey(const std::vector<double>& values, double alpha);

}  // namespace internal

/// Thread-safe intern table of reference representations.
///
/// GetOrPrepare/GetOrSketch may be called concurrently; the references
/// they return are immutable and safe to share across threads (see
/// Moche::ExplainPreparedInto / TriageSketched).
class PreparedReferenceCache {
 public:
  struct Options {
    /// Maximum interned entries; 0 = unbounded (the historical behavior).
    /// When an insert pushes the table past the bound, least-recently-used
    /// entries that are unpinned (no shared_ptr alive outside the cache)
    /// are evicted until the bound holds or only pinned entries remain.
    size_t capacity = 0;
  };

  struct Stats {
    size_t entries = 0;
    size_t hits = 0;
    size_t misses = 0;
    /// Entries dropped by the LRU bound so far.
    size_t evictions = 0;
    /// Heap bytes retained by the interned entries (key sequences, sorted
    /// samples, sketch summaries).
    size_t resident_bytes = 0;
  };

  PreparedReferenceCache() = default;
  explicit PreparedReferenceCache(Options options) : options_(options) {}

  /// Returns the interned PreparedReference for (reference, alpha),
  /// preparing (validate + sort) only on the first sight of the sequence.
  /// When `sketched` is non-null the same lookup also interns the
  /// reference's KLL summary at `kll`'s capacity into *sketched, exactly
  /// as GetOrSketch would: a caller that needs both forms (a sketched
  /// monitor stream) pays one content key and one key comparison.
  /// InvalidArgument on an empty/non-finite sample, an out-of-domain alpha
  /// or a sketch capacity mismatch; a failed call interns nothing.
  Result<std::shared_ptr<const PreparedReference>> GetOrPrepare(
      const Moche& engine, const std::vector<double>& reference, double alpha,
      std::shared_ptr<const sketch::SketchedReference>* sketched = nullptr,
      const sketch::KllOptions& kll = {});

  /// Returns the interned KLL summary for (reference, alpha), building it
  /// (validate + sketch + flatten) only on the first sight. The summary
  /// shares the entry of GetOrPrepare's exact form, so a monitor holding
  /// both pays one key sequence. One summary is kept per entry: asking
  /// with a different sketch capacity than the interned one is an
  /// InvalidArgument (a monitor has one sketch_k; mixed-k fleets should
  /// use separate caches).
  Result<std::shared_ptr<const sketch::SketchedReference>> GetOrSketch(
      const std::vector<double>& reference, double alpha,
      const sketch::KllOptions& options);

  /// Interns an entry rebuilt from a snapshot (src/persist): `prepared`
  /// was deserialized (already validated and sorted), so no engine and no
  /// re-sort are involved. If (original, alpha) is already interned the
  /// existing shared entry is returned and `prepared` is dropped — streams
  /// restored from different shards still converge on one PreparedReference
  /// per distinct reference, exactly as live interning would. When
  /// `sketched` is non-null, *sketched holds the deserialized KLL summary
  /// of the same key; it is interned the same way and *sketched is
  /// replaced by the interned summary. Restores count toward neither hits
  /// nor misses. InvalidArgument when a restored form is inconsistent with
  /// (original, alpha) — wrong alpha, a sample size or count that does not
  /// match `original` (a cross-section splice in an otherwise CRC-clean
  /// snapshot), a non-finite value in `original`, or a sketch capacity
  /// disagreeing with the interned one.
  Result<std::shared_ptr<const PreparedReference>> InternRestored(
      const std::vector<double>& original, double alpha,
      PreparedReference prepared,
      std::shared_ptr<const sketch::SketchedReference>* sketched = nullptr);

  /// Reverse lookup for checkpointing: finds the interned entry whose
  /// shared PreparedReference is exactly `prepared` (pointer identity) and
  /// copies out the original unsorted key sequence, alpha and the stored
  /// ReferenceFingerprint(original, alpha). Returns false when `prepared`
  /// was not interned here. O(entries) plus the copy — a checkpoint calls
  /// it once per distinct reference, off the hot path.
  bool FindOriginal(const PreparedReference* prepared,
                    std::vector<double>* original, double* alpha,
                    uint64_t* fingerprint) const;

  Stats stats() const;

 private:
  struct Entry {
    std::vector<double> original;  // the unsorted key sequence
    double alpha = 0.0;
    uint64_t fingerprint = 0;  // ReferenceFingerprint(original, alpha)
    std::shared_ptr<const PreparedReference> prepared;          // may be null
    std::shared_ptr<const sketch::SketchedReference> sketched;  // may be null
    uint64_t last_used = 0;  // LRU stamp (monotone use counter)
  };

  /// Builds one form of an entry; called only for a form the entry lacks.
  template <typename T>
  using Maker = std::function<Result<std::shared_ptr<const T>>()>;

  /// The one find-or-insert path behind every public entry point. A form
  /// is requested by a non-null out-pointer. Under the lock, one
  /// content-key lookup and one key comparison find (reference, alpha)'s
  /// entry; each requested form the entry holds is served from it (a hit),
  /// each missing one comes from its maker (a miss). The makers run before
  /// the table is touched, so a failed build interns nothing and counts
  /// nothing. `sketch_capacity` is the capacity a requested summary must
  /// have; `count_use` false (restores) keeps hits and misses unchanged.
  Status Intern(const std::vector<double>& reference, double alpha,
                bool count_use, size_t sketch_capacity,
                const Maker<PreparedReference>& make_prepared,
                const Maker<sketch::SketchedReference>& make_sketched,
                std::shared_ptr<const PreparedReference>* prepared,
                std::shared_ptr<const sketch::SketchedReference>* sketched);

  /// Finds the bucket entry matching (alpha, reference) exactly, stamping
  /// it as used. Null when absent.
  Entry* FindEntryLocked(uint64_t content_key,
                         const std::vector<double>& reference, double alpha)
      MOCHE_REQUIRES(mutex_);

  void EvictIfOverCapacityLocked() MOCHE_REQUIRES(mutex_);
  size_t CountEntriesLocked() const MOCHE_REQUIRES(mutex_);

  Options options_;
  mutable Mutex mutex_;
  // Keyed by ReferenceContentKey; each bucket holds the exact-compare
  // candidates.
  std::unordered_map<uint64_t, std::vector<Entry>> entries_
      MOCHE_GUARDED_BY(mutex_);
  size_t hits_ MOCHE_GUARDED_BY(mutex_) = 0;
  size_t misses_ MOCHE_GUARDED_BY(mutex_) = 0;
  size_t evictions_ MOCHE_GUARDED_BY(mutex_) = 0;
  uint64_t use_clock_ MOCHE_GUARDED_BY(mutex_) = 0;
};

}  // namespace stream
}  // namespace moche

#endif  // MOCHE_STREAM_PREPARED_CACHE_H_
