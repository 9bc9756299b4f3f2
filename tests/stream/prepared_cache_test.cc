#include "stream/prepared_cache.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/binary_io.h"

namespace moche {
namespace stream {
namespace {

TEST(ReferenceFingerprintTest, SensitiveToValuesOrderAndAlpha) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{3.0, 2.0, 1.0};
  EXPECT_EQ(ReferenceFingerprint(a, 0.05), ReferenceFingerprint(a, 0.05));
  EXPECT_NE(ReferenceFingerprint(a, 0.05), ReferenceFingerprint(b, 0.05));
  EXPECT_NE(ReferenceFingerprint(a, 0.05), ReferenceFingerprint(a, 0.01));
  EXPECT_NE(ReferenceFingerprint(a, 0.05),
            ReferenceFingerprint({1.0, 2.0}, 0.05));
}

// The signed-zero regression: the fingerprint used raw double bits, so a
// reference containing -0.0 hashed differently from its +0.0 twin even
// though the exact-compare guard treats them as equal (-0.0 == +0.0).
// The equal-by-operator== sequences then interned as two entries — a
// silent cache split that doubled Prepare work. The fingerprint must
// canonicalize -0.0 before hashing; the bucket's exact compare then makes
// the second lookup a hit.
TEST(ReferenceFingerprintTest, CanonicalizesSignedZero) {
  const std::vector<double> plus{0.0, 1.0, 2.0};
  const std::vector<double> minus{-0.0, 1.0, 2.0};
  EXPECT_EQ(ReferenceFingerprint(plus, 0.05),
            ReferenceFingerprint(minus, 0.05));
  // alpha is hashed through the same canonicalization; values that are
  // actually different must still split.
  EXPECT_NE(ReferenceFingerprint(plus, 0.05),
            ReferenceFingerprint({0.0, 1.0, 2.5}, 0.05));
}

// Golden-sequence regression: the fingerprint is a cross-platform wire
// contract — snapshot shard assignment (src/persist/monitor_codec.cc) keys
// on `fingerprint % num_shards`, so the hash of a fixed sequence must
// never drift across builds, hosts, or byte orders. The constants pin the
// documented derivation: FNV-1a (offset 14695981039346656037, prime
// 1099511628211) over count:u64le, canonical alpha:f64le, values:f64le
// with -0.0 canonicalized to +0.0. If this test fails, the change broke
// every existing checkpoint's shard layout — that needs a snapshot format
// version bump, not a test update.
TEST(ReferenceFingerprintTest, GoldenSequencesPinTheWireHash) {
  const std::vector<double> golden{1.0, 2.5, -3.0, -0.0, 1e300, 0.125};
  EXPECT_EQ(ReferenceFingerprint(golden, 0.05), 0x14114b19bbb53b30ull);
  EXPECT_EQ(ReferenceFingerprint({}, 0.05), 0xe72227bb1035cd54ull);
  EXPECT_EQ(ReferenceFingerprint({42.0}, 1.9999), 0xf546d57958226be7ull);
}

TEST(ReferenceContentKeyTest, SensitiveToValuesOrderCountAndAlpha) {
  // 11 values: one full block of lanes plus a 3-value tail.
  const std::vector<double> a{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  std::vector<double> swapped = a;
  std::swap(swapped[0], swapped[8]);  // same lane, different order
  std::vector<double> tail = a;
  tail[10] = 11.5;
  std::vector<double> longer = a;
  longer.push_back(0.0);  // a zero leaves its lane at 0: only the count differs
  const uint64_t key = internal::ReferenceContentKey(a, 0.05);
  EXPECT_EQ(internal::ReferenceContentKey(a, 0.05), key);
  EXPECT_NE(internal::ReferenceContentKey(swapped, 0.05), key);
  EXPECT_NE(internal::ReferenceContentKey(tail, 0.05), key);
  EXPECT_NE(internal::ReferenceContentKey(longer, 0.05), key);
  EXPECT_NE(internal::ReferenceContentKey(a, 0.01), key);
}

TEST(ReferenceContentKeyTest, CanonicalizesSignedZeroInBodyAndTail) {
  std::vector<double> plus(11, 1.5);
  plus[2] = 0.0;   // in the first block of lanes
  plus[9] = 0.0;   // in the tail
  std::vector<double> minus = plus;
  minus[2] = -0.0;
  minus[9] = -0.0;
  EXPECT_EQ(internal::ReferenceContentKey(plus, 0.05),
            internal::ReferenceContentKey(minus, 0.05));
}

TEST(PreparedReferenceCacheTest, SignedZeroReferencesShareOneEntry) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> plus{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> minus{-0.0, 1.0, 2.0, 3.0};

  auto first = cache.GetOrPrepare(engine, plus, 0.05);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrPrepare(engine, minus, 0.05);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(PreparedReferenceCacheTest, SignedZeroTwinsShareOneSketchedEntry) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> plus{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> minus{-0.0, 1.0, 2.0, 3.0};
  sketch::KllOptions kll;
  kll.capacity = 32;

  auto first = cache.GetOrSketch(plus, 0.05, kll);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.GetOrSketch(minus, 0.05, kll);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->get(), second->get());
  // Both forms through one lookup on the twin: the summary is a hit.
  std::shared_ptr<const sketch::SketchedReference> sketched;
  ASSERT_TRUE(cache.GetOrPrepare(engine, minus, 0.05, &sketched, kll).ok());
  EXPECT_EQ(sketched.get(), first->get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 2u);  // the summary, then the exact form
  EXPECT_EQ(stats.hits, 2u);
}

// A content-key collision between two different finite references must
// not merge them: the exact comparison decides. Each lane starts at 0 and
// steps h <- (h ^ b) * K, so values 0 and kContentKeyLanes both feed lane
// 0, which ends at ((b0 * K) ^ b8) * K. Replacing b0 by c0 and b8 by
// c8 = (b0 * K) ^ (c0 * K) ^ b8 leaves lane 0, and so the key, unchanged.
TEST(PreparedReferenceCacheTest, ContentKeyCollisionsStayDistinctEntries) {
  constexpr uint64_t kMul = internal::kContentKeyMultiplier;
  constexpr size_t kLane0Second = internal::kContentKeyLanes;
  std::vector<double> a(2 * internal::kContentKeyLanes);
  for (size_t i = 0; i < a.size(); ++i) a[i] = 1.0 + static_cast<double>(i);
  std::vector<double> b;
  for (int candidate = 1; candidate <= 64 && b.empty(); ++candidate) {
    const double c0 = a[0] + 0.5 * candidate;
    const double c8 = bin::DoubleFromBits(
        (bin::DoubleBits(a[0]) * kMul) ^ (bin::DoubleBits(c0) * kMul) ^
        bin::DoubleBits(a[kLane0Second]));
    // A non-finite value is no valid reference; a zero would be
    // canonicalized before hashing.
    if (!std::isfinite(c8) || c8 == 0.0) continue;
    b = a;
    b[0] = c0;
    b[kLane0Second] = c8;
  }
  ASSERT_FALSE(b.empty()) << "no finite colliding candidate found";
  ASSERT_NE(a, b);
  ASSERT_EQ(internal::ReferenceContentKey(a, 0.05),
            internal::ReferenceContentKey(b, 0.05));
  ASSERT_NE(ReferenceFingerprint(a, 0.05), ReferenceFingerprint(b, 0.05));

  Moche engine;
  PreparedReferenceCache cache;
  auto pa = cache.GetOrPrepare(engine, a, 0.05);
  auto pb = cache.GetOrPrepare(engine, b, 0.05);
  ASSERT_TRUE(pa.ok()) << pa.status().ToString();
  ASSERT_TRUE(pb.ok()) << pb.status().ToString();
  EXPECT_NE(pa->get(), pb->get());
  std::vector<double> sorted_a = a;
  std::vector<double> sorted_b = b;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  EXPECT_EQ((*pa)->sorted_reference(), sorted_a);
  EXPECT_EQ((*pb)->sorted_reference(), sorted_b);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // Later lookups in the shared bucket still find their own entry.
  auto again_b = cache.GetOrPrepare(engine, b, 0.05);
  auto again_a = cache.GetOrPrepare(engine, a, 0.05);
  ASSERT_TRUE(again_a.ok());
  ASSERT_TRUE(again_b.ok());
  EXPECT_EQ(again_a->get(), pa->get());
  EXPECT_EQ(again_b->get(), pb->get());
  EXPECT_EQ(cache.stats().hits, 2u);
  std::vector<double> original;
  double alpha = 0.0;
  uint64_t fingerprint = 0;
  ASSERT_TRUE(cache.FindOriginal(pb->get(), &original, &alpha, &fingerprint));
  EXPECT_EQ(original, b);
  EXPECT_EQ(fingerprint, ReferenceFingerprint(b, 0.05));
}

TEST(PreparedReferenceCacheTest, InternsIdenticalReferences) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref{5.0, 1.0, 3.0, 2.0, 4.0};

  auto first = cache.GetOrPrepare(engine, ref, 0.05);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrPrepare(engine, ref, 0.05);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same interned object

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // The interned reference is prepared (sorted) once.
  EXPECT_EQ((*first)->sorted_reference(),
            (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(PreparedReferenceCacheTest, DistinctAlphaOrValuesGetDistinctEntries) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref{1.0, 2.0, 3.0};

  auto a = cache.GetOrPrepare(engine, ref, 0.05);
  auto b = cache.GetOrPrepare(engine, ref, 0.01);
  auto c = cache.GetOrPrepare(engine, {3.0, 2.0, 1.0}, 0.05);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_NE(a->get(), c->get());  // keyed by the raw sequence, not the set

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(PreparedReferenceCacheTest, PropagatesPrepareErrors) {
  Moche engine;
  PreparedReferenceCache cache;
  EXPECT_FALSE(cache.GetOrPrepare(engine, {}, 0.05).ok());
  EXPECT_FALSE(cache.GetOrPrepare(engine, {1.0, NAN}, 0.05).ok());
  EXPECT_FALSE(cache.GetOrPrepare(engine, {1.0, 2.0}, 0.0).ok());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PreparedReferenceCacheTest, InternRestoredConvergesOnOneEntry) {
  Moche engine;
  const std::vector<double> ref{5.0, 1.0, 3.0, 2.0, 4.0};
  auto prepared = engine.Prepare(ref, 0.05);
  ASSERT_TRUE(prepared.ok());

  // Fresh cache (a restore into an empty monitor): the restored entry is
  // interned as-is, without touching the hit/miss counters.
  PreparedReferenceCache cache;
  auto restored = cache.InternRestored(ref, 0.05, *prepared);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->sorted_reference(),
            (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);

  // A second shard restoring the same (original, alpha) converges on the
  // already-interned object.
  auto prepared2 = engine.Prepare(ref, 0.05);
  ASSERT_TRUE(prepared2.ok());
  auto again = cache.InternRestored(ref, 0.05, *prepared2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), restored->get());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PreparedReferenceCacheTest, InternRestoredRejectsInconsistentSplices) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref{1.0, 2.0, 3.0};
  auto prepared = engine.Prepare(ref, 0.05);
  ASSERT_TRUE(prepared.ok());

  // A CRC-clean snapshot could still pair a prepared sample with the wrong
  // original (a cross-section splice); the consistency checks catch it.
  auto wrong_alpha = cache.InternRestored(ref, 0.01, *prepared);
  EXPECT_FALSE(wrong_alpha.ok());
  auto wrong_size = cache.InternRestored({1.0, 2.0}, 0.05, *prepared);
  EXPECT_FALSE(wrong_size.ok());
  // The key sequence is screened like the sorted sample: the table's
  // bitwise compare must never meet a NaN.
  auto non_finite = cache.InternRestored({1.0, NAN, 3.0}, 0.05, *prepared);
  EXPECT_EQ(non_finite.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PreparedReferenceCacheTest, FindOriginalRecoversTheUnsortedKey) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref_a{5.0, 1.0, 3.0};  // deliberately unsorted
  const std::vector<double> ref_b{9.0, 8.0, 7.0};
  auto a = cache.GetOrPrepare(engine, ref_a, 0.05);
  auto b = cache.GetOrPrepare(engine, ref_b, 0.01);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  std::vector<double> original;
  double alpha = 0.0;
  uint64_t fingerprint = 0;
  ASSERT_TRUE(cache.FindOriginal(a->get(), &original, &alpha, &fingerprint));
  EXPECT_EQ(original, ref_a);  // the raw sequence, not the sorted one
  EXPECT_EQ(alpha, 0.05);
  EXPECT_EQ(fingerprint, ReferenceFingerprint(ref_a, 0.05));
  ASSERT_TRUE(cache.FindOriginal(b->get(), &original, &alpha, &fingerprint));
  EXPECT_EQ(original, ref_b);
  EXPECT_EQ(alpha, 0.01);
  EXPECT_EQ(fingerprint, ReferenceFingerprint(ref_b, 0.01));

  // Pointer identity, not value equality: an equal reference prepared
  // outside the cache is not interned here.
  auto foreign = engine.Prepare(ref_a, 0.05);
  ASSERT_TRUE(foreign.ok());
  EXPECT_FALSE(
      cache.FindOriginal(&*foreign, &original, &alpha, &fingerprint));
}

// The wire fingerprint is computed once, when an entry is inserted; every
// insert path must store exactly ReferenceFingerprint(original, alpha).
TEST(PreparedReferenceCacheTest, StoredFingerprintIsTheWireHashForEveryEntry) {
  Moche engine;
  PreparedReferenceCache cache;
  sketch::KllOptions kll;
  kll.capacity = 32;
  const std::vector<double> live{5.0, -0.0, 3.0, 2.0, 4.0};
  const std::vector<double> sketch_first{9.0, 8.0, 7.0, 6.0};
  const std::vector<double> restored{0.5, 0.25, 0.75};

  std::vector<const PreparedReference*> interned;
  auto p_live = cache.GetOrPrepare(engine, live, 0.05);
  ASSERT_TRUE(p_live.ok());
  interned.push_back(p_live->get());
  // An entry inserted by the summary alone, its exact form attached later.
  ASSERT_TRUE(cache.GetOrSketch(sketch_first, 0.01, kll).ok());
  auto p_sketch = cache.GetOrPrepare(engine, sketch_first, 0.01);
  ASSERT_TRUE(p_sketch.ok());
  interned.push_back(p_sketch->get());
  auto prepared = engine.Prepare(restored, 0.1);
  ASSERT_TRUE(prepared.ok());
  auto p_restored = cache.InternRestored(restored, 0.1, *prepared);
  ASSERT_TRUE(p_restored.ok());
  interned.push_back(p_restored->get());
  ASSERT_EQ(cache.stats().entries, 3u);

  for (const PreparedReference* p : interned) {
    std::vector<double> original;
    double alpha = 0.0;
    uint64_t fingerprint = 0;
    ASSERT_TRUE(cache.FindOriginal(p, &original, &alpha, &fingerprint));
    EXPECT_EQ(fingerprint, ReferenceFingerprint(original, alpha));
  }
}

TEST(PreparedReferenceCacheTest, BoundedCacheEvictsLeastRecentlyUsed) {
  Moche engine;
  PreparedReferenceCache cache{PreparedReferenceCache::Options{2}};
  const std::vector<double> ref_a{1.0, 2.0, 3.0};
  const std::vector<double> ref_b{4.0, 5.0, 6.0};
  const std::vector<double> ref_c{7.0, 8.0, 9.0};

  // Intern A and B, dropping the returned shared_ptrs so both entries are
  // unpinned (the cache holds the last reference).
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_a, 0.05).ok());
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_b, 0.05).ok());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch A so B becomes the least recently used entry...
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_a, 0.05).ok());
  // ...then a third intern must evict B, not A.
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_c, 0.05).ok());
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // A survived (hit); B was dropped (miss + re-prepare).
  const size_t hits_before = stats.hits;
  const size_t misses_before = stats.misses;
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_a, 0.05).ok());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_b, 0.05).ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(PreparedReferenceCacheTest, PinnedEntriesAreNeverEvicted) {
  Moche engine;
  PreparedReferenceCache cache{PreparedReferenceCache::Options{1}};
  const std::vector<double> ref_a{1.0, 2.0, 3.0};
  const std::vector<double> ref_b{4.0, 5.0, 6.0};

  // Hold the shared_ptr: the entry is live state outside the cache.
  auto pinned = cache.GetOrPrepare(engine, ref_a, 0.05);
  ASSERT_TRUE(pinned.ok());
  // Interning B cannot evict the pinned A: the table goes over capacity
  // instead of stranding a live reference.
  ASSERT_TRUE(cache.GetOrPrepare(engine, ref_b, 0.05).ok());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // The pinned entry still resolves to the same object.
  auto again = cache.GetOrPrepare(engine, ref_a, 0.05);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), pinned->get());

  // Once released, the LRU bound applies again on the next intern.
  *pinned = nullptr;
  *again = nullptr;
  ASSERT_TRUE(cache.GetOrPrepare(engine, {7.0, 8.0, 9.0}, 0.05).ok());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(PreparedReferenceCacheTest, SketchSharesTheEntryOfTheExactForm) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref{5.0, 1.0, 3.0, 2.0, 4.0};
  sketch::KllOptions kll;
  kll.capacity = 64;

  auto prepared = cache.GetOrPrepare(engine, ref, 0.05);
  ASSERT_TRUE(prepared.ok());
  auto sketched = cache.GetOrSketch(ref, 0.05, kll);
  ASSERT_TRUE(sketched.ok()) << sketched.status().message();
  // One entry carries both representations.
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ((*sketched)->count(), ref.size());

  // The summary is interned: a second ask is a hit on the same object.
  auto again = cache.GetOrSketch(ref, 0.05, kll);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), sketched->get());

  // One summary per entry: a different capacity for the same key is a
  // configuration error, not a second summary.
  kll.capacity = 128;
  EXPECT_FALSE(cache.GetOrSketch(ref, 0.05, kll).ok());

  // resident_bytes accounts for the key sequence, the sorted sample, and
  // the sketch summary.
  EXPECT_GT(cache.stats().resident_bytes,
            2 * ref.size() * sizeof(double));
}

TEST(PreparedReferenceCacheTest, InternRestoredChecksSketchConsistency) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref{5.0, 1.0, 3.0, 2.0, 4.0};
  sketch::KllOptions kll;
  kll.capacity = 32;
  auto built = sketch::SketchedReference::FromSample(ref, 0.05, kll);
  ASSERT_TRUE(built.ok());
  // Restores `summary` beside an exact form prepared over (key, alpha), so
  // only the summary can disagree with the key.
  const auto restore = [&](const std::vector<double>& key, double alpha,
                           const sketch::SketchedReference& summary,
                           std::shared_ptr<const sketch::SketchedReference>*
                               sketched) {
    auto prepared = engine.Prepare(key, alpha);
    EXPECT_TRUE(prepared.ok());
    *sketched = std::make_shared<const sketch::SketchedReference>(summary);
    return cache.InternRestored(key, alpha, *prepared, sketched);
  };

  // Splice guards: a summary whose alpha or count disagrees with its cache
  // key is rejected before it can shadow the real reference.
  std::shared_ptr<const sketch::SketchedReference> sketched;
  EXPECT_FALSE(restore(ref, 0.01, *built, &sketched).ok());
  EXPECT_FALSE(restore({1.0, 2.0}, 0.05, *built, &sketched).ok());
  EXPECT_EQ(cache.stats().entries, 0u);

  auto interned = restore(ref, 0.05, *built, &sketched);
  ASSERT_TRUE(interned.ok()) << interned.status().message();
  const sketch::SketchedReference* first = sketched.get();
  EXPECT_EQ(cache.stats().entries, 1u);

  // A second shard restoring the same key converges on the interned
  // objects, both forms.
  auto converged = restore(ref, 0.05, *built, &sketched);
  ASSERT_TRUE(converged.ok());
  EXPECT_EQ(converged->get(), interned->get());
  EXPECT_EQ(sketched.get(), first);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);

  // ...unless its capacity disagrees with what is already interned.
  kll.capacity = 64;
  auto other = sketch::SketchedReference::FromSample(ref, 0.05, kll);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(restore(ref, 0.05, *other, &sketched).ok());
}

TEST(PreparedReferenceCacheTest, ConcurrentGetOrPrepareIsSafe) {
  Moche engine;
  PreparedReferenceCache cache;
  const std::vector<double> ref_a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ref_b{9.0, 8.0, 7.0};

  constexpr int kThreads = 8;
  std::vector<const PreparedReference*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<double>& ref = (t % 2 == 0) ? ref_a : ref_b;
      for (int iter = 0; iter < 50; ++iter) {
        auto prepared = cache.GetOrPrepare(engine, ref, 0.05);
        ASSERT_TRUE(prepared.ok());
        seen[t] = prepared->get();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Every thread of a key group saw the same interned object.
  for (int t = 2; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[t % 2]) << "thread " << t;
  }
  EXPECT_EQ(cache.stats().entries, 2u);
}

}  // namespace
}  // namespace stream
}  // namespace moche
