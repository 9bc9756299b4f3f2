#include "stream/prepared_cache.h"

#include <utility>

#include "util/binary_io.h"
#include "util/string_util.h"

namespace moche {
namespace stream {

namespace {

// 64-bit FNV-1a over the eight little-endian bytes of `word`, LSB first.
// The bytes come from shift-and-mask on the integer VALUE, never from
// reinterpreting host memory, so the digest is identical on big- and
// little-endian machines: this is FNV-1a over exactly the byte string
// bin::AppendU64Le would emit for `word`.
inline uint64_t Fnv1aU64Le(uint64_t hash, uint64_t word) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xFFu;
    hash *= kPrime;
  }
  return hash;
}

// -0.0 == +0.0, and the cache's exact-match guard compares with
// operator==, so two references differing only in a zero's sign are the
// same cache key. Hash the canonical +0.0 for both: hashing raw bits would
// send them to different buckets and silently duplicate the entry (a miss
// and a second sort where the guard would have hit).
inline uint64_t CanonicalDoubleBits(double v) {
  return bin::DoubleBits(v == 0.0 ? 0.0 : v);
}

// Moves a freshly built form into the shared, immutable handle the cache
// interns.
template <typename T>
Result<std::shared_ptr<const T>> Share(Result<T> built) {
  if (!built.ok()) return built.status();
  return std::make_shared<const T>(std::move(built).value());
}

}  // namespace

uint64_t ReferenceFingerprint(const std::vector<double>& values,
                              double alpha) {
  // FNV-1a over the canonical byte string
  //   AppendU64Le(count) AppendDoubleLe(alpha') AppendDoubleLe(v'_0) ...
  // with ' marking zero-canonicalization — the same encoding the snapshot
  // layer writes, hashed without materializing the buffer. The
  // golden-sequence test in tests/stream/prepared_cache_test.cc pins the
  // digest; persisted shard assignment depends on it never drifting.
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  hash = Fnv1aU64Le(hash, static_cast<uint64_t>(values.size()));
  hash = Fnv1aU64Le(hash, CanonicalDoubleBits(alpha));
  for (double v : values) hash = Fnv1aU64Le(hash, CanonicalDoubleBits(v));
  return hash;
}

PreparedReferenceCache::Entry* PreparedReferenceCache::FindEntryLocked(
    uint64_t fingerprint, const std::vector<double>& reference,
    double alpha) {
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return nullptr;
  for (Entry& entry : it->second) {
    if (entry.alpha == alpha && entry.original == reference) {
      entry.last_used = ++use_clock_;
      return &entry;
    }
  }
  return nullptr;
}

size_t PreparedReferenceCache::CountEntriesLocked() const {
  size_t count = 0;
  for (const auto& [fingerprint, bucket] : entries_) {
    (void)fingerprint;
    count += bucket.size();
  }
  return count;
}

void PreparedReferenceCache::EvictIfOverCapacityLocked() {
  if (options_.capacity == 0) return;
  // Called before an insert: evict until the newcomer fits. Unpinned means
  // the cache's shared_ptrs are the last owners — dropping the entry frees
  // the reference, it cannot strand a live stream. O(entries) per scan is
  // fine: eviction only runs on interning, never on the push hot path.
  while (CountEntriesLocked() >= options_.capacity) {
    std::unordered_map<uint64_t, std::vector<Entry>>::iterator victim_bucket =
        entries_.end();
    size_t victim_index = 0;
    uint64_t victim_stamp = 0;
    bool found = false;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      for (size_t i = 0; i < it->second.size(); ++i) {
        const Entry& entry = it->second[i];
        const bool pinned =
            (entry.prepared != nullptr && entry.prepared.use_count() > 1) ||
            (entry.sketched != nullptr && entry.sketched.use_count() > 1);
        if (pinned) continue;
        if (!found || entry.last_used < victim_stamp) {
          victim_bucket = it;
          victim_index = i;
          victim_stamp = entry.last_used;
          found = true;
        }
      }
    }
    if (!found) return;  // everything pinned: allow over-capacity
    victim_bucket->second.erase(victim_bucket->second.begin() +
                                static_cast<ptrdiff_t>(victim_index));
    if (victim_bucket->second.empty()) entries_.erase(victim_bucket);
    ++evictions_;
  }
}

Status PreparedReferenceCache::Intern(
    const std::vector<double>& reference, double alpha, bool count_use,
    size_t sketch_capacity, const Maker<PreparedReference>& make_prepared,
    const Maker<sketch::SketchedReference>& make_sketched,
    std::shared_ptr<const PreparedReference>* prepared,
    std::shared_ptr<const sketch::SketchedReference>* sketched) {
  const uint64_t fingerprint = ReferenceFingerprint(reference, alpha);
  MutexLock lock(&mutex_);
  Entry* entry = FindEntryLocked(fingerprint, reference, alpha);
  std::shared_ptr<const PreparedReference> exact =
      entry != nullptr ? entry->prepared : nullptr;
  std::shared_ptr<const sketch::SketchedReference> summary =
      entry != nullptr ? entry->sketched : nullptr;
  if (sketched != nullptr && summary != nullptr &&
      summary->sketch_capacity() != sketch_capacity) {
    return Status::InvalidArgument(StrFormat(
        "reference already interned with sketch capacity %zu, not %zu",
        summary->sketch_capacity(), sketch_capacity));
  }
  const bool build_exact = prepared != nullptr && exact == nullptr;
  const bool build_summary = sketched != nullptr && summary == nullptr;
  if (build_exact) {
    MOCHE_ASSIGN_OR_RETURN(exact, make_prepared());
  }
  if (build_summary) {
    MOCHE_ASSIGN_OR_RETURN(summary, make_sketched());
  }

  if (entry == nullptr) {
    EvictIfOverCapacityLocked();
    std::vector<Entry>& bucket = entries_[fingerprint];
    bucket.push_back(Entry{reference, alpha, nullptr, nullptr, ++use_clock_});
    entry = &bucket.back();
  }
  if (prepared != nullptr) {
    if (count_use) ++(build_exact ? misses_ : hits_);
    entry->prepared = exact;
    *prepared = std::move(exact);
  }
  if (sketched != nullptr) {
    if (count_use) ++(build_summary ? misses_ : hits_);
    entry->sketched = summary;
    *sketched = std::move(summary);
  }
  return Status::OK();
}

Result<std::shared_ptr<const PreparedReference>>
PreparedReferenceCache::GetOrPrepare(
    const Moche& engine, const std::vector<double>& reference, double alpha,
    std::shared_ptr<const sketch::SketchedReference>* sketched,
    const sketch::KllOptions& kll) {
  std::shared_ptr<const PreparedReference> prepared;
  MOCHE_RETURN_IF_ERROR(Intern(
      reference, alpha, /*count_use=*/true, kll.capacity,
      [&] { return Share(engine.Prepare(reference, alpha)); },
      [&] {
        return Share(sketch::SketchedReference::FromSample(reference, alpha,
                                                           kll));
      },
      &prepared, sketched));
  return prepared;
}

Result<std::shared_ptr<const sketch::SketchedReference>>
PreparedReferenceCache::GetOrSketch(const std::vector<double>& reference,
                                    double alpha,
                                    const sketch::KllOptions& options) {
  std::shared_ptr<const sketch::SketchedReference> sketched;
  MOCHE_RETURN_IF_ERROR(Intern(
      reference, alpha, /*count_use=*/true, options.capacity, nullptr,
      [&] {
        return Share(sketch::SketchedReference::FromSample(reference, alpha,
                                                           options));
      },
      nullptr, &sketched));
  return sketched;
}

Result<std::shared_ptr<const PreparedReference>>
PreparedReferenceCache::InternRestored(
    const std::vector<double>& original, double alpha,
    PreparedReference prepared,
    std::shared_ptr<const sketch::SketchedReference>* sketched) {
  // A CRC-clean snapshot can still pair sections wrongly (a hand-spliced
  // file); cheap consistency checks keep such a splice from planting an
  // entry whose restored forms disagree with their key.
  if (prepared.alpha() != alpha ||
      (sketched != nullptr && (*sketched)->alpha() != alpha)) {
    return Status::InvalidArgument(
        "restored reference alpha does not match its cache key");
  }
  if (prepared.sorted_reference().size() != original.size() ||
      (sketched != nullptr && (*sketched)->count() != original.size())) {
    return Status::InvalidArgument(
        "restored reference size does not match its cache key");
  }
  std::shared_ptr<const PreparedReference> interned;
  MOCHE_RETURN_IF_ERROR(Intern(
      original, alpha, /*count_use=*/false,
      sketched != nullptr ? (*sketched)->sketch_capacity() : 0,
      [&] { return Share(Result<PreparedReference>(std::move(prepared))); },
      [&]() -> Result<std::shared_ptr<const sketch::SketchedReference>> {
        return *sketched;  // adopted as is: the summary is already shared
      },
      &interned, sketched));
  return interned;
}

bool PreparedReferenceCache::FindOriginal(const PreparedReference* prepared,
                                          std::vector<double>* original,
                                          double* alpha) const {
  MutexLock lock(&mutex_);
  for (const auto& [fingerprint, bucket] : entries_) {
    (void)fingerprint;
    for (const Entry& entry : bucket) {
      if (entry.prepared.get() == prepared) {
        *original = entry.original;
        *alpha = entry.alpha;
        return true;
      }
    }
  }
  return false;
}

PreparedReferenceCache::Stats PreparedReferenceCache::stats() const {
  MutexLock lock(&mutex_);
  Stats s;
  for (const auto& [fingerprint, bucket] : entries_) {
    (void)fingerprint;
    s.entries += bucket.size();
    for (const Entry& entry : bucket) {
      s.resident_bytes += entry.original.capacity() * sizeof(double);
      if (entry.prepared != nullptr) {
        s.resident_bytes += sizeof(PreparedReference) +
                            entry.prepared->sorted_reference().capacity() *
                                sizeof(double);
      }
      if (entry.sketched != nullptr) {
        s.resident_bytes += sizeof(sketch::SketchedReference) +
                            entry.sketched->FootprintBytes();
      }
    }
  }
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  return s;
}

}  // namespace stream
}  // namespace moche
