// The corruption matrix: every way a checkpoint's bytes can be wrong must
// fail with a distinct, descriptive Status — never UB, never a crash,
// never a partially restored monitor. The CI asan-ubsan leg runs this file
// under -fsanitize=address,undefined, so any out-of-bounds read or
// overflow a corrupted length could provoke fails the build even when the
// Status paths happen to look correct.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/crc32c.h"
#include "persist/monitor_codec.h"
#include "persist/snapshot.h"
#include "stream/drift_monitor.h"
#include "timeseries/generators.h"

namespace moche {
namespace persist {
namespace {

stream::DriftMonitor BuildLoadedMonitor(
    stream::MonitorOptions options = stream::MonitorOptions{}) {
  auto monitor = stream::DriftMonitor::Create(options);
  EXPECT_TRUE(monitor.ok());
  const std::vector<ts::DriftScenario> scenarios = ts::MakeDriftScenarioSuite(
      4, /*seed=*/20210817, /*reference_size=*/60, /*length=*/200);
  for (const ts::DriftScenario& scenario : scenarios) {
    EXPECT_TRUE(
        monitor->AddStream(scenario.name, scenario.reference, 40).ok());
  }
  std::vector<std::vector<double>> batch(scenarios.size());
  size_t max_len = 0;
  for (const ts::DriftScenario& s : scenarios) {
    max_len = std::max(max_len, s.observations.size());
  }
  for (size_t t0 = 0; t0 < max_len; t0 += 32) {
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const std::vector<double>& obs = scenarios[i].observations;
      const size_t begin = std::min(obs.size(), t0);
      const size_t end = std::min(obs.size(), begin + 32);
      batch[i].assign(obs.begin() + static_cast<long>(begin),
                      obs.begin() + static_cast<long>(end));
    }
    EXPECT_TRUE(monitor->PushBatch(batch).ok());
  }
  return std::move(*monitor);
}

CheckpointBlobs MakeBlobs(
    uint32_t num_shards,
    stream::MonitorOptions monitor_options = stream::MonitorOptions{}) {
  stream::DriftMonitor monitor = BuildLoadedMonitor(monitor_options);
  CheckpointOptions options;
  options.num_shards = num_shards;
  auto blobs = MonitorCodec::Serialize(monitor, options);
  EXPECT_TRUE(blobs.ok()) << blobs.status().ToString();
  return *blobs;
}

stream::MonitorOptions SketchedOptions(size_t sketch_k) {
  stream::MonitorOptions options;
  options.reference_mode = stream::ReferenceMode::kSketched;
  options.sketch_k = sketch_k;
  return options;
}

/// Walks a snapshot's section frames ([id u32][len u64][payload][crc u32]
/// after the 12-byte header) and returns the byte offset of each section's
/// payload (or its frame start when the payload is empty) — the spots a
/// bit flip is guaranteed to be CRC-protected.
std::vector<size_t> SectionPayloadOffsets(const std::string& bytes) {
  std::vector<size_t> offsets;
  size_t pos = kSnapshotMagicSize + 4;
  while (pos + 12 <= bytes.size()) {
    uint64_t length = 0;
    for (int i = 0; i < 8; ++i) {
      length |= static_cast<uint64_t>(
                    static_cast<uint8_t>(bytes[pos + 4 + static_cast<size_t>(i)]))
                << (8 * i);
    }
    offsets.push_back(length > 0 ? pos + 12 : pos);
    pos += 12 + static_cast<size_t>(length) + 4;
  }
  return offsets;
}

TEST(SnapshotCorruptionTest, EmptyAndHeaderlessInputsAreInvalidArgument) {
  auto empty = SnapshotReader::Open("", "empty.snap");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.status().message().find("0 bytes"), std::string::npos);

  // Shorter than magic + version: truncation, not a format mismatch.
  auto stub = SnapshotReader::Open("MOCHSNA", "stub.snap");
  ASSERT_FALSE(stub.ok());
  EXPECT_EQ(stub.status().code(), StatusCode::kOutOfRange);
}

TEST(SnapshotCorruptionTest, WrongMagicIsInvalidArgument) {
  CheckpointBlobs blobs = MakeBlobs(1);
  blobs.manifest[0] = 'X';
  auto restored = MonitorCodec::Deserialize(blobs, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("magic"), std::string::npos);
}

TEST(SnapshotCorruptionTest, FutureFormatVersionIsUnimplemented) {
  CheckpointBlobs blobs = MakeBlobs(1);
  // The version u32 sits right after the 8-byte magic; declare version+1.
  blobs.manifest[kSnapshotMagicSize] =
      static_cast<char>(kSnapshotFormatVersion + 1);
  auto restored = MonitorCodec::Deserialize(blobs, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(restored.status().message().find("newer"), std::string::npos);

  // Same rejection when the future version is in a shard, not the
  // manifest.
  CheckpointBlobs shard_blobs = MakeBlobs(2);
  shard_blobs.shards[1][kSnapshotMagicSize] =
      static_cast<char>(kSnapshotFormatVersion + 1);
  restored = MonitorCodec::Deserialize(shard_blobs, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kUnimplemented);
}

TEST(SnapshotCorruptionTest, EveryTruncationPointFailsCleanly) {
  const CheckpointBlobs blobs = MakeBlobs(2);
  // Every proper prefix of the manifest must be rejected; sampling every
  // prefix length keeps the loop O(n) states on a small blob.
  for (size_t len = 0; len < blobs.manifest.size();
       len += std::max<size_t>(1, blobs.manifest.size() / 97)) {
    CheckpointBlobs truncated = blobs;
    truncated.manifest.resize(len);
    auto restored = MonitorCodec::Deserialize(truncated, RestoreOptions{});
    EXPECT_FALSE(restored.ok()) << "manifest truncated to " << len;
  }
  for (size_t len = 0; len < blobs.shards[0].size();
       len += std::max<size_t>(1, blobs.shards[0].size() / 97)) {
    CheckpointBlobs truncated = blobs;
    truncated.shards[0].resize(len);
    auto restored = MonitorCodec::Deserialize(truncated, RestoreOptions{});
    EXPECT_FALSE(restored.ok()) << "shard 0 truncated to " << len;
  }
}

TEST(SnapshotCorruptionTest, ZeroLengthShardIsRejected) {
  CheckpointBlobs blobs = MakeBlobs(3);
  blobs.shards[2].clear();
  auto restored = MonitorCodec::Deserialize(blobs, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("0 bytes"), std::string::npos);
}

TEST(SnapshotCorruptionTest, MissingOrExtraShardsAreRejected) {
  const CheckpointBlobs blobs = MakeBlobs(2);
  CheckpointBlobs missing = blobs;
  missing.shards.pop_back();
  EXPECT_FALSE(MonitorCodec::Deserialize(missing, RestoreOptions{}).ok());
  CheckpointBlobs extra = blobs;
  extra.shards.push_back(blobs.shards[0]);
  EXPECT_FALSE(MonitorCodec::Deserialize(extra, RestoreOptions{}).ok());
  // Swapped shard files: each shard carries its own index, so shard 1's
  // bytes under shard 0's slot must be caught.
  CheckpointBlobs swapped = blobs;
  std::swap(swapped.shards[0], swapped.shards[1]);
  EXPECT_FALSE(MonitorCodec::Deserialize(swapped, RestoreOptions{}).ok());
}

TEST(SnapshotCorruptionTest, BitFlipInEverySectionIsCaughtByItsCrc) {
  const CheckpointBlobs blobs = MakeBlobs(2);
  const std::vector<const std::string*> files = {
      &blobs.manifest, &blobs.shards[0], &blobs.shards[1]};
  for (size_t f = 0; f < files.size(); ++f) {
    const std::vector<size_t> offsets = SectionPayloadOffsets(*files[f]);
    ASSERT_FALSE(offsets.empty()) << "file " << f << " has no sections";
    for (size_t offset : offsets) {
      CheckpointBlobs flipped = blobs;
      std::string& victim =
          f == 0 ? flipped.manifest : flipped.shards[f - 1];
      victim[offset] = static_cast<char>(victim[offset] ^ 0x01);
      auto restored = MonitorCodec::Deserialize(flipped, RestoreOptions{});
      ASSERT_FALSE(restored.ok())
          << "file " << f << ", flip at byte " << offset;
      EXPECT_NE(restored.status().message().find("CRC32C"),
                std::string::npos)
          << "file " << f << ", flip at byte " << offset << ": "
          << restored.status().ToString();
    }
  }
}

TEST(SnapshotCorruptionTest, HostileLengthFieldsCannotAllocate) {
  // A CRC-clean snapshot whose manifest declares absurd counts: the codec
  // must bound every allocation by the actual bytes available, so this
  // returns a Status instead of attempting a 2^60-element reserve. The
  // container is built by hand with a valid CRC per section.
  std::string manifest;
  SnapshotWriter writer(&manifest);
  std::string* payload = writer.BeginSection(1);  // manifest section id
  bin::AppendU32Le(1, payload);                   // num_shards
  bin::AppendU64Le(1ull << 60, payload);          // num_streams: hostile
  bin::AppendU64Le(1ull << 60, payload);          // num_events: hostile
  bin::AppendU64Le(0, payload);                   // explanations_total
  bin::AppendDoubleLe(0.05, payload);             // alpha
  bin::AppendU8(0, payload);                      // rearm
  bin::AppendU64Le(0, payload);                   // explain_every_k
  bin::AppendU8(0, payload);                      // preference
  bin::AppendU8(0, payload);                      // moche bools
  bin::AppendU8(0, payload);
  bin::AppendU8(0, payload);
  bin::AppendU8(0, payload);                      // v2: reference_mode
  bin::AppendU64Le(1024, payload);                // v2: sketch_k
  bin::AppendU64Le(0, payload);                   // v2: cache_capacity
  writer.EndSection();

  CheckpointBlobs hostile;
  hostile.manifest = manifest;
  std::string shard;
  SnapshotWriter shard_writer(&shard);
  shard_writer.BeginSection(2);  // truncated shard: header section only
  shard_writer.EndSection();
  hostile.shards.push_back(shard);
  auto restored = MonitorCodec::Deserialize(hostile, RestoreOptions{});
  EXPECT_FALSE(restored.ok());
}

/// Re-frames a one-shard checkpoint section by section (fresh CRCs),
/// overwriting the first stream's window capacity in the stream table (the
/// third section) with `capacity`. The capacity follows the entry's
/// common fields and `skip` further u64 fields (the exact detector's
/// reference size); `expected` is the capacity it must replace.
void PatchWindowCapacity(CheckpointBlobs* blobs, int skip, uint64_t expected,
                         uint64_t capacity) {
  auto reader = SnapshotReader::Open(blobs->shards[0], "shard");
  ASSERT_TRUE(reader.ok());
  std::string hostile;
  SnapshotWriter writer(&hostile);
  SnapshotSection section;
  bool done = false;
  for (int index = 0;; ++index) {
    ASSERT_TRUE(reader->Next(&section, &done).ok());
    if (done) break;
    std::string payload(section.payload);
    if (index == 2) {
      bin::Reader r(payload);
      uint64_t u64 = 0;
      uint8_t u8 = 0;
      std::string name;
      // count, index, name, reference, ticks, excursion, pushes,
      // drift_ticks, three triage counters.
      ASSERT_TRUE(r.ReadU64Le(&u64) && r.ReadU64Le(&u64) &&
                  r.ReadString(&name) && r.ReadU64Le(&u64) &&
                  r.ReadU64Le(&u64) && r.ReadU8(&u8) && r.ReadU64Le(&u64) &&
                  r.ReadU64Le(&u64) && r.ReadU64Le(&u64) &&
                  r.ReadU64Le(&u64) && r.ReadU64Le(&u64));
      for (int i = 0; i < skip; ++i) ASSERT_TRUE(r.ReadU64Le(&u64));
      const size_t at = r.pos();
      ASSERT_TRUE(r.ReadU64Le(&u64));
      ASSERT_EQ(u64, expected);
      std::string patched;
      bin::AppendU64Le(capacity, &patched);
      payload.replace(at, patched.size(), patched);
    }
    writer.BeginSection(section.id)->append(payload);
    writer.EndSection();
  }
  blobs->shards[0] = hostile;
}

/// A one-stream monitor over a 100-point reference with windows of 40,
/// fed `batch`, checkpointed into one shard.
CheckpointBlobs OneStreamBlobs(stream::MonitorOptions options,
                               const std::vector<std::vector<double>>& batch) {
  auto monitor = stream::DriftMonitor::Create(options);
  EXPECT_TRUE(monitor.ok());
  std::vector<double> reference;
  for (int i = 0; i < 100; ++i) reference.push_back(0.01 * i);
  EXPECT_TRUE(monitor->AddStream("s", reference, 40).ok());
  EXPECT_TRUE(monitor->PushBatch(batch).ok());
  CheckpointOptions checkpoint;
  checkpoint.num_shards = 1;
  auto blobs = MonitorCodec::Serialize(*monitor, checkpoint);
  EXPECT_TRUE(blobs.ok()) << blobs.status().ToString();
  return *blobs;
}

TEST(SnapshotCorruptionTest, HostileRingCapacityCannotAllocate) {
  // A CRC-clean sketched shard whose one stream claims a 2^60-value window
  // around a 10-value ring. The claim passes the ring-size check, so the
  // restore must size nothing by it: the monitor restores (a partly filled
  // ring grows on demand) instead of throwing from the allocator.
  const std::vector<std::vector<double>> batch = {
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.5}};
  CheckpointBlobs blobs = OneStreamBlobs(SketchedOptions(64), batch);
  PatchWindowCapacity(&blobs, /*skip=*/0, 40, 1ull << 60);

  auto restored = MonitorCodec::Deserialize(blobs, RestoreOptions{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->stream_ticks(0), 10u);
  EXPECT_TRUE(restored->PushBatch(batch).ok());
  EXPECT_EQ(restored->stream_ticks(0), 20u);
}

TEST(SnapshotCorruptionTest, HostileExactWindowCannotOverflow) {
  // The exact-mode twin: a CRC-clean shard whose detector claims a
  // 2^60-value window. With n = 100 the scores m * C_R would overflow
  // int64, so the restore must fail with a Status, not throw from the
  // allocator or run the overflowing arithmetic (the asan-ubsan leg runs
  // this file). A window that passes the n * m <= 2^53 bound still sizes
  // nothing by it: the ring grows on demand.
  const std::vector<std::vector<double>> batch = {
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.5}};
  const CheckpointBlobs clean = OneStreamBlobs(stream::MonitorOptions{}, batch);

  CheckpointBlobs overflowing = clean;
  PatchWindowCapacity(&overflowing, /*skip=*/1, 40, 1ull << 60);
  auto rejected = MonitorCodec::Deserialize(overflowing, RestoreOptions{});
  EXPECT_FALSE(rejected.ok());

  CheckpointBlobs huge = clean;
  PatchWindowCapacity(&huge, /*skip=*/1, 40, 1ull << 46);
  auto restored = MonitorCodec::Deserialize(huge, RestoreOptions{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->stream_ticks(0), 10u);
  EXPECT_TRUE(restored->PushBatch(batch).ok());
  EXPECT_EQ(restored->stream_ticks(0), 20u);
}

TEST(SnapshotCorruptionTest, BadReferenceModeByteIsRejected) {
  // A CRC-clean manifest declaring reference mode 7: the enum range check
  // must fire before any shard is touched.
  std::string manifest;
  SnapshotWriter writer(&manifest);
  std::string* payload = writer.BeginSection(1);
  bin::AppendU32Le(1, payload);           // num_shards
  bin::AppendU64Le(0, payload);           // num_streams
  bin::AppendU64Le(0, payload);           // num_events
  bin::AppendU64Le(0, payload);           // explanations_total
  bin::AppendDoubleLe(0.05, payload);     // alpha
  bin::AppendU8(0, payload);              // rearm
  bin::AppendU64Le(0, payload);           // explain_every_k
  bin::AppendU8(0, payload);              // preference
  bin::AppendU8(0, payload);              // moche bools
  bin::AppendU8(0, payload);
  bin::AppendU8(0, payload);
  bin::AppendU8(7, payload);              // v2: not a reference mode
  bin::AppendU64Le(1024, payload);        // v2: sketch_k
  bin::AppendU64Le(0, payload);           // v2: cache_capacity
  writer.EndSection();

  CheckpointBlobs blobs = MakeBlobs(1);
  blobs.manifest = manifest;
  auto restored = MonitorCodec::Deserialize(blobs, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("not a reference mode"),
            std::string::npos);
}

TEST(SnapshotCorruptionTest, SketchCapacityDisagreeingWithManifestIsCaught) {
  // Two CRC-clean checkpoints of the same workload at different sketch
  // capacities; splicing one's manifest onto the other's shards pairs a
  // manifest sketch_k with KLL summaries of the wrong capacity.
  const CheckpointBlobs k64 = MakeBlobs(2, SketchedOptions(64));
  const CheckpointBlobs k128 = MakeBlobs(2, SketchedOptions(128));
  CheckpointBlobs spliced;
  spliced.manifest = k128.manifest;
  spliced.shards = k64.shards;
  auto restored = MonitorCodec::Deserialize(spliced, RestoreOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCorruptionTest, SketchedManifestOverExactShardsIsRejected) {
  // A sketched manifest spliced onto exact-mode shards: the shard's
  // reference table carries no KLL summaries, so the restore must fail
  // cleanly instead of building streams with neither detector nor sketch.
  const CheckpointBlobs exact = MakeBlobs(1);
  const CheckpointBlobs sketched = MakeBlobs(1, SketchedOptions(128));
  CheckpointBlobs spliced;
  spliced.manifest = sketched.manifest;
  spliced.shards = exact.shards;
  EXPECT_FALSE(MonitorCodec::Deserialize(spliced, RestoreOptions{}).ok());
  // The reverse splice (exact manifest, sketched shards) must also fail:
  // the shard carries sketch summaries the manifest says cannot exist.
  CheckpointBlobs reverse;
  reverse.manifest = exact.manifest;
  reverse.shards = sketched.shards;
  EXPECT_FALSE(MonitorCodec::Deserialize(reverse, RestoreOptions{}).ok());
}

TEST(SnapshotCorruptionTest, EveryTruncationPointOnSketchedShardsFails) {
  // Same sweep as the exact-mode truncation test, over the v2 sketched
  // payloads (KLL summaries, ring windows, triage counters).
  const CheckpointBlobs blobs = MakeBlobs(2, SketchedOptions(64));
  for (size_t len = 0; len < blobs.shards[0].size();
       len += std::max<size_t>(1, blobs.shards[0].size() / 97)) {
    CheckpointBlobs truncated = blobs;
    truncated.shards[0].resize(len);
    auto restored = MonitorCodec::Deserialize(truncated, RestoreOptions{});
    EXPECT_FALSE(restored.ok()) << "sketched shard 0 truncated to " << len;
  }
}

TEST(SnapshotCorruptionTest, Version1ManifestRestoresWithExactDefaults) {
  // Forward compatibility with pre-v2 checkpoints: a version-1 manifest
  // ends right after the moche bools, and the reference-mode fields
  // default to kExact. Rebuild the real manifest as v1 — same payload
  // minus the 17-byte v2 tail, version stamp 1, CRC recomputed — and the
  // restore must succeed against the unmodified (exact-mode) shards.
  const CheckpointBlobs blobs = MakeBlobs(1);

  // Parse the one manifest section out of the v2 container.
  const std::string& v2 = blobs.manifest;
  ASSERT_GE(v2.size(), kSnapshotMagicSize + 4 + 12);
  size_t pos = kSnapshotMagicSize + 4;
  uint64_t length = 0;
  for (int i = 0; i < 8; ++i) {
    length |= static_cast<uint64_t>(
                  static_cast<uint8_t>(v2[pos + 4 + static_cast<size_t>(i)]))
              << (8 * i);
  }
  ASSERT_GE(length, 17u);
  const std::string v2_payload = v2.substr(pos + 12, length);

  std::string v1;
  v1.append(kSnapshotMagic, kSnapshotMagicSize);
  bin::AppendU32Le(1, &v1);  // format version 1
  std::string framed;
  bin::AppendU32Le(1, &framed);  // manifest section id
  bin::AppendU64Le(length - 17, &framed);
  framed.append(v2_payload.substr(0, v2_payload.size() - 17));
  v1.append(framed);
  bin::AppendU32Le(Crc32c(framed), &v1);

  CheckpointBlobs aged = blobs;
  aged.manifest = v1;
  auto restored = MonitorCodec::Deserialize(aged, RestoreOptions{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->options().reference_mode,
            stream::ReferenceMode::kExact);
  stream::DriftMonitor monitor = BuildLoadedMonitor();
  EXPECT_TRUE(stream::SameEventLogs(monitor.events(), restored->events()));
}

}  // namespace
}  // namespace persist
}  // namespace moche
