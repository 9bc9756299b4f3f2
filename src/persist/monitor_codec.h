// Checkpoint/restore for stream::DriftMonitor: the snapshot subsystem's
// top layer (docs/SNAPSHOT.md).
//
// A checkpoint is a manifest plus `num_shards` shard files. Each stream is
// assigned to shard ReferenceFingerprint(reference, alpha) % num_shards —
// a pure function of the stream's reference, so the assignment is stable
// across checkpoints, platforms, and restarts, and all streams sharing a
// reference land in one shard (the shard stores that reference once).
// Every file is a sectioned, CRC-checksummed snapshot (persist/snapshot.h)
// committed via AtomicWriteFile; shards are written before the manifest,
// so a crash mid-checkpoint leaves either the previous complete
// checkpoint or the new one, never a torn mixture.
//
// Restore rebuilds a monitor that is observably identical to the one that
// was checkpointed: the same streams (indices, names, tick counts, re-arm
// state, detector windows — each detector's tree is rebuilt by replaying
// its serialized window ring), the same interned references, and the same
// event log in the same order. Feeding the restored monitor the remaining
// observations produces an event log bit-identical (SameEventLogs, and
// byte-identical under FormatEventLog) to a monitor that never stopped —
// the crash-recovery test gate. Wall-time fields (MocheReport::seconds_*)
// are NOT serialized and restore as 0.0: they are nondeterministic
// measurements, and dropping them is what makes
// serialize -> restore -> serialize a byte fixed point (the snapshot_fuzz
// oracle).
//
// Ownership & thread-safety: the free functions and MonitorCodec are
// stateless; every call owns its scratch. CheckpointMonitor takes the
// monitor's internal state mutex while it reads, so it may run
// concurrently with the driver thread's PushBatch (it observes either the
// pre-batch or post-batch state, never a torn one). RestoreMonitor builds
// a fresh monitor owned by the caller.

#ifndef MOCHE_PERSIST_MONITOR_CODEC_H_
#define MOCHE_PERSIST_MONITOR_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stream/drift_monitor.h"
#include "util/status.h"

namespace moche {
namespace persist {

/// File names inside a checkpoint directory.
inline constexpr char kManifestFileName[] = "manifest.snap";
/// "shard-00.snap", "shard-01.snap", ...
std::string ShardFileName(uint32_t shard_index);

struct CheckpointOptions {
  /// Number of shard files (>= 1). More shards bound the size of each file
  /// and let a future incremental writer skip unchanged shards; streams
  /// sharing a reference always share a shard.
  uint32_t num_shards = 4;
};

struct RestoreOptions {
  /// MonitorOptions::num_threads for the restored monitor. Deliberately a
  /// restore-time choice, not snapshot state: the event log is identical
  /// at any thread count, so a snapshot from an 8-core box restores on a
  /// 1-core one unchanged.
  size_t num_threads = 1;
};

/// A whole checkpoint in memory: what CheckpointMonitor writes to disk and
/// RestoreMonitor reads back. The in-memory form is the fuzzing surface —
/// round-tripping needs no filesystem.
struct CheckpointBlobs {
  std::string manifest;
  std::vector<std::string> shards;  ///< shards[i] is shard i's bytes
};

/// The (de)serializer behind the free functions. A class (not free
/// functions) only so DriftMonitor can befriend it: persistence reads the
/// monitor's private stream state without the monitor learning the file
/// format.
class MonitorCodec {
 public:
  /// Serializes the monitor's full restorable state. Takes the monitor's
  /// state mutex for the duration (safe concurrently with PushBatch).
  /// InvalidArgument when options.num_shards == 0.
  static Result<CheckpointBlobs> Serialize(const stream::DriftMonitor& monitor,
                                           const CheckpointOptions& options);

  /// Rebuilds a monitor from checkpoint bytes. Every field is re-validated
  /// on the way in (section framing and CRCs by SnapshotReader, value
  /// domains here), so corrupted or hand-spliced bytes fail with a Status
  /// — never UB, never a partially restored monitor.
  static Result<stream::DriftMonitor> Deserialize(
      const CheckpointBlobs& blobs, const RestoreOptions& options);

 private:
  /// Parses shard `shard_index` of a `num_shards`-shard checkpoint straight
  /// into `monitor`, which Deserialize created from the manifest with its
  /// stream and event slots pre-sized: references are interned in the
  /// monitor's cache, and each stream and event lands in the slot its
  /// global index names (marked in *stream_seen / *event_seen, so a slot
  /// claimed twice is caught here and one never claimed by the caller).
  static Status ParseShard(const std::string& bytes, uint32_t shard_index,
                           uint32_t num_shards, stream::DriftMonitor* monitor,
                           std::vector<unsigned char>* stream_seen,
                           std::vector<unsigned char>* event_seen);
};

/// Serializes `monitor` into `dir` (created if absent): shard files first,
/// manifest last, each through the atomic write-fsync-rename commit.
Status CheckpointMonitor(const stream::DriftMonitor& monitor,
                         const std::string& dir,
                         const CheckpointOptions& options = {});

/// Restores the checkpoint in `dir`. NotFound when no manifest exists.
Result<stream::DriftMonitor> RestoreMonitor(const std::string& dir,
                                            const RestoreOptions& options = {});

/// Renders an event log's deterministic fields (stream, tick, statistics
/// via FormatG17, status, explanation indices) as one line per event.
/// Equal logs format identically on every platform; wall times are
/// excluded. The crash-recovery test diffs these dumps byte-for-byte.
std::string FormatEventLog(const std::vector<stream::DriftEvent>& events);

}  // namespace persist
}  // namespace moche

#endif  // MOCHE_PERSIST_MONITOR_CODEC_H_
