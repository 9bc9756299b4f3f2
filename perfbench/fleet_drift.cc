// fleet_drift: an exact-mode DriftMonitor over a fleet of scenario
// streams, fed by one driver thread in small tick batches, with periodic
// checkpoints and a final restore.
//
// Firing streams cost about half a millisecond of explanation beside a few
// microseconds per observation of treap detection; that uneven work per
// stream is what makes the pool barrier show. Stream inputs cycle through
// a fixed scenario, so window contents at any tick are known from the
// generator alone and every fired window can be rebuilt.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/moche.h"
#include "core/preference.h"
#include "ks/streaming.h"
#include "persist/monitor_codec.h"
#include "stream/drift_monitor.h"
#include "timeseries/generators.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kStreams = 128;
constexpr size_t kReferences = 4;  // interned references shared by streams
constexpr size_t kReferenceSize = 5000;
constexpr size_t kWindow = 500;
// Ticks before a stream's input repeats: 1000 batch positions, so the tail
// percentile over per-position medians is a true p99.
constexpr size_t kCycle = 8000;
constexpr size_t kBatchTicks = 8;
constexpr size_t kExplainEveryK = 64;
constexpr size_t kCheckpointEvery = 50;  // batches
constexpr size_t kMaxThreads = 4;
constexpr double kAlpha = 0.05;
constexpr int kSetupRepeats = 3;
constexpr int kRestoreRepeats = 3;
// The traced run replays 500 batches layer by layer, from the first batch
// after every window has filled.
constexpr size_t kReplayFirst = kWindow / kBatchTicks + 1;
constexpr size_t kReplayBatches = 500;
constexpr int kForkJoinCalls = 2000;

struct EventKey {
  size_t stream = 0;
  uint64_t tick = 0;
  uint64_t digest = 0;  // of (k, indices)
};


class Fleet {
 public:
  explicit Fleet(uint64_t seed)
      : scenarios_(moche::ts::MakeDriftScenarioSuite(kStreams, seed,
                                                     kReferenceSize, kCycle)) {}

  const std::vector<double>& reference(size_t stream) const {
    return scenarios_[stream % kReferences].reference;
  }
  // Stream i starts its scenario i / kStreams of a cycle in, so drift
  // onsets are spread evenly over the cycle (each scenario drifts from its
  // midpoint) and every stretch of a run carries the same load.
  double Observation(size_t stream, uint64_t tick_index) const {
    const uint64_t phase = stream * kCycle / kStreams;
    return scenarios_[stream].observations[(tick_index + phase) % kCycle];
  }
  // The window stream `stream` holds right after its `tick`-th push.
  std::vector<double> Window(size_t stream, uint64_t tick) const {
    std::vector<double> window;
    for (uint64_t t = tick - kWindow; t < tick; ++t) {
      window.push_back(Observation(stream, t));
    }
    return window;
  }
  void FillBatch(size_t batch, std::vector<std::vector<double>>* out) const {
    for (size_t i = 0; i < kStreams; ++i) {
      (*out)[i].clear();
      for (size_t t = 0; t < kBatchTicks; ++t) {
        (*out)[i].push_back(Observation(i, batch * kBatchTicks + t));
      }
    }
  }

 private:
  std::vector<moche::ts::DriftScenario> scenarios_;
};

size_t Threads() { return std::min(kMaxThreads, Nproc()); }

moche::Result<moche::stream::DriftMonitor> BuildMonitor(const Fleet& fleet) {
  moche::stream::MonitorOptions options;
  options.alpha = kAlpha;
  options.rearm = moche::stream::RearmPolicy::kEveryKPushes;
  options.explain_every_k = kExplainEveryK;
  options.num_threads = Threads();
  auto monitor = moche::stream::DriftMonitor::Create(options);
  if (!monitor.ok()) return monitor.status();
  for (size_t i = 0; i < kStreams; ++i) {
    auto index = monitor->AddStream("stream-" + std::to_string(i),
                                    fleet.reference(i), kWindow);
    if (!index.ok()) return index.status();
  }
  return monitor;
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

bool SameBlobs(const moche::persist::CheckpointBlobs& a,
               const moche::persist::CheckpointBlobs& b) {
  return a.manifest == b.manifest && a.shards == b.shards;
}

}  // namespace

void RunFleetDrift(const RunConfig& config, Tracer* tracer,
                   RunResult* result) {
  const Fleet fleet(config.seed);
  std::vector<std::vector<double>> sorted_refs(kReferences);
  for (size_t r = 0; r < kReferences; ++r) {
    sorted_refs[r] = fleet.reference(r);
    std::sort(sorted_refs[r].begin(), sorted_refs[r].end());
  }
  const std::string dir = config.out_dir + "/fleet_drift_checkpoint";
  std::filesystem::remove_all(dir);

  // Set-up: Create + AddStream (reference sort, one treap per stream).
  std::vector<double> setup_s;
  std::optional<moche::stream::DriftMonitor> monitor;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    monitor.reset();
    const int64_t t0 = NowNs();
    auto built = BuildMonitor(fleet);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    ++result->attempted;
    if (!built.ok()) {
      ++result->failed;
      result->Fail("monitor set-up: " + built.status().ToString());
      return;
    }
    monitor.emplace(std::move(*built));
  }

  const auto check_events = [&](std::vector<EventKey>* keys) {
    for (const moche::stream::DriftEvent& event : monitor->events()) {
      const std::string why =
          CheckEvent(sorted_refs[event.stream % kReferences],
                     fleet.Window(event.stream, event.tick), kAlpha, event);
      if (!why.empty()) {
        result->Fail("event stream " + std::to_string(event.stream) +
                     " tick " + std::to_string(event.tick) + ": " + why);
      }
      if (keys != nullptr) {
        keys->push_back(
            {event.stream, event.tick, ExplanationDigest(event.report)});
      }
    }
  };

  const moche::persist::CheckpointOptions checkpoint_options;
  const double loop_seconds =
      tracer->enabled() ? config.seconds / 2 : config.seconds;
  std::vector<std::vector<double>> batch(kStreams);
  CallLog calls;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> serialize_ms;
  std::vector<double> snapshot_bytes;
  std::vector<EventKey> event_keys;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(loop_seconds * 1e9);
  size_t b = 0;
  const auto checkpoint = [&](uint64_t request) {
    if (tracer->enabled()) {
      const int64_t span = tracer->Begin("persist.serialize", request);
      auto blobs =
          moche::persist::MonitorCodec::Serialize(*monitor, checkpoint_options);
      tracer->End(span);
      if (!blobs.ok()) result->Fail("Serialize: " + blobs.status().ToString());
      serialize_ms.push_back(tracer->DurationMs(span));
    }
    const int64_t t0 = NowNs();
    const moche::Status status =
        moche::persist::CheckpointMonitor(*monitor, dir, checkpoint_options);
    const int64_t t1 = NowNs();
    tracer->Add("persist.checkpoint", request, t0, t1);
    ++result->attempted;
    if (!status.ok()) {
      ++result->failed;
      result->Fail("CheckpointMonitor: " + status.ToString());
      return;
    }
    checkpoint_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    snapshot_bytes.push_back(DirectoryBytes(dir));
  };
  for (; b < kCheckpointEvery || NowNs() < deadline; ++b) {
    fleet.FillBatch(b, &batch);
    // Alternate per input cycle too, so each position runs both ways.
    const bool traced = tracer->enabled() &&
                        (b + b / (kCycle / kBatchTicks)) % 2 == 1;
    const int64_t t0 = NowNs();
    const moche::Status status = monitor->PushBatch(batch);
    const int64_t t1 = NowNs();
    if (traced) tracer->Add("e2e.push_batch", b, t0, t1);
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    calls.Add(static_cast<uint32_t>(b % (kCycle / kBatchTicks)), ms,
              static_cast<double>(kStreams * kBatchTicks));
    if (tracer->enabled()) (traced ? traced_ms : untraced_ms).push_back(ms);
    ++result->attempted;
    if (!status.ok()) {
      ++result->failed;
      result->Fail("PushBatch: " + status.ToString());
      return;
    }
    if ((b + 1) % kCheckpointEvery == 0) {
      checkpoint(b);
      check_events(tracer->enabled() ? &event_keys : nullptr);
      monitor->ClearEvents();
    }
  }
  const size_t batches = b;

  // The run ends with a checkpoint of the live monitor and its restore;
  // the restored monitor must serialize to the same bytes and carry the
  // same event log.
  checkpoint(batches);
  check_events(tracer->enabled() ? &event_keys : nullptr);
  auto live_blobs =
      moche::persist::MonitorCodec::Serialize(*monitor, checkpoint_options);
  if (!live_blobs.ok()) {
    result->Fail("Serialize: " + live_blobs.status().ToString());
    return;
  }
  moche::persist::RestoreOptions restore_options;
  restore_options.num_threads = Threads();
  std::vector<double> restore_ms;
  std::optional<moche::stream::DriftMonitor> restored;
  for (int rep = 0; rep < kRestoreRepeats; ++rep) {
    restored.reset();
    const int64_t t0 = NowNs();
    auto back = moche::persist::RestoreMonitor(dir, restore_options);
    const int64_t t1 = NowNs();
    tracer->Add("persist.restore", rep, t0, t1);
    ++result->attempted;
    if (!back.ok()) {
      ++result->failed;
      result->Fail("RestoreMonitor: " + back.status().ToString());
      return;
    }
    restore_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    restored.emplace(std::move(*back));
  }
  auto restored_blobs =
      moche::persist::MonitorCodec::Serialize(*restored, checkpoint_options);
  if (!restored_blobs.ok() || !SameBlobs(*live_blobs, *restored_blobs)) {
    result->Fail("restored monitor does not re-serialize to the same bytes");
  }
  if (moche::persist::FormatEventLog(monitor->events()) !=
      moche::persist::FormatEventLog(restored->events())) {
    result->Fail("restored event log differs");
  }
  const moche::stream::DriftMonitor::Stats stats = monitor->stats();
  if (stats.explanations == 0) result->Fail("no stream ever fired");
  result->notes.emplace_back("batches", std::to_string(batches));
  result->notes.emplace_back("explanations",
                             std::to_string(stats.explanations));

  if (!tracer->enabled()) {
    AddEndToEnd(calls, setup_s, result);
    return;
  }

  // ---- Layer replay: the same inputs through each layer's public call.
  std::vector<moche::StreamingKs> detectors;
  for (size_t i = 0; i < kStreams; ++i) {
    auto detector =
        moche::StreamingKs::Create(fleet.reference(i), kWindow, kAlpha);
    if (!detector.ok()) {
      result->Fail("StreamingKs::Create: " + detector.status().ToString());
      return;
    }
    detectors.push_back(std::move(*detector));
  }
  const moche::Moche engine;
  std::vector<moche::PreparedReference> prepared;
  for (size_t r = 0; r < kReferences; ++r) {
    auto p = engine.Prepare(fleet.reference(r), kAlpha);
    if (!p.ok()) {
      result->Fail("Prepare: " + p.status().ToString());
      return;
    }
    prepared.push_back(std::move(*p));
  }
  moche::ExplainWorkspace workspace;
  moche::MocheReport report;
  moche::PreferenceList preference = moche::IdentityPreference(kWindow);
  std::sort(event_keys.begin(), event_keys.end(),
            [](const EventKey& x, const EventKey& y) {
              return x.tick != y.tick ? x.tick < y.tick : x.stream < y.stream;
            });
  // A detector's state is its window, so feeding each one the kWindow
  // observations before the replayed range reproduces the monitor's.
  const size_t first = batches > kReplayFirst + kReplayBatches ? kReplayFirst
                                                               : 0;
  const size_t last = std::min(batches, first + kReplayBatches);
  const uint64_t first_tick = first * kBatchTicks;
  for (size_t i = 0; i < kStreams; ++i) {
    for (uint64_t t = first_tick - std::min<uint64_t>(first_tick, kWindow);
         t < first_tick; ++t) {
      if (!detectors[i].Push(fleet.Observation(i, t)).ok()) {
        result->Fail("StreamingKs::Push failed");
      }
    }
  }
  size_t next_event = 0;
  while (next_event < event_keys.size() &&
         event_keys[next_event].tick <= first_tick) {
    ++next_event;
  }
  const int64_t replay_deadline =
      NowNs() + static_cast<int64_t>(config.seconds / 2 * 1e9);
  std::vector<double> stream_cost(kStreams);
  std::vector<double> event_explain_ms;
  std::vector<double> imbalance;
  double detect_ns = 0.0;
  double replay_cost_ms = 0.0;
  double replay_push_ms = 0.0;
  size_t replayed = 0;
  for (size_t rb = first; rb < last && NowNs() < replay_deadline;
       ++rb, ++replayed) {
    std::fill(stream_cost.begin(), stream_cost.end(), 0.0);
    const int64_t request = tracer->Begin("replay.batch", rb);
    for (size_t i = 0; i < kStreams; ++i) {
      const int64_t t0 = NowNs();
      for (size_t t = 0; t < kBatchTicks; ++t) {
        const moche::Status status =
            detectors[i].Push(fleet.Observation(i, rb * kBatchTicks + t));
        if (!status.ok()) {
          result->Fail("StreamingKs::Push: " + status.ToString());
        }
      }
      const int64_t t1 = NowNs();
      tracer->Add("ks.detect", rb, t0, t1, request);
      detect_ns += static_cast<double>(t1 - t0);
      stream_cost[i] += static_cast<double>(t1 - t0) * 1e-6;
    }
    bool fired = false;
    const uint64_t last_tick = (rb + 1) * kBatchTicks;
    for (; next_event < event_keys.size() &&
           event_keys[next_event].tick <= last_tick;
         ++next_event) {
      const EventKey& key = event_keys[next_event];
      const std::vector<double> window = fleet.Window(key.stream, key.tick);
      const int64_t t0 = NowNs();
      const moche::Status status = engine.ExplainPreparedInto(
          prepared[key.stream % kReferences], window, preference, &workspace,
          &report);
      const int64_t t1 = NowNs();
      tracer->Add("core.event_explain", rb, t0, t1, request);
      if (!status.ok() || ExplanationDigest(report) != key.digest) {
        result->Fail("replayed explanation differs from the monitor's");
      }
      const double ms = static_cast<double>(t1 - t0) * 1e-6;
      event_explain_ms.push_back(ms);
      stream_cost[key.stream] += ms;
      fired = true;
    }
    tracer->End(request);
    const double total = Sum(stream_cost);
    if (fired && total > 0.0) {
      const double max = *std::max_element(stream_cost.begin(),
                                           stream_cost.end());
      imbalance.push_back(max / (total / kStreams));
    }
    replay_cost_ms += total;
    replay_push_ms += calls.ms[rb];
  }

  // An empty fork/join over the fleet: the pool barrier alone.
  std::vector<double> fork_join_us;
  {
    moche::ThreadPool pool(Threads());
    const auto noop = [](size_t, size_t) {};
    for (int k = 0; k < kForkJoinCalls; ++k) {
      const int64_t t0 = NowNs();
      pool.ParallelForWorker(kStreams, noop);
      const int64_t t1 = NowNs();
      if (k >= kForkJoinCalls / 10) {  // the first tenth warms the pool
        fork_join_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      }
    }
  }

  std::vector<double> deserialize_ms;
  for (int rep = 0; rep < kRestoreRepeats; ++rep) {
    const int64_t span = tracer->Begin("persist.deserialize", rep);
    auto back =
        moche::persist::MonitorCodec::Deserialize(*live_blobs, restore_options);
    tracer->End(span);
    if (!back.ok()) result->Fail("Deserialize: " + back.status().ToString());
    deserialize_ms.push_back(tracer->DurationMs(span));
  }

  const double replayed_obs =
      static_cast<double>(replayed * kStreams * kBatchTicks);
  result->Add("ks.detect_us_per_obs",
              replayed_obs > 0.0 ? detect_ns * 1e-3 / replayed_obs : 0.0, "us",
              replayed);
  result->AddPercentile("core.event_explain_ms.p50",
                        NearestRank(event_explain_ms, 50), "ms");
  result->AddPercentile("core.event_explain_ms.p99",
                        TailPercentile(event_explain_ms), "ms");
  result->Add("stream.batch_imbalance", Median(imbalance), "ratio",
              imbalance.size());
  result->Add("stream.worker_busy_share",
              replay_push_ms > 0.0
                  ? replay_cost_ms / (static_cast<double>(Threads()) *
                                      replay_push_ms)
                  : 0.0,
              "share", replayed);
  result->Add("util.fork_join_us", Median(fork_join_us), "us",
              fork_join_us.size());
  result->Add("stream.drift_ticks", static_cast<double>(stats.drift_ticks),
              "count");
  result->Add("stream.explanations", static_cast<double>(stats.explanations),
              "count");
  const auto cache = monitor->cache_stats();
  result->Add("cache.hits", static_cast<double>(cache.hits), "count");
  result->Add("cache.entries", static_cast<double>(cache.entries), "count");
  const double serialize = Median(serialize_ms);
  const double checkpoint_p50 = NearestRank(checkpoint_ms, 50).value;
  result->Add("persist.serialize_ms", serialize, "ms", serialize_ms.size());
  result->Add("persist.io_ms", checkpoint_p50 - serialize, "ms",
              checkpoint_ms.size());
  result->Add("persist.deserialize_ms", Median(deserialize_ms), "ms",
              deserialize_ms.size());
  result->AddPercentile("persist.checkpoint_ms.p50",
                        NearestRank(checkpoint_ms, 50), "ms");
  result->Add("persist.restore_ms", Median(restore_ms), "ms",
              restore_ms.size());
  result->Add("persist.snapshot_bytes", Median(snapshot_bytes), "bytes",
              snapshot_bytes.size());
  AddTraceOverhead(traced_ms, untraced_ms, result);
}

}  // namespace perfbench
