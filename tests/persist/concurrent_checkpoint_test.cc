// Checkpointing concurrent with a live PushBatch driver: the race the
// monitor's state mutex exists to make safe, and the test the CI TSan leg
// runs to prove it. A checkpoint thread serializes continuously while the
// driver thread pushes batches (with the monitor's own worker pool adding
// more threads underneath); every blob captured must deserialize to a
// consistent batch-boundary state — a prefix of the final event log —
// because Serialize holds the state mutex for its whole read and PushBatch
// holds it for the whole batch, so a checkpoint observes pre- or
// post-batch state, never a torn one. A second case drains the event log
// with ClearEvents between batches, which takes the same mutex.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "persist/monitor_codec.h"
#include "stream/drift_monitor.h"
#include "timeseries/generators.h"

namespace moche {
namespace persist {
namespace {

constexpr size_t kBatchTicks = 16;

std::vector<ts::DriftScenario> Workload() {
  return ts::MakeDriftScenarioSuite(4, /*seed=*/20210817,
                                    /*reference_size=*/60, /*length=*/380);
}

stream::DriftMonitor MakeMonitor(const std::vector<ts::DriftScenario>& suite) {
  stream::MonitorOptions options;
  options.num_threads = 2;  // the monitor's own pool races too
  auto created = stream::DriftMonitor::Create(options);
  EXPECT_TRUE(created.ok());
  stream::DriftMonitor monitor = std::move(*created);
  for (const ts::DriftScenario& scenario : suite) {
    EXPECT_TRUE(
        monitor.AddStream(scenario.name, scenario.reference, 40).ok());
  }
  return monitor;
}

// Serializes a monitor in a loop on its own thread until Finish, then
// captures once more, so the capture list provably reaches the final state.
struct Checkpointer {
  std::atomic<bool> done{false};
  // Completed captures. Relaxed on purpose: a driver may wait on it, but
  // only the monitor's own mutex may order the two threads' accesses to
  // monitor state.
  std::atomic<size_t> rounds{0};
  std::vector<CheckpointBlobs> captured;
  std::thread thread;

  void Start(const stream::DriftMonitor& monitor) {
    thread = std::thread([this, &monitor] {
      bool final_round = false;
      while (!final_round) {
        final_round = done.load(std::memory_order_acquire);
        auto blobs = MonitorCodec::Serialize(monitor, CheckpointOptions{});
        EXPECT_TRUE(blobs.ok()) << blobs.status().ToString();
        if (blobs.ok()) captured.push_back(std::move(*blobs));
        rounds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  void Finish() {
    done.store(true, std::memory_order_release);
    thread.join();
  }
};

// Lockstep batch `t0 / kBatchTicks` of every scenario's observations.
void FillBatch(const std::vector<ts::DriftScenario>& suite, size_t t0,
               std::vector<std::vector<double>>* batch) {
  for (size_t i = 0; i < suite.size(); ++i) {
    const std::vector<double>& obs = suite[i].observations;
    const size_t begin = std::min(obs.size(), t0);
    const size_t end = std::min(obs.size(), begin + kBatchTicks);
    (*batch)[i].assign(obs.begin() + static_cast<long>(begin),
                       obs.begin() + static_cast<long>(end));
  }
}

size_t MaxTail(const std::vector<ts::DriftScenario>& suite) {
  size_t max_tail = 0;
  for (const ts::DriftScenario& s : suite) {
    max_tail = std::max(max_tail, s.observations.size());
  }
  return max_tail;
}

TEST(ConcurrentCheckpointTest, SerializeRacesPushBatchSafely) {
  const std::vector<ts::DriftScenario> suite = Workload();
  stream::DriftMonitor monitor = MakeMonitor(suite);
  const size_t max_tail = MaxTail(suite);

  Checkpointer checkpointer;
  checkpointer.Start(monitor);
  std::vector<std::vector<double>> batch(suite.size());
  for (size_t t0 = 0; t0 < max_tail; t0 += kBatchTicks) {
    FillBatch(suite, t0, &batch);
    ASSERT_TRUE(monitor.PushBatch(batch).ok());
  }
  checkpointer.Finish();
  const std::vector<CheckpointBlobs>& captured = checkpointer.captured;
  ASSERT_FALSE(captured.empty());

  // Every concurrent capture restores to a batch-boundary state whose
  // event log is a prefix of the final log.
  const std::vector<stream::DriftEvent>& final_events = monitor.events();
  for (size_t c = 0; c < captured.size(); ++c) {
    auto restored = MonitorCodec::Deserialize(captured[c], RestoreOptions{});
    ASSERT_TRUE(restored.ok())
        << "capture " << c << ": " << restored.status().ToString();
    const std::vector<stream::DriftEvent>& events = restored->events();
    ASSERT_LE(events.size(), final_events.size()) << "capture " << c;
    const std::vector<stream::DriftEvent> prefix(
        final_events.begin(),
        final_events.begin() + static_cast<long>(events.size()));
    EXPECT_TRUE(stream::SameEventLogs(prefix, events)) << "capture " << c;
    // Batch-boundary states only: a multiple of the batch size, or the
    // exhausted tail (the last batch is partial when the observation
    // length is not a multiple of kBatchTicks).
    EXPECT_TRUE(restored->stream_ticks(0) % kBatchTicks == 0 ||
                restored->stream_ticks(0) == monitor.stream_ticks(0))
        << "capture " << c << " is mid-batch at tick "
        << restored->stream_ticks(0);
  }
  // The captures must include the final state (the checkpointer kept
  // running after the last batch), closing the loop on progress.
  auto last =
      MonitorCodec::Deserialize(captured.back(), RestoreOptions{});
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(stream::SameEventLogs(final_events, last->events()));
}

TEST(ConcurrentCheckpointTest, SerializeRacesClearEventsSafely) {
  // A long-running driver drains the log after every batch. ClearEvents
  // takes the state mutex, so each capture holds either one batch's
  // events or an empty log, never a half-cleared one.
  const std::vector<ts::DriftScenario> suite = Workload();
  stream::DriftMonitor monitor = MakeMonitor(suite);
  const size_t max_tail = MaxTail(suite);

  Checkpointer checkpointer;
  checkpointer.Start(monitor);
  // batch_logs[b] is the log right after batch b, before its clear.
  std::vector<std::vector<stream::DriftEvent>> batch_logs;
  std::vector<std::vector<double>> batch(suite.size());
  for (size_t t0 = 0; t0 < max_tail; t0 += kBatchTicks) {
    FillBatch(suite, t0, &batch);
    ASSERT_TRUE(monitor.PushBatch(batch).ok());
    batch_logs.push_back(monitor.events());
    // Let at least one capture begin after this batch before the clear, so
    // every clear follows a live Serialize of the log it drains.
    const size_t seen = checkpointer.rounds.load(std::memory_order_relaxed);
    while (checkpointer.rounds.load(std::memory_order_relaxed) < seen + 2) {
      std::this_thread::yield();
    }
    monitor.ClearEvents();
  }
  checkpointer.Finish();
  const std::vector<CheckpointBlobs>& captured = checkpointer.captured;
  ASSERT_FALSE(captured.empty());
  EXPECT_TRUE(monitor.events().empty());

  uint64_t total_events = 0;
  for (const std::vector<stream::DriftEvent>& log : batch_logs) {
    total_events += log.size();
  }
  ASSERT_GT(total_events, 0u);  // the drain must have had work to race
  EXPECT_EQ(monitor.stats().explanations, total_events);

  for (size_t c = 0; c < captured.size(); ++c) {
    auto restored = MonitorCodec::Deserialize(captured[c], RestoreOptions{});
    ASSERT_TRUE(restored.ok())
        << "capture " << c << ": " << restored.status().ToString();
    const uint64_t ticks = restored->stream_ticks(0);
    const std::vector<stream::DriftEvent>& events = restored->events();
    if (ticks == 0) {
      EXPECT_TRUE(events.empty()) << "capture " << c;
      continue;
    }
    // The batch that brought stream 0 to `ticks` (the last one may be
    // partial).
    const size_t b = static_cast<size_t>((ticks - 1) / kBatchTicks);
    ASSERT_LT(b, batch_logs.size()) << "capture " << c;
    EXPECT_TRUE(events.empty() || stream::SameEventLogs(batch_logs[b], events))
        << "capture " << c << " at tick " << ticks;
    // Explanations count across clears.
    uint64_t explained = 0;
    for (size_t i = 0; i <= b; ++i) explained += batch_logs[i].size();
    EXPECT_EQ(restored->stats().explanations, explained) << "capture " << c;
  }
}

}  // namespace
}  // namespace persist
}  // namespace moche
