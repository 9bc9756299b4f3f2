// The crash-recovery gate: a monitor checkpointed mid-deployment, its
// process SIGKILLed mid-batch, must restore and resume to an event log
// BYTE-identical (FormatEventLog) to a run that never crashed.
//
// The kill test forks a child that replays a MakeDriftScenarioSuite
// workload, checkpoints after K batches, signals the parent over a pipe,
// and keeps pushing batches until the parent's SIGKILL lands — by design
// mid-PushBatch, with no chance to flush or destructors to run. The
// parent restores from the committed checkpoint, feeds the remaining
// batches, and diffs the rendered event log against an uninterrupted
// reference run.
//
// fork() is deliberate and safe here: the child never returns into gtest
// (it either loops until killed or _exits), and the test binary is
// excluded from the TSan leg (fork + threads don't mix; the concurrent-
// checkpoint coverage lives in concurrent_checkpoint_test.cc).

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/monitor_codec.h"
#include "stream/drift_monitor.h"
#include "timeseries/generators.h"

namespace moche {
namespace persist {
namespace {

constexpr size_t kStreams = 5;
constexpr size_t kReferenceSize = 60;
constexpr size_t kLength = 260;
constexpr size_t kWindow = 40;
constexpr size_t kBatchTicks = 25;
constexpr size_t kCheckpointAfterBatches = 4;

std::vector<ts::DriftScenario> Workload() {
  return ts::MakeDriftScenarioSuite(kStreams, /*seed=*/20210817,
                                    kReferenceSize, kLength);
}

stream::DriftMonitor MakeMonitor(
    const std::vector<ts::DriftScenario>& suite,
    stream::MonitorOptions options = stream::MonitorOptions{}) {
  auto monitor = stream::DriftMonitor::Create(options);
  EXPECT_TRUE(monitor.ok());
  for (const ts::DriftScenario& scenario : suite) {
    EXPECT_TRUE(
        monitor->AddStream(scenario.name, scenario.reference, kWindow).ok());
  }
  return std::move(*monitor);
}

/// The lockstep batch at tail offset `t0` — identical slicing in the
/// reference run, the child, and the resumed parent.
std::vector<std::vector<double>> BatchAt(
    const std::vector<ts::DriftScenario>& suite, size_t t0) {
  std::vector<std::vector<double>> batch(suite.size());
  for (size_t i = 0; i < suite.size(); ++i) {
    const std::vector<double>& obs = suite[i].observations;
    const size_t begin = std::min(obs.size(), t0);
    const size_t end = std::min(obs.size(), begin + kBatchTicks);
    batch[i].assign(obs.begin() + static_cast<long>(begin),
                    obs.begin() + static_cast<long>(end));
  }
  return batch;
}

size_t MaxTail(const std::vector<ts::DriftScenario>& suite) {
  size_t max_tail = 0;
  for (const ts::DriftScenario& s : suite) {
    max_tail = std::max(max_tail, s.observations.size());
  }
  return max_tail;
}

/// The child's half of the kill test. Never returns: loops feeding batches
/// until SIGKILL arrives (or _exits non-zero on any internal failure,
/// which the parent's waitpid check converts into a test failure).
[[noreturn]] void RunChildUntilKilled(const std::string& dir, int ready_fd,
                                      const stream::MonitorOptions& options) {
  const std::vector<ts::DriftScenario> suite = Workload();
  stream::DriftMonitor monitor = MakeMonitor(suite, options);
  size_t t0 = 0;
  for (size_t batch = 0; batch < kCheckpointAfterBatches;
       ++batch, t0 += kBatchTicks) {
    if (!monitor.PushBatch(BatchAt(suite, t0)).ok()) _exit(2);
  }
  if (!CheckpointMonitor(monitor, dir).ok()) _exit(3);
  // Tell the parent the checkpoint is committed, then keep working so the
  // SIGKILL lands mid-batch: once the real observations run out, recycle
  // the last window of data forever (the state past the checkpoint is
  // about to be destroyed anyway — that is the point).
  const char byte = '!';
  if (write(ready_fd, &byte, 1) != 1) _exit(4);
  const size_t max_tail = MaxTail(suite);
  for (;;) {
    if (!monitor.PushBatch(BatchAt(suite, t0)).ok()) _exit(5);
    if (t0 + kBatchTicks < max_tail) t0 += kBatchTicks;
  }
}

/// The full kill-recover-diff cycle for one monitor configuration. Both
/// reference modes must honor the same guarantee: what the committed
/// checkpoint captured, plus the remaining batches, reproduces the
/// uninterrupted event log byte for byte.
void RunSigkillRecoveryScenario(const stream::MonitorOptions& options,
                                const std::string& dir) {
  const std::vector<ts::DriftScenario> suite = Workload();
  const size_t max_tail = MaxTail(suite);

  // The uninterrupted reference run.
  stream::DriftMonitor reference = MakeMonitor(suite, options);
  for (size_t t0 = 0; t0 < max_tail; t0 += kBatchTicks) {
    ASSERT_TRUE(reference.PushBatch(BatchAt(suite, t0)).ok());
  }
  const std::string reference_log = FormatEventLog(reference.events());
  ASSERT_FALSE(reference.events().empty())
      << "workload produced no events; the recovery check would be vacuous";

  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(pipe_fds[0]);
    RunChildUntilKilled(dir, pipe_fds[1], options);  // never returns
  }
  close(pipe_fds[1]);

  // Wait for "checkpoint committed", then kill without warning: SIGKILL
  // cannot be caught, so no destructor, flush, or atexit runs in the
  // child — the checkpoint directory is all that survives.
  char byte = 0;
  ASSERT_EQ(read(pipe_fds[0], &byte, 1), 1) << "child died before committing";
  close(pipe_fds[0]);
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child exited with status " << status << " instead of dying by "
      << "SIGKILL — its setup failed before the kill landed";

  // Restore and resume from the batch boundary the checkpoint captured.
  auto restored = RestoreMonitor(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->options().reference_mode, options.reference_mode);
  ASSERT_EQ(restored->stream_ticks(0),
            kCheckpointAfterBatches * kBatchTicks);
  for (size_t t0 = kCheckpointAfterBatches * kBatchTicks; t0 < max_tail;
       t0 += kBatchTicks) {
    ASSERT_TRUE(restored->PushBatch(BatchAt(suite, t0)).ok());
  }
  EXPECT_EQ(FormatEventLog(restored->events()), reference_log);
  EXPECT_TRUE(stream::SameEventLogs(reference.events(), restored->events()));
}

TEST(CrashRecoveryTest, SigkilledRunResumesToAByteIdenticalEventLog) {
  RunSigkillRecoveryScenario(stream::MonitorOptions{},
                             ::testing::TempDir() + "crash_recovery_ckpt");
}

TEST(CrashRecoveryTest, SigkilledSketchedFleetResumesIdentically) {
  // The sketched fleet persists bare ring windows + KLL summaries instead
  // of detector state; the recovery guarantee is the same.
  stream::MonitorOptions options;
  options.reference_mode = stream::ReferenceMode::kSketched;
  options.sketch_k = 128;
  RunSigkillRecoveryScenario(
      options, ::testing::TempDir() + "crash_recovery_sketched_ckpt");
}

}  // namespace
}  // namespace persist
}  // namespace moche
