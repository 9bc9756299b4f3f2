// The zero-allocation contract of the explain pipeline:
//  * a warmed-up Moche::ExplainPreparedInto call performs no heap
//    allocation when the caller recycles its workspace and report;
//  * a warmed-up Moche::EvaluateBatchPrepared or EvaluateBatchSketched
//    call performs none when the caller recycles its workspace and
//    output vector;
//  * a warmed-up sequential DriftMonitor::PushBatch that fires no drift
//    event performs no heap allocation at all;
//  * what an explanation against a prepared reference leaves in its
//    workspace grows with the window, not with the reference.
//
// testing_alloc.h defines the counting global operator new, so this file
// must be this binary's only TU including it.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/moche.h"
#include "sketch/kll_sketch.h"
#include "sketch/sketched_reference.h"
#include "stream/drift_monitor.h"
#include "testing_alloc.h"
#include "util/rng.h"

namespace moche {
namespace {

using testing_alloc::AllocationProbe;

std::vector<double> NormalSample(Rng* rng, size_t count, double mean,
                                 double sd) {
  std::vector<double> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(rng->Normal(mean, sd));
  return out;
}

TEST(WorkspaceAllocTest, WarmExplainPreparedIntoAllocatesNothing) {
  Rng rng(20260729);
  const std::vector<double> reference = NormalSample(&rng, 400, 0.0, 1.0);
  const Moche engine;
  auto prepared = engine.Prepare(reference, 0.05);
  ASSERT_TRUE(prepared.ok());

  // Failing windows (shifted distribution), all materialized before the
  // probed region so only the explain pipeline itself is measured.
  constexpr size_t kWindows = 6;
  constexpr size_t kWindowSize = 150;
  std::vector<std::vector<double>> windows;
  std::vector<PreferenceList> prefs;
  for (size_t w = 0; w < kWindows; ++w) {
    windows.push_back(NormalSample(&rng, kWindowSize, 1.2, 1.1));
    prefs.push_back(RandomPreference(kWindowSize, &rng));
  }
  // One window holds both signed zeros, so its re-check builds T \ I by
  // index mask and sort instead of by merge; that path must be warm too.
  windows.back()[0] = -0.0;
  windows.back()[1] = 0.0;

  ExplainWorkspace workspace;
  MocheReport report;
  size_t warm_failures = 0;
  for (size_t w = 0; w < kWindows; ++w) {
    const Status status = engine.ExplainPreparedInto(
        *prepared, windows[w], prefs[w], &workspace, &report);
    warm_failures += !status.ok();
  }
  ASSERT_EQ(warm_failures, 0u) << "warm-up pass must explain every window";

  // The workspace, report, and all internal buffers are warm: re-running
  // the same windows must not touch the heap.
  size_t failures = 0;
  AllocationProbe probe;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t w = 0; w < kWindows; ++w) {
      const Status status = engine.ExplainPreparedInto(
          *prepared, windows[w], prefs[w], &workspace, &report);
      failures += !status.ok();
    }
  }
  const size_t allocations = probe.Delta();
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocations, 0u)
      << "warmed-up ExplainPreparedInto must be allocation-free";
}

// Two flat SoA batches of the same shape: windows alternate between the
// reference's distribution and a shifted one, so both KS verdicts occur.
constexpr size_t kBatchWindows = 32;
constexpr size_t kBatchWidth = 200;

std::vector<double> FlatBatch(Rng* rng) {
  std::vector<double> data;
  data.reserve(kBatchWindows * kBatchWidth);
  for (size_t w = 0; w < kBatchWindows; ++w) {
    const double shift = w % 2 == 0 ? 0.0 : 0.8;
    for (size_t j = 0; j < kBatchWidth; ++j) {
      data.push_back(rng->Normal(shift, 1.0));
    }
  }
  return data;
}

WindowBatch View(const std::vector<double>& data) {
  return WindowBatch{data.data(), kBatchWindows, kBatchWidth};
}

// Warms `evaluate` on one batch, then requires re-running it on that batch
// and on a fresh batch of the same shape to allocate nothing.
template <typename Evaluate>
void ExpectWarmBatchAllocatesNothing(Rng* rng, const Evaluate& evaluate,
                                     const char* what) {
  const std::vector<double> warm_data = FlatBatch(rng);
  const std::vector<double> steady_data = FlatBatch(rng);
  ASSERT_TRUE(evaluate(View(warm_data)).ok());

  size_t failures = 0;
  AllocationProbe probe;
  for (const std::vector<double>* data : {&warm_data, &steady_data}) {
    failures += !evaluate(View(*data)).ok();
  }
  const size_t allocations = probe.Delta();
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocations, 0u)
      << "warmed-up " << what << " must be allocation-free";
}

TEST(WorkspaceAllocTest, WarmEvaluateBatchPreparedAllocatesNothing) {
  Rng rng(5150);
  const std::vector<double> reference = NormalSample(&rng, 4000, 0.0, 1.0);
  const Moche engine;
  auto prepared = engine.Prepare(reference, 0.05);
  ASSERT_TRUE(prepared.ok());

  ExplainWorkspace workspace;
  std::vector<KsOutcome> outcomes;
  ExpectWarmBatchAllocatesNothing(
      &rng,
      [&](const WindowBatch& batch) {
        return engine.EvaluateBatchPrepared(*prepared, batch, &workspace,
                                            &outcomes);
      },
      "EvaluateBatchPrepared");
  ASSERT_EQ(outcomes.size(), kBatchWindows);
  EXPECT_FALSE(outcomes[0].reject);
  EXPECT_TRUE(outcomes[1].reject);
}

TEST(WorkspaceAllocTest, WarmEvaluateBatchSketchedAllocatesNothing) {
  Rng rng(6160);
  const std::vector<double> reference = NormalSample(&rng, 4000, 0.0, 1.0);
  const Moche engine;
  // A coarse sketch, so the summary is much smaller than the reference.
  sketch::KllOptions kll_options;
  kll_options.capacity = 128;
  auto sketched =
      sketch::SketchedReference::FromSample(reference, 0.05, kll_options);
  ASSERT_TRUE(sketched.ok());

  ExplainWorkspace workspace;
  std::vector<sketch::SketchTriage> triages;
  ExpectWarmBatchAllocatesNothing(
      &rng,
      [&](const WindowBatch& batch) {
        return engine.EvaluateBatchSketched(*sketched, batch, &workspace,
                                            &triages);
      },
      "EvaluateBatchSketched");
  ASSERT_EQ(triages.size(), kBatchWindows);
  EXPECT_NE(triages[0].verdict, sketch::TriageVerdict::kCertainFail);
  EXPECT_EQ(triages[1].verdict, sketch::TriageVerdict::kCertainFail);
}

TEST(WorkspaceAllocTest, WarmFindExplanationSizeIntoAllocatesNothing) {
  Rng rng(987);
  const std::vector<double> reference = NormalSample(&rng, 300, 0.0, 1.0);
  const std::vector<double> test = NormalSample(&rng, 120, 1.5, 1.0);
  const Moche engine;
  auto prepared = engine.Prepare(reference, 0.05);
  ASSERT_TRUE(prepared.ok());

  ExplainWorkspace workspace;
  auto warm = engine.FindExplanationSizeInto(*prepared, test, &workspace);
  ASSERT_TRUE(warm.ok());

  size_t failures = 0;
  AllocationProbe probe;
  for (int i = 0; i < 5; ++i) {
    auto result = engine.FindExplanationSizeInto(*prepared, test, &workspace);
    failures += !result.ok() || result->k != warm->k;
  }
  const size_t allocations = probe.Delta();
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocations, 0u)
      << "warmed-up FindExplanationSizeInto must be allocation-free";
}

TEST(WorkspaceAllocTest, SteadyStatePushBatchAllocatesNothing) {
  // Both reference modes: kExact updates its detector trees in place,
  // kSketched keeps its sorted window within the capacity AddStream
  // reserved. The sketched leg's default sketch_k holds the whole
  // reference, so every verdict is certified and the leg exercises the
  // triage path alone.
  for (stream::ReferenceMode mode :
       {stream::ReferenceMode::kExact, stream::ReferenceMode::kSketched}) {
    const bool sketched = mode == stream::ReferenceMode::kSketched;
    SCOPED_TRACE(sketched ? "kSketched" : "kExact");
    Rng rng(4242);
    const size_t kStreams = 4;
    const size_t kWindow = 64;
    const std::vector<double> reference = NormalSample(&rng, 256, 0.0, 1.0);

    stream::MonitorOptions options;
    options.alpha = 0.01;  // quiet: in-distribution windows never reject
    options.num_threads = 1;
    options.reference_mode = mode;
    auto monitor = stream::DriftMonitor::Create(options);
    ASSERT_TRUE(monitor.ok());
    for (size_t i = 0; i < kStreams; ++i) {
      ASSERT_TRUE(
          monitor->AddStream("s" + std::to_string(i), reference, kWindow)
              .ok());
    }

    // In-distribution observation batches, all materialized up front.
    const size_t kWarmBatches = 24;  // fills every window, then some
    const size_t kSteadyBatches = 16;
    const size_t kBatchTicks = 8;
    std::vector<std::vector<std::vector<double>>> batches;
    for (size_t b = 0; b < kWarmBatches + kSteadyBatches; ++b) {
      std::vector<std::vector<double>> batch(kStreams);
      for (size_t s = 0; s < kStreams; ++s) {
        batch[s] = NormalSample(&rng, kBatchTicks, 0.0, 1.0);
      }
      batches.push_back(std::move(batch));
    }

    size_t warm_failures = 0;
    for (size_t b = 0; b < kWarmBatches; ++b) {
      warm_failures += !monitor->PushBatch(batches[b]).ok();
    }
    ASSERT_EQ(warm_failures, 0u);
    ASSERT_TRUE(monitor->events().empty())
        << "config must stay quiet for the steady-state claim to make sense";
    const uint64_t passes_before = monitor->stats().triage_certified_pass;

    size_t failures = 0;
    AllocationProbe probe;
    for (size_t b = kWarmBatches; b < kWarmBatches + kSteadyBatches; ++b) {
      failures += !monitor->PushBatch(batches[b]).ok();
    }
    const size_t allocations = probe.Delta();
    EXPECT_EQ(failures, 0u);
    EXPECT_EQ(allocations, 0u)
        << "warmed-up no-event PushBatch must be allocation-free";
    EXPECT_TRUE(monitor->events().empty());
    if (sketched) {
      // Every steady push triaged a full window and none fell back.
      const stream::DriftMonitor::Stats stats = monitor->stats();
      EXPECT_EQ(stats.triage_certified_pass - passes_before,
                kSteadyBatches * kStreams * kBatchTicks);
      EXPECT_EQ(stats.triage_fallbacks, 0u);
    }
  }
}

TEST(WorkspaceAllocTest, WorkspacePoolStatsReportCreationAndFootprint) {
  Rng rng(77);
  const size_t kWindow = 48;
  const std::vector<double> reference = NormalSample(&rng, 200, 0.0, 1.0);

  stream::MonitorOptions options;
  options.num_threads = 1;
  auto monitor = stream::DriftMonitor::Create(options);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE(monitor->AddStream("drifter", reference, kWindow).ok());

  // No explanation fired yet: the pool is empty.
  EXPECT_EQ(monitor->stats().workspaces_created, 0u);
  EXPECT_EQ(monitor->stats().workspace_bytes, 0u);

  // Drive the stream into obvious drift so an explanation fires.
  std::vector<std::vector<double>> batch(1);
  batch[0] = NormalSample(&rng, 4 * kWindow, 4.0, 0.5);
  ASSERT_TRUE(monitor->PushBatch(batch).ok());
  ASSERT_FALSE(monitor->events().empty());

  const stream::DriftMonitor::Stats stats = monitor->stats();
  EXPECT_EQ(stats.workspaces_created, 1u);  // one sequential worker
  EXPECT_GT(stats.workspace_bytes, 0u);
}

// Explaining a window of m points against a prepared reference of n keeps
// O(m) bytes in the workspace (the anchored frame, its engine and checker,
// the sorted window and T \ I), whatever n is. 512 bytes per window value
// is about twice what the buffers take; any O(n) buffer against the 2^16
// reference below would need 8 bytes per reference value, 2.5x the bound.
constexpr size_t kFootprintWindow = 200;
constexpr size_t kFootprintReference = size_t{1} << 16;

size_t WindowLinearBound(size_t m) { return 512 * m + 4096; }

TEST(WorkspaceAllocTest, ExplainFootprintIsLinearInTheWindowNotTheReference) {
  Rng rng(65536);
  const Moche engine;
  auto prepared = engine.Prepare(
      NormalSample(&rng, kFootprintReference, 0.0, 1.0), 0.05);
  ASSERT_TRUE(prepared.ok());
  ExplainWorkspace workspace;
  MocheReport report;
  for (int w = 0; w < 8; ++w) {
    const std::vector<double> window =
        NormalSample(&rng, kFootprintWindow, 0.4 + 0.1 * w, 1.1);
    ASSERT_TRUE(engine
                    .ExplainPreparedInto(*prepared, window,
                                         RandomPreference(window.size(), &rng),
                                         &workspace, &report)
                    .ok());
    EXPECT_GT(report.k, 0u);
  }
  // The exact KS fallback walks the same anchors and keeps no buffer.
  const std::vector<double> flat =
      NormalSample(&rng, 16 * kFootprintWindow, 0.2, 1.0);
  std::vector<KsOutcome> outcomes;
  ASSERT_TRUE(engine
                  .EvaluateBatchPrepared(
                      *prepared, WindowBatch{flat.data(), 16, kFootprintWindow},
                      &workspace, &outcomes)
                  .ok());
  EXPECT_LT(workspace.FootprintBytes(), WindowLinearBound(kFootprintWindow));
}

// The same bound through a sketched monitor: its one worker's scratch (the
// workspace plus the window and preference buffers) after explanations and
// exact fallbacks against a shared 2^16-point reference.
TEST(WorkspaceAllocTest, SketchedMonitorWorkspaceBytesIsLinearInTheWindow) {
  Rng rng(1 << 16);
  stream::MonitorOptions options;
  options.num_threads = 1;
  options.reference_mode = stream::ReferenceMode::kSketched;
  options.sketch_k = 64;  // a coarse summary, so some windows fall back
  auto monitor = stream::DriftMonitor::Create(options);
  ASSERT_TRUE(monitor.ok());
  const std::vector<double> reference =
      NormalSample(&rng, kFootprintReference, 0.0, 1.0);
  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE(monitor
                    ->AddStream("s" + std::to_string(s), reference,
                                kFootprintWindow)
                    .ok());
  }
  // In distribution, then a slow drift, then a jump: triage settles most
  // pushes, the band around the threshold falls back, the jump explains.
  std::vector<std::vector<double>> batch(2);
  for (double shift : {0.0, 0.1, 0.2, 0.3, 2.0}) {
    for (auto& values : batch) {
      values = NormalSample(&rng, kFootprintWindow, shift, 1.0);
    }
    ASSERT_TRUE(monitor->PushBatch(batch).ok());
  }
  const stream::DriftMonitor::Stats stats = monitor->stats();
  ASSERT_FALSE(monitor->events().empty());
  EXPECT_GT(stats.triage_fallbacks, 0u);
  EXPECT_EQ(stats.workspaces_created, 1u);
  EXPECT_LT(stats.workspace_bytes, WindowLinearBound(kFootprintWindow));
}

}  // namespace
}  // namespace moche
