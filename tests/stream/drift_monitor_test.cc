#include "stream/drift_monitor.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/moche.h"
#include "ks/ks_test.h"
#include "persist/monitor_codec.h"
#include "sketch/sketched_reference.h"
#include "timeseries/generators.h"
#include "util/rng.h"

namespace moche {
namespace stream {
namespace {

constexpr uint64_t kSeed = 20210416;

// A monitor with `count` scenario streams already registered and the
// scenarios to replay through it.
struct Fixture {
  DriftMonitor monitor;
  std::vector<ts::DriftScenario> scenarios;
};

Fixture MakeFixture(const MonitorOptions& options, size_t count,
                    size_t window = 60, size_t reference = 300,
                    size_t length = 400) {
  auto monitor = DriftMonitor::Create(options);
  EXPECT_TRUE(monitor.ok());
  Fixture f{std::move(monitor).value(),
            ts::MakeDriftScenarioSuite(count, kSeed, reference, length)};
  for (const ts::DriftScenario& sc : f.scenarios) {
    auto index = f.monitor.AddStream(sc.name, sc.reference, window);
    EXPECT_TRUE(index.ok());
  }
  return f;
}

const char* ModeName(ReferenceMode mode) {
  return mode == ReferenceMode::kExact ? "kExact" : "kSketched";
}

// `options` in the given reference mode. The sketch is coarse enough (64
// items over 300-point references) that triage sees uncertain windows and
// takes the exact fallback, not only certified verdicts.
MonitorOptions WithMode(MonitorOptions options, ReferenceMode mode) {
  options.reference_mode = mode;
  options.sketch_k = 64;
  return options;
}

// Replays all scenario observations in lockstep batches of `chunk` ticks.
void Replay(Fixture* f, size_t chunk) {
  size_t longest = 0;
  for (const auto& sc : f->scenarios) {
    longest = std::max(longest, sc.observations.size());
  }
  for (size_t t0 = 0; t0 < longest; t0 += chunk) {
    std::vector<std::vector<double>> batch(f->scenarios.size());
    for (size_t i = 0; i < f->scenarios.size(); ++i) {
      const auto& obs = f->scenarios[i].observations;
      const size_t begin = std::min(obs.size(), t0);
      const size_t end = std::min(obs.size(), t0 + chunk);
      batch[i].assign(obs.begin() + static_cast<long>(begin),
                      obs.begin() + static_cast<long>(end));
    }
    ASSERT_TRUE(f->monitor.PushBatch(batch).ok());
  }
}

TEST(DriftMonitorTest, CreateValidatesOptions) {
  MonitorOptions bad_alpha;
  bad_alpha.alpha = 0.0;
  EXPECT_FALSE(DriftMonitor::Create(bad_alpha).ok());

  MonitorOptions missing_k;
  missing_k.rearm = RearmPolicy::kEveryKPushes;
  EXPECT_FALSE(DriftMonitor::Create(missing_k).ok());

  missing_k.explain_every_k = 10;
  EXPECT_TRUE(DriftMonitor::Create(missing_k).ok());
}

TEST(DriftMonitorTest, AddStreamValidatesInputs) {
  for (const ReferenceMode mode :
       {ReferenceMode::kExact, ReferenceMode::kSketched}) {
    SCOPED_TRACE(ModeName(mode));
    auto monitor = DriftMonitor::Create(WithMode(MonitorOptions{}, mode));
    ASSERT_TRUE(monitor.ok());
    EXPECT_FALSE(monitor->AddStream("empty", {}, 10).ok());
    EXPECT_FALSE(monitor->AddStream("nan", {1.0, NAN}, 10).ok());
    EXPECT_FALSE(monitor->AddStream("zero-window", {1.0, 2.0}, 0).ok());
    EXPECT_EQ(monitor->num_streams(), 0u);
    // A rejected stream interns nothing: no entry is left behind and no
    // lookup is counted.
    const auto cache = monitor->cache_stats();
    EXPECT_EQ(cache.entries, 0u);
    EXPECT_EQ(cache.misses, 0u);
    EXPECT_EQ(cache.hits, 0u);

    auto index = monitor->AddStream("ok", {1.0, 2.0, 3.0}, 2);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(*index, 0u);
    EXPECT_EQ(monitor->stream_name(0), "ok");
  }
}

TEST(DriftMonitorTest, PushBatchValidatesShapeAndValues) {
  auto monitor = DriftMonitor::Create(MonitorOptions{});
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE(monitor->AddStream("s0", {1.0, 2.0, 3.0}, 2).ok());

  EXPECT_FALSE(monitor->PushBatch({}).ok());          // 0 slots, 1 stream
  EXPECT_FALSE(monitor->PushBatch({{1.0}, {2.0}}).ok());
  EXPECT_FALSE(monitor->PushBatch({{1.0, NAN}}).ok());
  // The rejected batch advanced nothing.
  EXPECT_EQ(monitor->stream_ticks(0), 0u);
  EXPECT_TRUE(monitor->PushBatch({{1.0, 2.0}}).ok());
  EXPECT_EQ(monitor->stream_ticks(0), 2u);
}

TEST(DriftMonitorTest, DetectsAndExplainsInjectedDrift) {
  const size_t window = 60;
  // alpha = 0.01 keeps the deterministic pre-drift stretch free of false
  // alarms, so the first event is the injected drift itself.
  MonitorOptions options;
  options.alpha = 0.01;
  Fixture f = MakeFixture(options, 1, window);
  const ts::DriftScenario& sc = f.scenarios.front();
  ASSERT_EQ(sc.kind, ts::DriftKind::kMeanShift);
  Replay(&f, 32);

  ASSERT_FALSE(f.monitor.events().empty());
  const DriftEvent& event = f.monitor.events().front();
  EXPECT_EQ(event.stream, 0u);
  // The alarm needs drifted observations in the window, and must fire
  // before the window is entirely post-drift for a shift this large.
  EXPECT_GT(event.tick, sc.drift_begin);
  EXPECT_LE(event.tick, sc.drift_begin + window);
  EXPECT_TRUE(event.outcome.reject);

  ASSERT_TRUE(event.explain_status.ok());
  EXPECT_GT(event.report.k, 0u);
  EXPECT_EQ(event.report.explanation.indices.size(), event.report.k);
  for (size_t idx : event.report.explanation.indices) {
    EXPECT_LT(idx, window);
  }
  // The counterfactual holds: removing the explanation passes the test.
  EXPECT_FALSE(event.report.after.reject);
}

// The excursion and re-arm tests run in both reference modes: the re-arm
// state machine must behave the same whichever step judged the window.

TEST(DriftMonitorTest, OncePerExcursionEmitsOneEventForPersistentDrift) {
  // Mean shift never reverts: one excursion, hence exactly one event even
  // though hundreds of pushes reject (alpha = 0.01 keeps the deterministic
  // pre-drift stretch alarm-free).
  for (const ReferenceMode mode :
       {ReferenceMode::kExact, ReferenceMode::kSketched}) {
    SCOPED_TRACE(ModeName(mode));
    MonitorOptions options;
    options.alpha = 0.01;
    Fixture f = MakeFixture(WithMode(options, mode), 1);
    Replay(&f, 50);

    EXPECT_EQ(f.monitor.events().size(), 1u);
    const auto stats = f.monitor.stats();
    EXPECT_GT(stats.drift_ticks, f.monitor.events().size());
    EXPECT_EQ(stats.explanations, 1u);
    EXPECT_TRUE(f.monitor.stream_in_excursion(0));
  }
}

TEST(DriftMonitorTest, TransientDriftReArmsAfterRecovery) {
  // The spike reverts; once the window flushes the detector passes again
  // and the stream re-arms.
  const size_t window = 60;
  for (const ReferenceMode mode :
       {ReferenceMode::kExact, ReferenceMode::kSketched}) {
    SCOPED_TRACE(ModeName(mode));
    Fixture f = MakeFixture(WithMode(MonitorOptions{}, mode), 3, window);
    ASSERT_EQ(f.scenarios[2].kind, ts::DriftKind::kTransientSpike);
    Replay(&f, 32);

    bool spike_fired = false;
    for (const DriftEvent& event : f.monitor.events()) {
      if (event.stream == 2) spike_fired = true;
    }
    EXPECT_TRUE(spike_fired);
    EXPECT_FALSE(f.monitor.stream_in_excursion(2));  // recovered, re-armed
    EXPECT_TRUE(f.monitor.stream_in_excursion(0));   // mean shift persists
    if (mode == ReferenceMode::kSketched) {
      // Both sketched verdict paths ran: certified fails and exact
      // fallbacks.
      const auto stats = f.monitor.stats();
      EXPECT_GT(stats.triage_certified_fail, 0u);
      EXPECT_GT(stats.triage_fallbacks, 0u);
    }
  }
}

TEST(DriftMonitorTest, EveryKPushesRefreshesDuringExcursion) {
  for (const ReferenceMode mode :
       {ReferenceMode::kExact, ReferenceMode::kSketched}) {
    SCOPED_TRACE(ModeName(mode));
    MonitorOptions every_k;
    every_k.rearm = RearmPolicy::kEveryKPushes;
    every_k.explain_every_k = 20;
    Fixture f = MakeFixture(WithMode(every_k, mode), 1);
    Replay(&f, 50);

    const auto& events = f.monitor.events();
    ASSERT_GT(events.size(), 1u);  // refreshed at least once
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].tick - events[i - 1].tick,
                every_k.explain_every_k);
    }
  }
}

TEST(DriftMonitorTest, StreamsSharingAReferencePrepareOnce) {
  auto monitor = DriftMonitor::Create(MonitorOptions{});
  ASSERT_TRUE(monitor.ok());
  const ts::DriftScenario sc = ts::MakeDriftScenario(
      ts::DriftKind::kMeanShift, kSeed, /*reference_size=*/300,
      /*length=*/10);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(monitor->AddStream("s", sc.reference, 30).ok());
  }
  const auto cache = monitor->cache_stats();
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 63u);
}

TEST(DriftMonitorTest, ParallelEventLogBitIdenticalToSequential) {
  MonitorOptions sequential;
  sequential.rearm = RearmPolicy::kEveryKPushes;
  sequential.explain_every_k = 15;
  sequential.num_threads = 1;
  MonitorOptions parallel = sequential;
  parallel.num_threads = 4;

  Fixture a = MakeFixture(sequential, 9);
  Fixture b = MakeFixture(parallel, 9);
  Replay(&a, 40);
  Replay(&b, 40);

  ASSERT_FALSE(a.monitor.events().empty());
  EXPECT_TRUE(SameEventLogs(a.monitor.events(), b.monitor.events()));

  // Batch granularity must not matter either.
  Fixture c = MakeFixture(parallel, 9);
  Replay(&c, 7);
  EXPECT_TRUE(SameEventLogs(a.monitor.events(), c.monitor.events()));
}

// The from-scratch event oracle. Every event must be what a one-shot
// Moche::Explain gives on its stream's last w observations at event.tick,
// under the monitor's preference: the same status and, when explained, the
// same k, k̂ and indices. A sketched event's outcome must also equal ks::Run
// on that window bit for bit (the kExact detector's integer scores may
// differ within ~1e-9, see the drift_monitor.h header). Stream s has
// window windows[s] and was fed f.scenarios[s] in full.
void ExpectEventsMatchOracle(const Fixture& f,
                             const std::vector<size_t>& windows) {
  const MonitorOptions& options = f.monitor.options();
  const Moche engine(options.moche);
  for (const DriftEvent& event : f.monitor.events()) {
    SCOPED_TRACE(testing::Message() << "stream " << event.stream << " tick "
                                    << event.tick);
    const size_t w = windows[event.stream];
    const std::vector<double>& reference = f.scenarios[event.stream].reference;
    const std::vector<double>& obs = f.scenarios[event.stream].observations;
    ASSERT_GE(event.tick, w);
    ASSERT_LE(event.tick, obs.size());
    const std::vector<double> window(
        obs.begin() + static_cast<long>(event.tick - w),
        obs.begin() + static_cast<long>(event.tick));
    PreferenceList pref = IdentityPreference(w);
    if (options.preference == WindowPreference::kNewestFirst) {
      std::reverse(pref.begin(), pref.end());
    }
    const Result<MocheReport> want =
        engine.Explain(reference, window, options.alpha, pref);
    ASSERT_EQ(event.explain_status.code(), want.status().code());
    if (want.ok()) {
      EXPECT_EQ(event.report.k, want->k);
      EXPECT_EQ(event.report.k_hat, want->k_hat);
      EXPECT_EQ(event.report.explanation.indices, want->explanation.indices);
    }
    if (options.reference_mode == ReferenceMode::kSketched) {
      const Result<KsOutcome> run = ks::Run(reference, window, options.alpha);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(event.outcome.statistic, run->statistic);
      EXPECT_EQ(event.outcome.threshold, run->threshold);
      EXPECT_EQ(event.outcome.reject, run->reject);
    }
  }
}

TEST(DriftMonitorTest, EventsMatchFromScratchOracle) {
  // Two window sizes, both preferences, both reference modes, and
  // kEveryKPushes so every excursion reports more than once.
  const std::vector<size_t> windows = {60, 35, 60, 35};
  for (const ReferenceMode mode :
       {ReferenceMode::kExact, ReferenceMode::kSketched}) {
    for (const WindowPreference preference :
         {WindowPreference::kOldestFirst, WindowPreference::kNewestFirst}) {
      SCOPED_TRACE(testing::Message()
                   << ModeName(mode) << " newest-first "
                   << (preference == WindowPreference::kNewestFirst));
      MonitorOptions options;
      options.rearm = RearmPolicy::kEveryKPushes;
      options.explain_every_k = 25;
      options.preference = preference;
      options.num_threads = 2;
      auto monitor = DriftMonitor::Create(WithMode(options, mode));
      ASSERT_TRUE(monitor.ok());
      Fixture f{std::move(monitor).value(),
                ts::MakeDriftScenarioSuite(windows.size(), kSeed, 300, 400)};
      for (size_t s = 0; s < windows.size(); ++s) {
        ASSERT_TRUE(f.monitor
                        .AddStream(f.scenarios[s].name,
                                   f.scenarios[s].reference, windows[s])
                        .ok());
      }
      Replay(&f, 13);

      // Enough events that the oracle is not vacuous.
      ASSERT_GE(f.monitor.events().size(), 8u);
      ExpectEventsMatchOracle(f, windows);
    }
  }
}

TEST(SketchedMonitorTest, CreateValidatesSketchK) {
  MonitorOptions options;
  options.reference_mode = ReferenceMode::kSketched;
  options.sketch_k = 4;  // below sketch::KllSketch::kMinCapacity
  EXPECT_FALSE(DriftMonitor::Create(options).ok());
  options.sketch_k = (size_t{1} << 21);  // above kMaxCapacity
  EXPECT_FALSE(DriftMonitor::Create(options).ok());
  options.sketch_k = 128;
  EXPECT_TRUE(DriftMonitor::Create(options).ok());
  // An exact-mode monitor never reads sketch_k; a nonsense value is inert.
  options.reference_mode = ReferenceMode::kExact;
  options.sketch_k = 4;
  EXPECT_TRUE(DriftMonitor::Create(options).ok());
}

TEST(SketchedMonitorTest, DetectsAndExplainsInjectedDrift) {
  const size_t window = 60;
  MonitorOptions options;
  options.alpha = 0.01;
  options.reference_mode = ReferenceMode::kSketched;
  options.sketch_k = 128;
  Fixture f = MakeFixture(options, 1, window);
  const ts::DriftScenario& sc = f.scenarios.front();
  ASSERT_EQ(sc.kind, ts::DriftKind::kMeanShift);
  Replay(&f, 32);

  // Same scenario-level contract as the exact-mode monitor: the injected
  // mean shift fires one event inside the transition window, and the
  // counterfactual explanation holds.
  ASSERT_FALSE(f.monitor.events().empty());
  const DriftEvent& event = f.monitor.events().front();
  EXPECT_EQ(event.stream, 0u);
  EXPECT_GT(event.tick, sc.drift_begin);
  EXPECT_LE(event.tick, sc.drift_begin + window);
  EXPECT_TRUE(event.outcome.reject);
  ASSERT_TRUE(event.explain_status.ok());
  EXPECT_GT(event.report.k, 0u);
  EXPECT_FALSE(event.report.after.reject);

  // Every full window went through the triage exactly once, and the
  // healthy pre-drift stretch produced certified passes (the cheap path).
  const auto stats = f.monitor.stats();
  const uint64_t full_windows =
      f.monitor.stream_ticks(0) - window + 1;
  EXPECT_EQ(stats.triage_certified_pass + stats.triage_certified_fail +
                stats.triage_fallbacks,
            full_windows);
  EXPECT_GT(stats.triage_certified_pass, 0u);
  EXPECT_GT(stats.triage_certified_fail, 0u);
}

TEST(SketchedMonitorTest, SortedWindowTriageMatchesTriageSketchedInto) {
  // Tied data with signed zeros: every evicted value has equal twins in
  // the window (often of the other sign), which is where an incrementally
  // sorted window could drop the wrong copy. After each tick the tally
  // increments must be exactly the verdicts Moche::TriageSketchedInto gives
  // on the known arrival-order windows; a checkpoint taken mid-excursion
  // and restored must then continue identically.
  const double alpha = 0.05;
  const size_t window = 40;
  const size_t kStreams = 2;
  const size_t kTicks = 240;
  const size_t kCheckpointTick = 130;
  const double calm[] = {-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 3.0};
  const double drift[] = {1.5, 3.0, 3.0, 5.0};
  Rng rng(kSeed);
  std::vector<double> reference;
  for (int i = 0; i < 400; ++i) reference.push_back(calm[rng.Integer(0, 7)]);
  // Stream s drifts on [100 + 20 s, 160 + 20 s).
  std::vector<std::vector<double>> ticks(kTicks,
                                         std::vector<double>(kStreams));
  for (size_t t = 0; t < kTicks; ++t) {
    for (size_t st = 0; st < kStreams; ++st) {
      const bool drifting = t >= 100 + 20 * st && t < 160 + 20 * st;
      ticks[t][st] = drifting ? drift[rng.Integer(0, 3)]
                              : calm[rng.Integer(0, 7)];
    }
  }

  MonitorOptions options;
  options.alpha = alpha;
  options.reference_mode = ReferenceMode::kSketched;
  options.sketch_k = 64;
  sketch::KllOptions kll;
  kll.capacity = options.sketch_k;
  auto oracle_sketch = sketch::SketchedReference::FromSample(reference, alpha,
                                                             kll);
  ASSERT_TRUE(oracle_sketch.ok());
  const Moche engine;
  ExplainWorkspace workspace;

  // Pushes ticks [from, to) into `monitor`, checking the tally increments
  // against the oracle verdicts on the shadow windows.
  const auto feed = [&](DriftMonitor* monitor,
                        std::vector<std::vector<double>>* shadow,
                        size_t from, size_t to) {
    for (size_t t = from; t < to; ++t) {
      const DriftMonitor::Stats before = monitor->stats();
      std::vector<std::vector<double>> batch(kStreams);
      for (size_t st = 0; st < kStreams; ++st) batch[st] = {ticks[t][st]};
      ASSERT_TRUE(monitor->PushBatch(batch).ok());
      uint64_t want[3] = {0, 0, 0};  // certified pass, certified fail, other
      for (size_t st = 0; st < kStreams; ++st) {
        std::vector<double>& w = (*shadow)[st];
        w.push_back(ticks[t][st]);
        if (w.size() > window) w.erase(w.begin());
        if (w.size() < window) continue;
        sketch::SketchTriage triage;
        ASSERT_TRUE(
            engine.TriageSketchedInto(*oracle_sketch, w, &workspace, &triage)
                .ok());
        ++want[static_cast<int>(triage.verdict)];
      }
      const DriftMonitor::Stats after = monitor->stats();
      ASSERT_EQ(after.triage_certified_fail - before.triage_certified_fail,
                want[static_cast<int>(sketch::TriageVerdict::kCertainFail)])
          << "tick " << t;
      ASSERT_EQ(after.triage_certified_pass - before.triage_certified_pass,
                want[static_cast<int>(sketch::TriageVerdict::kCertainPass)])
          << "tick " << t;
      ASSERT_EQ(after.triage_fallbacks - before.triage_fallbacks,
                want[static_cast<int>(sketch::TriageVerdict::kUncertain)])
          << "tick " << t;
    }
  };
  const auto add_streams = [&](DriftMonitor* monitor) {
    for (size_t st = 0; st < kStreams; ++st) {
      ASSERT_TRUE(
          monitor->AddStream("s" + std::to_string(st), reference, window)
              .ok());
    }
  };

  auto whole = DriftMonitor::Create(options);
  ASSERT_TRUE(whole.ok());
  add_streams(&*whole);
  std::vector<std::vector<double>> whole_shadow(kStreams);
  feed(&*whole, &whole_shadow, 0, kTicks);
  const DriftMonitor::Stats whole_stats = whole->stats();
  // The data must reach every verdict and fire events, or the parity above
  // proves little.
  EXPECT_GT(whole_stats.triage_certified_pass, 0u);
  EXPECT_GT(whole_stats.triage_certified_fail, 0u);
  EXPECT_GT(whole_stats.triage_fallbacks, 0u);
  EXPECT_GE(whole->events().size(), kStreams);

  auto first = DriftMonitor::Create(options);
  ASSERT_TRUE(first.ok());
  add_streams(&*first);
  std::vector<std::vector<double>> shadow(kStreams);
  feed(&*first, &shadow, 0, kCheckpointTick);
  ASSERT_TRUE(first->stream_in_excursion(0));
  auto blobs = persist::MonitorCodec::Serialize(*first,
                                                persist::CheckpointOptions{});
  ASSERT_TRUE(blobs.ok()) << blobs.status().ToString();
  auto resumed =
      persist::MonitorCodec::Deserialize(*blobs, persist::RestoreOptions{});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  feed(&*resumed, &shadow, kCheckpointTick, kTicks);

  EXPECT_TRUE(SameEventLogs(whole->events(), resumed->events()));
  const DriftMonitor::Stats resumed_stats = resumed->stats();
  EXPECT_EQ(resumed_stats.triage_certified_pass,
            whole_stats.triage_certified_pass);
  EXPECT_EQ(resumed_stats.triage_certified_fail,
            whole_stats.triage_certified_fail);
  EXPECT_EQ(resumed_stats.triage_fallbacks, whole_stats.triage_fallbacks);
  EXPECT_EQ(resumed_stats.drift_ticks, whole_stats.drift_ticks);
}

TEST(SketchedMonitorTest, PinnedReferencesIgnoreTheCacheBound) {
  // Live streams pin their cache entries, so a bound tighter than the
  // number of distinct references must not strand a stream: the table goes
  // over capacity instead of evicting.
  MonitorOptions options;
  options.reference_mode = ReferenceMode::kSketched;
  options.sketch_k = 64;
  options.cache_capacity = 1;
  auto monitor = DriftMonitor::Create(options);
  ASSERT_TRUE(monitor.ok());
  Rng rng(kSeed);
  for (int s = 0; s < 3; ++s) {
    std::vector<double> ref;
    for (int i = 0; i < 100; ++i) {
      ref.push_back(rng.Normal(static_cast<double>(s), 1.0));
    }
    ASSERT_TRUE(
        monitor->AddStream("s" + std::to_string(s), ref, 20).ok());
  }
  const auto cache = monitor->cache_stats();
  EXPECT_EQ(cache.entries, 3u);
  EXPECT_EQ(cache.evictions, 0u);
  EXPECT_GT(cache.resident_bytes, 0u);
}

TEST(SameEventLogsTest, DiscriminatesFields) {
  DriftEvent a;
  a.stream = 1;
  a.tick = 5;
  a.outcome.statistic = 0.5;
  DriftEvent b = a;
  EXPECT_TRUE(SameEventLogs({a}, {b}));
  EXPECT_FALSE(SameEventLogs({a}, {}));
  b.tick = 6;
  EXPECT_FALSE(SameEventLogs({a}, {b}));
  b = a;
  b.report.explanation.indices.push_back(3);
  EXPECT_FALSE(SameEventLogs({a}, {b}));
  b = a;
  b.explain_status = Status::NotFound("no explanation");
  EXPECT_FALSE(SameEventLogs({a}, {b}));
}

}  // namespace
}  // namespace stream
}  // namespace moche
