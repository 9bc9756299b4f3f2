// fleet_sketched: a sketched-mode DriftMonitor, one thread, a fleet of
// streams sharing one large reference. Each push re-sorts the window and
// triages it against the shared KLL summary; certified verdicts settle
// most pushes, uncertain ones fall back to an exact O(n) KS test, and
// explanations (once per excursion) are rare.
//
// In-distribution input is a low-discrepancy walk over the reference's
// sorted values (golden-ratio stride, seeded start), the idiom of
// bench_stream_monitor's steady state: any window covers the reference's
// quantiles evenly, so its KS statistic sits far below the threshold.
// Independent draws would not do here: at a window of 200 about 7% of
// them land inside the sketch's uncertainty bracket (sketch_k 1024), and
// each costs an O(n) exact test on a million points, which turns the
// workload into a fallback benchmark of about a thousand observations per
// second. Every kDriftEvery-th stream drifts in the second half of each
// input cycle (mean shift, variance inflation or a transient spike), so
// fallbacks come from excursion edges and explanations from excursion
// starts.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/moche.h"
#include "sketch/sketched_reference.h"
#include "stream/drift_monitor.h"
#include "stream/prepared_cache.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kStreams = 256;
constexpr size_t kDriftEvery = 64;  // stream i drifts iff i % 64 == 63
constexpr size_t kReferenceSize = size_t{1} << 20;
constexpr size_t kWindow = 200;
// Ticks before a stream's input repeats: 500 batch positions, each timed
// about five times in a 20-second run.
constexpr size_t kCycle = 1000;
// Drifting stream j drifts on [kDriftStart + j * kDriftStagger, + kDrift)
// of every cycle (a spike for an eighth of that), so excursions are spread
// evenly over time and no run length favours a quiet or a busy stretch.
constexpr size_t kDriftStart = 500;
constexpr size_t kDriftStagger = kCycle / (kStreams / kDriftEvery);
constexpr size_t kDrift = kCycle / 4;
constexpr size_t kBatchTicks = 2;
constexpr size_t kSketchK = 1024;
constexpr double kAlpha = 0.05;
constexpr int kSetupRepeats = 3;
constexpr int64_t kCoreRotationNs = 200'000'000;
constexpr int kBuildRepeats = 3;
constexpr size_t kEventCheckEvery = 64;  // batches
// Windows whose triage verdict is checked against the exact test.
constexpr size_t kTriageChecks = 384;
// Traced run: full-fleet snapshots through EvaluateBatchSketched, and
// uncertain windows timed through the exact fallback.
constexpr size_t kTriageSnapshots = 16;
constexpr size_t kMaxFallbacks = 32;

class Fleet {
 public:
  explicit Fleet(uint64_t seed) {
    moche::Rng rng(seed * 0xD1B54A32D192ED03ull + 0x5ce7c4);
    reference_.reserve(kReferenceSize);
    for (size_t j = 0; j < kReferenceSize; ++j) {
      reference_.push_back(rng.Normal(0.0, 1.0));
    }
    std::vector<double> sorted = reference_;
    std::sort(sorted.begin(), sorted.end());
    const size_t stride =
        static_cast<size_t>(0.6180339887498949 * kReferenceSize) | 1;
    streams_.resize(kStreams);
    for (size_t i = 0; i < kStreams; ++i) {
      size_t rank = static_cast<size_t>(
          rng.Integer(0, static_cast<int64_t>(kReferenceSize) - 1));
      const bool drifts = i % kDriftEvery == kDriftEvery - 1;
      const size_t j = i / kDriftEvery;
      const size_t begin = (kDriftStart + j * kDriftStagger) % kCycle;
      const size_t length = j % 3 == 2 ? kDrift / 8 : kDrift;
      streams_[i].reserve(kCycle);
      for (size_t t = 0; t < kCycle; ++t) {
        double v = sorted[rank];
        rank = (rank + stride) % kReferenceSize;
        if (drifts && (t + kCycle - begin) % kCycle < length) {
          if (j % 3 == 0) v += 1.5;  // mean shift
          if (j % 3 == 1) v *= 3.0;  // variance inflation
          if (j % 3 == 2) v += 8.0;  // transient spike
        }
        streams_[i].push_back(v);
      }
    }
  }

  const std::vector<double>& reference() const { return reference_; }
  double Observation(size_t stream, uint64_t tick_index) const {
    return streams_[stream][tick_index % kCycle];
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
  std::vector<double> reference_;
  std::vector<std::vector<double>> streams_;
};

moche::Result<moche::stream::DriftMonitor> BuildMonitor(const Fleet& fleet) {
  moche::stream::MonitorOptions options;
  options.alpha = kAlpha;
  options.rearm = moche::stream::RearmPolicy::kOncePerExcursion;
  options.num_threads = 1;
  options.reference_mode = moche::stream::ReferenceMode::kSketched;
  options.sketch_k = kSketchK;
  auto monitor = moche::stream::DriftMonitor::Create(options);
  if (!monitor.ok()) return monitor.status();
  for (size_t i = 0; i < kStreams; ++i) {
    auto index = monitor->AddStream("stream-" + std::to_string(i),
                                    fleet.reference(), kWindow);
    if (!index.ok()) return index.status();
  }
  return monitor;
}

}  // namespace

void RunFleetSketched(const RunConfig& config, Tracer* tracer,
                      RunResult* result) {
  const Fleet fleet(config.seed);
  std::vector<double> sorted_reference = fleet.reference();
  std::sort(sorted_reference.begin(), sorted_reference.end());

  // Set-up: Create + AddStream (reference validate/sort and sketch build,
  // once per distinct reference; every later stream is a cache hit).
  CoreRotation cores(kCoreRotationNs);
  std::vector<double> setup_s;
  std::optional<moche::stream::DriftMonitor> monitor;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    cores.Step();
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

  const auto check_events = [&] {
    for (const moche::stream::DriftEvent& event : monitor->events()) {
      const std::string why = CheckEvent(
          sorted_reference, fleet.Window(event.stream, event.tick), kAlpha,
          event);
      if (!why.empty()) {
        result->Fail("event stream " + std::to_string(event.stream) +
                     " tick " + std::to_string(event.tick) + ": " + why);
      }
    }
    monitor->ClearEvents();
  };

  const double loop_seconds =
      tracer->enabled() ? config.seconds / 2 : config.seconds;
  std::vector<std::vector<double>> batch(kStreams);
  CallLog calls;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(loop_seconds * 1e9);
  size_t b = 0;
  for (; b < kCycle / kBatchTicks || NowNs() < deadline; ++b) {
    fleet.FillBatch(b, &batch);
    cores.Step();
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
    if ((b + 1) % kEventCheckEvery == 0) check_events();
  }
  check_events();
  const size_t batches = b;
  const uint64_t ticks = batches * kBatchTicks;
  const moche::stream::DriftMonitor::Stats stats = monitor->stats();
  const uint64_t certified =
      stats.triage_certified_pass + stats.triage_certified_fail;
  if (stats.explanations == 0) result->Fail("no stream ever fired");
  if (certified + stats.triage_fallbacks !=
      kStreams * (ticks - (kWindow - 1))) {
    result->Fail("triage tallies do not cover every full-window push");
  }

  // Certified verdicts against the exact test, on windows spread over the
  // streams and the input cycle (the same summary the monitor interned:
  // the sketch is a pure function of the reference and its options).
  moche::sketch::KllOptions kll;
  kll.capacity = kSketchK;
  auto sketched =
      moche::sketch::SketchedReference::FromSample(fleet.reference(), kAlpha,
                                                   kll);
  if (!sketched.ok()) {
    result->Fail("SketchedReference: " + sketched.status().ToString());
    return;
  }
  const moche::Moche engine;
  moche::ExplainWorkspace workspace;
  moche::sketch::SketchTriage triage;
  const auto sample_tick = [&](size_t k) {
    return kWindow + (k * 7919) % (ticks - kWindow + 1);
  };
  for (size_t k = 0; k < kTriageChecks; ++k) {
    const size_t stream = (k * 37) % kStreams;
    const std::vector<double> window = fleet.Window(stream, sample_tick(k));
    const moche::Status status =
        engine.TriageSketchedInto(*sketched, window, &workspace, &triage);
    if (!status.ok()) {
      result->Fail("TriageSketchedInto: " + status.ToString());
      continue;
    }
    const std::string why =
        CheckTriage(sorted_reference, window, kAlpha, triage);
    if (!why.empty()) result->Fail("triage: " + why);
  }
  result->notes.emplace_back("batches", std::to_string(batches));
  result->notes.emplace_back("explanations",
                             std::to_string(stats.explanations));
  result->notes.emplace_back("triage_fallbacks",
                             std::to_string(stats.triage_fallbacks));

  if (!tracer->enabled()) {
    AddEndToEnd(calls, setup_s, result);
    return;
  }

  // ---- Layer replay.
  std::vector<double> build_ms;
  for (int rep = 0; rep < kBuildRepeats; ++rep) {
    moche::stream::PreparedReferenceCache cache;
    const int64_t span = tracer->Begin("sketch.build", rep);
    auto built = cache.GetOrSketch(fleet.reference(), kAlpha, kll);
    tracer->End(span);
    if (!built.ok()) result->Fail("GetOrSketch: " + built.status().ToString());
    build_ms.push_back(tracer->DurationMs(span));
  }

  // Full-fleet window snapshots, packed as one SoA batch each.
  std::vector<double> packed(kStreams * kWindow);
  std::vector<moche::sketch::SketchTriage> triages;
  double triage_ms = 0.0;
  for (size_t k = 0; k < kTriageSnapshots; ++k) {
    const uint64_t tick = sample_tick(k);
    for (size_t i = 0; i < kStreams; ++i) {
      const std::vector<double> window = fleet.Window(i, tick);
      std::copy(window.begin(), window.end(), packed.begin() + i * kWindow);
    }
    const moche::WindowBatch windows{packed.data(), kStreams, kWindow};
    const int64_t span = tracer->Begin("sketch.triage_batch", k);
    const moche::Status status =
        engine.EvaluateBatchSketched(*sketched, windows, &workspace, &triages);
    tracer->End(span);
    if (!status.ok()) {
      result->Fail("EvaluateBatchSketched: " + status.ToString());
    }
    triage_ms += tracer->DurationMs(span);
  }

  // Exact fallbacks: windows the triage leaves uncertain (excursion edges
  // of the drifting streams), sorted outside the span so that the span
  // holds ks::RunSorted alone.
  std::vector<double> fallback_ms;
  std::vector<double> sorted_window;
  for (uint64_t tick = kWindow;
       tick <= ticks && fallback_ms.size() < kMaxFallbacks; ++tick) {
    for (size_t i = kDriftEvery - 1; i < kStreams; i += kDriftEvery) {
      const std::vector<double> window = fleet.Window(i, tick);
      if (!engine.TriageSketchedInto(*sketched, window, &workspace, &triage)
               .ok() ||
          triage.verdict != moche::sketch::TriageVerdict::kUncertain) {
        continue;
      }
      sorted_window = window;
      std::sort(sorted_window.begin(), sorted_window.end());
      const int64_t span = tracer->Begin("ks.fallback", tick);
      auto exact = moche::ks::RunSorted(sorted_reference, sorted_window,
                                        kAlpha);
      tracer->End(span);
      if (!exact.ok()) {
        result->Fail("ks::RunSorted: " + exact.status().ToString());
      }
      fallback_ms.push_back(tracer->DurationMs(span));
    }
  }

  const auto cache = monitor->cache_stats();
  result->Add("stream.drift_ticks", static_cast<double>(stats.drift_ticks),
              "count");
  result->Add("stream.explanations", static_cast<double>(stats.explanations),
              "count");
  result->Add("cache.hits", static_cast<double>(cache.hits), "count");
  result->Add("cache.entries", static_cast<double>(cache.entries), "count");
  result->Add("sketch.build_ms", Median(build_ms), "ms", build_ms.size());
  result->Add("sketch.triage_us_per_window",
              triage_ms * 1e3 /
                  static_cast<double>(kTriageSnapshots * kStreams),
              "us", kTriageSnapshots * kStreams);
  result->Add("sketch.certified_share",
              certified + stats.triage_fallbacks > 0
                  ? static_cast<double>(certified) /
                        static_cast<double>(certified +
                                            stats.triage_fallbacks)
                  : 0.0,
              "share");
  result->Add("ks.fallback_ms", Median(fallback_ms), "ms",
              fallback_ms.size());
  result->Add("cache.resident_bytes", static_cast<double>(cache.resident_bytes),
              "bytes");
  AddTraceOverhead(traced_ms, untraced_ms, result);
}

}  // namespace perfbench
