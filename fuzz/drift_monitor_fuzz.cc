// Differential oracle: DriftMonitor's determinism contract under
// randomized batch granularities and thread counts.
//
// The monitor promises a bit-identical event log regardless of (a) worker
// thread count and (b) how a lockstep observation sequence is chopped into
// PushBatch calls (events merge in (tick, stream) order after every
// batch). This target derives per-stream observation sequences with
// drift-inducing regime shifts, feeds the SAME sequences to three monitors
// — sequential coarse batches, parallel fine batches, and one-tick batches
// of one value per stream — and fails if SameEventLogs distinguishes any
// pair. A second triple in kSketched reference mode (a minimum-capacity
// sketch, so triage meets uncertain windows and takes the exact fallback)
// replays the same feeds under the same contract. Every event of both
// coarse monitors must then match a from-scratch Moche::Explain on the
// stream's last w observations (and, when sketched, a from-scratch ks::Run
// outcome bit for bit). It also checks batch-rejection atomicity (a NaN
// batch must not advance any tick) and the stats counters. The sketched
// triple draws no input bytes of its own: one decoding of an input drives
// both triples.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/moche.h"
#include "fuzz_target.h"
#include "ks/ks_test.h"
#include "provider.h"
#include "stream/drift_monitor.h"

namespace {

using moche::stream::DriftMonitor;
using moche::stream::MonitorOptions;
using moche::stream::RearmPolicy;

DriftMonitor MakeMonitor(const MonitorOptions& options) {
  auto monitor = DriftMonitor::Create(options);
  MOCHE_FUZZ_CHECK(monitor.ok(), "Create rejected valid options: %s",
                   monitor.status().message().c_str());
  return std::move(*monitor);
}

// `options` in kSketched mode at the smallest sketch capacity: references
// of up to 24 points then compact, so triage brackets are wide.
MonitorOptions WithSketch(MonitorOptions options) {
  options.reference_mode = moche::stream::ReferenceMode::kSketched;
  options.sketch_k = moche::sketch::KllSketch::kMinCapacity;
  return options;
}

// The from-scratch event oracle: each event must equal a one-shot
// Moche::Explain on the stream's last w observations at event.tick, under
// the monitor's preference (same status; same k, k̂ and indices when
// explained). A sketched event's outcome must also equal ks::Run on that
// window bit for bit; the kExact detector's integer scores may differ
// within ~1e-9, so exact-mode outcomes are not compared.
void CheckEventsAgainstOracle(
    const DriftMonitor& monitor,
    const std::vector<std::vector<double>>& references,
    const std::vector<std::vector<double>>& sequence,
    const std::vector<size_t>& window_sizes) {
  const MonitorOptions& options = monitor.options();
  const moche::Moche engine(options.moche);
  for (const moche::stream::DriftEvent& event : monitor.events()) {
    const size_t s = event.stream;
    const size_t w = window_sizes[s];
    MOCHE_FUZZ_CHECK(event.tick >= w && event.tick <= sequence[s].size(),
                     "stream %zu: event tick %llu outside [%zu, %zu]", s,
                     static_cast<unsigned long long>(event.tick), w,
                     sequence[s].size());
    const std::vector<double> window(
        sequence[s].begin() + static_cast<ptrdiff_t>(event.tick - w),
        sequence[s].begin() + static_cast<ptrdiff_t>(event.tick));
    moche::PreferenceList pref = moche::IdentityPreference(w);
    if (options.preference == moche::stream::WindowPreference::kNewestFirst) {
      std::reverse(pref.begin(), pref.end());
    }
    auto want = engine.Explain(references[s], window, options.alpha, pref);
    MOCHE_FUZZ_CHECK(
        event.explain_status.code() == want.status().code(),
        "stream %zu tick %llu: event status '%s' vs oracle '%s'", s,
        static_cast<unsigned long long>(event.tick),
        event.explain_status.ToString().c_str(),
        want.status().ToString().c_str());
    if (want.ok()) {
      MOCHE_FUZZ_CHECK(
          event.report.k == want->k && event.report.k_hat == want->k_hat &&
              event.report.explanation.indices == want->explanation.indices,
          "stream %zu tick %llu: explanation diverges from the oracle "
          "(k %zu vs %zu)",
          s, static_cast<unsigned long long>(event.tick), event.report.k,
          want->k);
    }
    if (options.reference_mode != moche::stream::ReferenceMode::kSketched) {
      continue;
    }
    auto direct = moche::ks::Run(references[s], window, options.alpha);
    MOCHE_FUZZ_CHECK(direct.ok(), "mirror recompute failed: %s",
                     direct.status().message().c_str());
    MOCHE_FUZZ_CHECK(event.outcome.statistic == direct->statistic &&
                         event.outcome.threshold == direct->threshold &&
                         event.outcome.reject == direct->reject,
                     "stream %zu tick %llu: sketched outcome diverges from "
                     "ks::Run (D=%.17g vs %.17g)",
                     s, static_cast<unsigned long long>(event.tick),
                     event.outcome.statistic, direct->statistic);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  moche::fuzz::Provider in(data, size);

  const size_t streams = in.SizeInRange(1, 3);
  const int alphabet = static_cast<int>(in.SizeInRange(2, 8));

  MonitorOptions options;
  options.alpha = in.Alpha();
  options.rearm =
      in.Bool() ? RearmPolicy::kOncePerExcursion : RearmPolicy::kEveryKPushes;
  options.explain_every_k =
      options.rearm == RearmPolicy::kEveryKPushes ? in.SizeInRange(1, 5) : 0;
  options.preference = in.Bool()
                           ? moche::stream::WindowPreference::kOldestFirst
                           : moche::stream::WindowPreference::kNewestFirst;

  MonitorOptions sequential = options;
  sequential.num_threads = 1;
  MonitorOptions parallel = options;
  parallel.num_threads = in.Bool() ? 2 : 0;  // 0 = one per core

  DriftMonitor coarse = MakeMonitor(sequential);
  DriftMonitor fine = MakeMonitor(parallel);
  DriftMonitor ticked = MakeMonitor(sequential);
  MonitorOptions sketched_sequential = WithSketch(sequential);
  DriftMonitor sketched_coarse = MakeMonitor(sketched_sequential);
  DriftMonitor sketched_fine = MakeMonitor(WithSketch(parallel));
  DriftMonitor sketched_ticked = MakeMonitor(sketched_sequential);
  DriftMonitor* const all[] = {
      &coarse, &fine, &ticked, &sketched_coarse, &sketched_fine,
      &sketched_ticked};

  std::vector<std::vector<double>> references(streams);
  std::vector<size_t> window_sizes(streams);
  for (size_t s = 0; s < streams; ++s) {
    const size_t n = in.SizeInRange(4, 24);
    in.TiedArray(n, alphabet, &references[s]);
    window_sizes[s] = in.SizeInRange(2, 10);
    for (DriftMonitor* monitor : all) {
      auto index = monitor->AddStream("s" + std::to_string(s), references[s],
                                      window_sizes[s]);
      MOCHE_FUZZ_CHECK(index.ok() && *index == s,
                       "AddStream failed for stream %zu", s);
    }
  }

  // One observation sequence per stream; a byte-driven regime bit shifts
  // values outside the reference alphabet so excursions start and end.
  const size_t ticks = in.SizeInRange(0, 48);
  std::vector<std::vector<double>> sequence(streams);
  for (size_t s = 0; s < streams; ++s) {
    bool drifted_regime = false;
    for (size_t t = 0; t < ticks; ++t) {
      if (in.Byte() % 8 == 0) drifted_regime = !drifted_regime;
      double v = static_cast<double>(in.IntInRange(0, alphabet));
      if (drifted_regime) v += static_cast<double>(alphabet) + 1.0;
      sequence[s].push_back(v);
    }
  }

  // A malformed batch (wrong stream count, then a NaN) must reject without
  // advancing any stream.
  if (streams > 1) {
    std::vector<std::vector<double>> wrong(streams - 1);
    MOCHE_FUZZ_CHECK(!coarse.PushBatch(wrong).ok(),
                     "PushBatch accepted a wrong-length batch");
  }
  {
    std::vector<std::vector<double>> poisoned(streams);
    poisoned[in.SizeInRange(0, streams - 1)].push_back(std::nan(""));
    MOCHE_FUZZ_CHECK(!coarse.PushBatch(poisoned).ok(),
                     "PushBatch accepted a NaN observation");
    for (size_t s = 0; s < streams; ++s) {
      MOCHE_FUZZ_CHECK(coarse.stream_ticks(s) == 0,
                       "rejected batch advanced stream %zu", s);
    }
    MOCHE_FUZZ_CHECK(coarse.events().empty(),
                     "rejected batch emitted events");
  }

  // Feed the same lockstep sequences three ways: coarse chunks, fine
  // chunks, single ticks.
  size_t done_coarse = 0;
  while (done_coarse < ticks) {
    const size_t chunk =
        std::min(in.SizeInRange(1, 16), ticks - done_coarse);
    std::vector<std::vector<double>> batch(streams);
    for (size_t s = 0; s < streams; ++s) {
      batch[s].assign(sequence[s].begin() + done_coarse,
                      sequence[s].begin() + done_coarse + chunk);
    }
    MOCHE_FUZZ_CHECK(coarse.PushBatch(batch).ok(), "coarse PushBatch failed");
    MOCHE_FUZZ_CHECK(sketched_coarse.PushBatch(batch).ok(),
                     "sketched coarse PushBatch failed");
    done_coarse += chunk;
  }
  size_t done_fine = 0;
  while (done_fine < ticks) {
    const size_t chunk = std::min(in.SizeInRange(1, 3), ticks - done_fine);
    std::vector<std::vector<double>> batch(streams);
    for (size_t s = 0; s < streams; ++s) {
      batch[s].assign(sequence[s].begin() + done_fine,
                      sequence[s].begin() + done_fine + chunk);
    }
    MOCHE_FUZZ_CHECK(fine.PushBatch(batch).ok(), "fine PushBatch failed");
    MOCHE_FUZZ_CHECK(sketched_fine.PushBatch(batch).ok(),
                     "sketched fine PushBatch failed");
    done_fine += chunk;
  }
  std::vector<std::vector<double>> tick_batch(streams);
  for (size_t t = 0; t < ticks; ++t) {
    for (size_t s = 0; s < streams; ++s) tick_batch[s] = {sequence[s][t]};
    MOCHE_FUZZ_CHECK(ticked.PushBatch(tick_batch).ok(),
                     "one-tick PushBatch failed");
    MOCHE_FUZZ_CHECK(sketched_ticked.PushBatch(tick_batch).ok(),
                     "sketched one-tick PushBatch failed");
  }

  // The determinism contract: one event log, however the batches were cut
  // and scheduled.
  MOCHE_FUZZ_CHECK(
      moche::stream::SameEventLogs(coarse.events(), fine.events()),
      "event log differs between sequential-coarse and parallel-fine "
      "(%zu vs %zu events)",
      coarse.events().size(), fine.events().size());
  MOCHE_FUZZ_CHECK(
      moche::stream::SameEventLogs(coarse.events(), ticked.events()),
      "event log differs between batch and tick-at-a-time feeding "
      "(%zu vs %zu events)",
      coarse.events().size(), ticked.events().size());

  MOCHE_FUZZ_CHECK(moche::stream::SameEventLogs(sketched_coarse.events(),
                                                sketched_fine.events()),
                   "sketched event log differs between sequential-coarse and "
                   "parallel-fine (%zu vs %zu events)",
                   sketched_coarse.events().size(),
                   sketched_fine.events().size());
  MOCHE_FUZZ_CHECK(moche::stream::SameEventLogs(sketched_coarse.events(),
                                                sketched_ticked.events()),
                   "sketched event log differs between batch and "
                   "tick-at-a-time feeding (%zu vs %zu events)",
                   sketched_coarse.events().size(),
                   sketched_ticked.events().size());

  // Every full-window sketched push was triaged exactly once.
  uint64_t full_windows = 0;
  for (size_t s = 0; s < streams; ++s) {
    if (ticks >= window_sizes[s]) full_windows += ticks - window_sizes[s] + 1;
  }
  const DriftMonitor::Stats sketched_stats = sketched_coarse.stats();
  MOCHE_FUZZ_CHECK(sketched_stats.triage_certified_pass +
                           sketched_stats.triage_certified_fail +
                           sketched_stats.triage_fallbacks ==
                       full_windows,
                   "sketched triage tallies miss full windows (%llu)",
                   static_cast<unsigned long long>(full_windows));
  MOCHE_FUZZ_CHECK(sketched_stats.explanations ==
                       sketched_coarse.events().size(),
                   "sketched stats.explanations %llu != %zu events",
                   static_cast<unsigned long long>(sketched_stats.explanations),
                   sketched_coarse.events().size());

  // Stats must account for every observation; each emitted event is one
  // explanation.
  const DriftMonitor::Stats stats = coarse.stats();
  MOCHE_FUZZ_CHECK(stats.streams == streams &&
                       stats.observations == streams * ticks,
                   "stats lost observations (%llu of %zu)",
                   static_cast<unsigned long long>(stats.observations),
                   streams * ticks);
  MOCHE_FUZZ_CHECK(stats.explanations == coarse.events().size(),
                   "stats.explanations %llu != %zu events",
                   static_cast<unsigned long long>(stats.explanations),
                   coarse.events().size());

  // The fine and one-tick logs equal these two by the checks above.
  CheckEventsAgainstOracle(coarse, references, sequence, window_sizes);
  CheckEventsAgainstOracle(sketched_coarse, references, sequence,
                           window_sizes);
  return 0;
}
