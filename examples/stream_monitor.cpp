// Continuous monitoring with explanations (the paper's Section 6 workload
// as a live loop): a stream::DriftMonitor watches several synthetic metric
// streams at once, the incremental KS detectors flag drifting windows, and
// every alarm arrives with its MOCHE counterfactual — the smallest set of
// window observations whose removal reconciles the stream with its
// reference.
//
// Detection runs on every observation in O(log d) (d distinct reference
// values); the explanation runs only on the rare alarms. Explanations
// prefer the newest window points, the ones that arrived after the drift
// began. Exits non-zero if the seeded run raises no alarm.
//
// Run: ./build/examples/example_stream_monitor

#include <algorithm>
#include <cstdio>

#include "stream/drift_monitor.h"
#include "timeseries/generators.h"

int main() {
  using namespace moche;

  // Six streams cycling the three drift shapes; all share one reference
  // sample, which the monitor's cache prepares exactly once.
  const auto scenarios =
      ts::MakeDriftScenarioSuite(/*count=*/6, /*seed=*/42,
                                 /*reference_size=*/500, /*length=*/900);
  const std::vector<double>& reference = scenarios.front().reference;

  stream::MonitorOptions options;
  options.alpha = 0.01;  // strict: alarms should be drifts, not noise
  options.rearm = stream::RearmPolicy::kOncePerExcursion;
  options.preference = stream::WindowPreference::kNewestFirst;
  options.num_threads = 0;  // one worker per hardware core
  auto monitor = stream::DriftMonitor::Create(options);
  if (!monitor.ok()) return 1;

  for (const ts::DriftScenario& sc : scenarios) {
    if (!monitor->AddStream(sc.name, reference, /*window_size=*/120).ok()) {
      return 1;
    }
  }

  // Feed everything in batches of 50 ticks per stream.
  const size_t length = scenarios.front().observations.size();
  std::vector<std::vector<double>> batch(scenarios.size());
  for (size_t t0 = 0; t0 < length; t0 += 50) {
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const auto& obs = scenarios[i].observations;
      const size_t end = std::min(obs.size(), t0 + 50);
      batch[i].assign(obs.begin() + static_cast<long>(t0),
                      obs.begin() + static_cast<long>(end));
    }
    if (!monitor->PushBatch(batch).ok()) return 1;
  }

  const auto cache = monitor->cache_stats();
  std::printf("%zu streams, reference prepared %zu time(s), %zu cache "
              "hits\n\n",
              monitor->num_streams(), cache.misses, cache.hits);

  for (const stream::DriftEvent& event : monitor->events()) {
    std::printf("[tick %4llu] %-22s D=%.3f > %.3f",
                static_cast<unsigned long long>(event.tick),
                monitor->stream_name(event.stream).c_str(),
                event.outcome.statistic, event.outcome.threshold);
    if (event.explain_status.ok()) {
      std::printf("  -> remove %zu/%zu window points (k_hat=%zu), "
                  "D after %.3f\n",
                  event.report.k, event.report.original.m,
                  event.report.k_hat, event.report.after.statistic);
    } else {
      std::printf("  -> %s\n", event.explain_status.ToString().c_str());
    }
  }

  const auto stats = monitor->stats();
  std::printf("\n%llu observations, %llu rejecting pushes, %llu "
              "explanations emitted\n",
              static_cast<unsigned long long>(stats.observations),
              static_cast<unsigned long long>(stats.drift_ticks),
              static_cast<unsigned long long>(stats.explanations));
  std::printf("(one alarm per excursion: the re-arm policy suppresses "
              "duplicate explanations\n while a stream stays above "
              "threshold)\n");
  if (monitor->events().empty()) {
    std::printf("no drift detected (unexpected for this scenario)\n");
    return 1;
  }
  return 0;
}
