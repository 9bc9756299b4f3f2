// Drift monitoring on a time series (the paper's Section 6.1 workload):
// slide a reference window and an adjacent test window over a machine
// temperature series, run the KS test on each pair, and for every failed
// test produce a MOCHE explanation whose preference list comes from
// Spectral Residual outlier scores — "explain the drift, preferring the
// points an anomaly detector already distrusts".
//
// Run: ./build/examples/example_drift_monitor

#include <cstdio>

#include "core/moche.h"
#include "harness/metrics.h"
#include "signal/spectral_residual.h"
#include "timeseries/generators.h"
#include "timeseries/window.h"

int main() {
  using namespace moche;

  // A KC-family series: machine temperature with a bearing-failure drift.
  const ts::Dataset kc = ts::MakeKcDataset(/*seed=*/7, /*length_scale=*/0.5);
  const ts::TimeSeries& series = kc.series.front();
  std::printf("monitoring '%s' (%zu observations)\n", series.name.c_str(),
              series.length());

  // Outlier scores once for the whole series.
  auto scores = signal::SpectralResidualScores(series.values);
  if (!scores.ok()) return 1;

  ts::WindowSweepOptions sweep;
  sweep.window = 150;
  sweep.alpha = 0.05;
  auto failed = ts::FailedWindowTests(series, sweep);
  if (!failed.ok()) return 1;
  std::printf("window size %zu: %zu failed KS tests\n\n", sweep.window,
              failed->size());

  Moche engine;
  for (const ts::WindowTest& wt : *failed) {
    const KsInstance inst = ts::MakeInstance(series, wt, sweep.alpha);
    // preference: SR scores of the test window, most anomalous first
    std::vector<double> window_scores(
        scores->begin() + static_cast<long>(wt.test_begin),
        scores->begin() + static_cast<long>(wt.test_begin + wt.window));
    const PreferenceList pref = PreferenceByScoreDesc(window_scores);

    auto report = engine.Explain(inst, pref);
    if (!report.ok()) {
      std::printf("t=[%5zu,%5zu): %s\n", wt.test_begin,
                  wt.test_begin + wt.window,
                  report.status().ToString().c_str());
      continue;
    }
    const double rmse = harness::ExplanationRmse(inst, report->explanation);
    std::printf(
        "t=[%5zu,%5zu): D=%.3f -> remove %3zu/%zu points "
        "(k_hat=%3zu, RMSE after removal %.3f)\n",
        wt.test_begin, wt.test_begin + wt.window, wt.outcome.statistic,
        report->k, inst.test.size(), report->k_hat, rmse);

    // where in the window do the removed points sit?
    size_t in_first_half = 0;
    for (size_t idx : report->explanation.indices) {
      if (idx < wt.window / 2) ++in_first_half;
    }
    std::printf("                 removed points: %zu in first half, %zu in "
                "second half of the window\n",
                in_first_half, report->k - in_first_half);
  }
  std::printf(
      "\nEach line is an alarm a human would review: the removed points are\n"
      "the smallest set of observations that reconcile the two windows.\n");
  return 0;
}
