// Streaming drift detection + explanation: the incremental KS test
// (dos Reis et al., the paper's ref [17]) watches a stream in O(log n) per
// observation; the moment it fires, MOCHE explains the drift.
//
// This is the production pattern the paper's introduction motivates:
// detection has to be cheap enough to run on every point, while the
// (more expensive) explanation only runs on the rare alarms.
//
// Run: ./build/examples/streaming_detector

#include <cmath>
#include <cstdio>

#include "core/moche.h"
#include "ks/streaming.h"
#include "util/rng.h"

int main() {
  using namespace moche;
  Rng rng(7);

  // Reference behaviour: latency-like, log-normal.
  std::vector<double> reference;
  for (int i = 0; i < 1000; ++i) {
    reference.push_back(std::exp(rng.Normal(0.0, 0.5)));
  }

  auto detector = StreamingKs::Create(reference, /*window_size=*/200,
                                      /*alpha=*/0.01);
  if (!detector.ok()) return 1;

  // The live stream: normal for 1500 points, then a regression doubles
  // latencies for one in three requests.
  Moche engine;
  size_t alarms = 0;
  for (int t = 0; t < 3000; ++t) {
    double v = std::exp(rng.Normal(0.0, 0.5));
    const bool drifted_phase = t >= 1500;
    if (drifted_phase && t % 3 == 0) v *= 2.2;
    if (!detector->Push(v).ok()) return 1;

    if (detector->Drifted()) {
      ++alarms;
      std::printf("t=%4d: DRIFT (D=%.4f > p=%.4f)\n", t,
                  detector->CurrentOutcome()->statistic,
                  detector->CurrentOutcome()->threshold);

      // Explain the window: prefer the most recent points.
      const std::vector<double> window = detector->WindowContents();
      std::vector<double> recency(window.size());
      for (size_t i = 0; i < window.size(); ++i) {
        recency[i] = static_cast<double>(i);
      }
      auto report = engine.Explain(reference, window, 0.01,
                                   PreferenceByScoreDesc(recency));
      if (report.ok()) {
        double mean_removed = 0.0;
        for (size_t idx : report->explanation.indices) {
          mean_removed += window[idx];
        }
        mean_removed /= static_cast<double>(report->k);
        std::printf(
            "        explanation: %zu of %zu window points, mean value "
            "%.2f (window mean of removed points is the slow traffic)\n",
            report->k, window.size(), mean_removed);
      }
      break;  // in production: page the on-call and keep streaming
    }
  }
  if (alarms == 0) {
    std::printf("no drift detected (unexpected for this scenario)\n");
    return 1;
  }
  std::printf("\nDetection cost: O(log d) per observation (d distinct "
              "reference values)\nvia the segment-tree incremental KS; the "
              "O(m(n+m)) explanation ran once,\non the alarm.\n");
  return 0;
}
