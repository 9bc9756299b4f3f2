// ML model-input monitoring (the "maintaining machine learning models"
// application of the paper's introduction): a deployed model scores a
// stream of inputs; the serving team keeps last week's feature values as a
// reference and tests today's batch with the KS test. When the test fails,
// MOCHE names the minimal set of today's inputs responsible — before
// anyone spends money on relabeling or retraining.
//
// Today's batch mixes the normal population with a burst of traffic from a
// new client integration (shifted feature distribution). The preference
// list ranks recent requests first ("newest suspects first").
//
// Run: ./build/examples/example_model_monitoring

#include <cmath>
#include <cstdio>

#include "core/moche.h"
#include "util/rng.h"

int main() {
  using namespace moche;
  Rng rng(123);

  // Last week's feature distribution: log-normal-ish request sizes.
  std::vector<double> reference;
  for (int i = 0; i < 2000; ++i) {
    reference.push_back(std::exp(rng.Normal(1.0, 0.4)));
  }

  // Today's batch: 500 normal requests, then a burst of 60 from the new
  // integration with systematically larger payloads, interleaved late in
  // the day (higher indices = more recent).
  std::vector<double> today;
  for (int i = 0; i < 500; ++i) {
    today.push_back(std::exp(rng.Normal(1.0, 0.4)));
  }
  for (int i = 0; i < 60; ++i) {
    today.push_back(std::exp(rng.Normal(1.9, 0.3)));
  }

  auto outcome = ks::Run(reference, today, 0.05);
  if (!outcome.ok()) return 1;
  std::printf("reference |R| = %zu, today's batch |T| = %zu\n",
              reference.size(), today.size());
  std::printf("KS: D = %.4f vs p = %.4f -> %s\n\n", outcome->statistic,
              outcome->threshold, outcome->reject ? "DRIFT ALARM" : "ok");
  if (!outcome->reject) return 0;

  // Newest requests first: index descending.
  std::vector<double> recency(today.size());
  for (size_t i = 0; i < today.size(); ++i) {
    recency[i] = static_cast<double>(i);
  }
  const PreferenceList newest_first = PreferenceByScoreDesc(recency);

  Moche engine;
  auto report = engine.Explain(reference, today, 0.05, newest_first);
  if (!report.ok()) {
    std::printf("no explanation: %s\n", report.status().ToString().c_str());
    return 1;
  }

  // How many of the explanation points are from the burst (indices >= 500)?
  size_t from_burst = 0;
  for (size_t idx : report->explanation.indices) {
    if (idx >= 500) ++from_burst;
  }
  std::printf("explanation: %zu requests (%.1f%% of the batch)\n", report->k,
              100.0 * static_cast<double>(report->k) /
                  static_cast<double>(today.size()));
  std::printf("%zu of them (%.0f%%) come from the new integration's burst\n",
              from_burst,
              100.0 * static_cast<double>(from_burst) /
                  static_cast<double>(report->k));
  std::printf("after removal: D = %.4f <= p = %.4f\n\n",
              report->after.statistic, report->after.threshold);
  std::printf(
      "Action: quarantine the new client's traffic and re-run the test —\n"
      "no model retraining needed for the rest of the population.\n");
  return 0;
}
