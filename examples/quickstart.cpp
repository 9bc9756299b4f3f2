// Quickstart: explain one failed Kolmogorov-Smirnov test in ~30 lines.
//
// A reference sample R comes from N(0,1); the test sample T is mostly
// N(0,1) with a handful of planted outliers. The KS test rejects; MOCHE
// returns the smallest subset of T whose removal makes the test pass,
// picking the subset most consistent with our preference order.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_quickstart

#include <cstdio>

#include "core/moche.h"
#include "util/rng.h"

int main() {
  using namespace moche;

  // 1. Data: 400 reference points, 200 test points, 30 of them shifted.
  Rng rng(2021);
  std::vector<double> reference;
  std::vector<double> test;
  for (int i = 0; i < 400; ++i) reference.push_back(rng.Normal(0.0, 1.0));
  for (int i = 0; i < 200; ++i) test.push_back(rng.Normal(0.0, 1.0));
  for (int i = 0; i < 30; ++i) test[i * 6] = rng.Uniform(4.0, 6.0);

  // 2. The failed test.
  auto outcome = ks::Run(reference, test, /*alpha=*/0.05);
  if (!outcome.ok() || !outcome->reject) {
    std::printf("the KS test passed; nothing to explain\n");
    return 0;
  }
  std::printf("KS test FAILED: D = %.4f > p = %.4f\n", outcome->statistic,
              outcome->threshold);

  // 3. A preference order over the test points. Here: largest values first
  //    ("I suspect the big readings"). Any total order works.
  const PreferenceList preference = PreferenceByValue(test, true);

  // 4. Explain.
  Moche engine;
  auto report = engine.Explain(reference, test, 0.05, preference);
  if (!report.ok()) {
    std::printf("no explanation: %s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("explanation: %zu of %zu test points (lower bound k_hat=%zu)\n",
              report->k, test.size(), report->k_hat);
  std::printf("removed values:");
  for (size_t idx : report->explanation.indices) {
    std::printf(" %.2f", test[idx]);
  }
  std::printf("\nafter removal: D = %.4f <= p = %.4f  -> passes\n",
              report->after.statistic, report->after.threshold);
  return 0;
}
