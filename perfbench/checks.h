// Output checks run on every benchmark run. Each returns an empty string
// when the output is right and a one-line reason otherwise. They recompute
// everything with independent KS calls, never by trusting the report.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ks/ks_test.h"
#include "sketch/sketched_reference.h"
#include "stream/drift_monitor.h"

namespace perfbench {

/// FNV-1a digest of an explanation's (k, indices), for determinism checks.
uint64_t ExplanationDigest(const moche::MocheReport& report);

/// A MOCHE explanation of the failed test (reference, test) at `alpha`:
/// its indices are distinct and in range, it has `expected_k` of them,
/// and an independent ks::Run on R vs T \ I passes.
std::string CheckExplanation(const std::vector<double>& reference,
                             const std::vector<double>& test, double alpha,
                             const std::vector<size_t>& indices,
                             size_t expected_k);

/// A drift event against the window the generator says the stream held at
/// the event's tick (`window`, oldest first): the exact test on that window
/// rejects with the detector's statistic, the explanation succeeded, and
/// removing it from the window makes the exact test pass.
std::string CheckEvent(const std::vector<double>& sorted_reference,
                       const std::vector<double>& window, double alpha,
                       const moche::stream::DriftEvent& event);

/// A sketch triage verdict of `window` against the exact test: certified
/// verdicts must agree with ks::RunSorted. Uncertain verdicts always pass.
std::string CheckTriage(const std::vector<double>& sorted_reference,
                        const std::vector<double>& window, double alpha,
                        const moche::sketch::SketchTriage& triage);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
