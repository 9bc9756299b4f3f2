#include "checks.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

// Detector statistics come from the streaming treap, the check's from a
// sorted sweep; both count the same integers, so they agree far below
// this.
constexpr double kStatisticTolerance = 1e-9;

// T \ I, or an error when `indices` are out of range or repeated.
std::string RemoveIndices(const std::vector<double>& test,
                          const std::vector<size_t>& indices,
                          std::vector<double>* remaining) {
  std::vector<unsigned char> removed(test.size(), 0);
  for (size_t index : indices) {
    if (index >= test.size()) return "explanation index out of range";
    if (removed[index]) return "explanation index repeated";
    removed[index] = 1;
  }
  if (indices.size() >= test.size()) return "explanation removes every point";
  remaining->clear();
  for (size_t i = 0; i < test.size(); ++i) {
    if (!removed[i]) remaining->push_back(test[i]);
  }
  return "";
}

}  // namespace

uint64_t ExplanationDigest(const moche::MocheReport& report) {
  Digest digest;
  digest.Mix(report.k);
  for (size_t index : report.explanation.indices) digest.Mix(index);
  return digest.state;
}

std::string CheckExplanation(const std::vector<double>& reference,
                             const std::vector<double>& test, double alpha,
                             const std::vector<size_t>& indices,
                             size_t expected_k) {
  if (indices.size() != expected_k) {
    return "explanation size " + std::to_string(indices.size()) +
           " != size search k " + std::to_string(expected_k);
  }
  std::vector<double> remaining;
  const std::string error = RemoveIndices(test, indices, &remaining);
  if (!error.empty()) return error;
  auto after = moche::ks::Run(reference, remaining, alpha);
  if (!after.ok()) return "ks::Run on R vs T\\I: " + after.status().ToString();
  if (after->reject) return "R vs T\\I still rejects";
  return "";
}

std::string CheckEvent(const std::vector<double>& sorted_reference,
                       const std::vector<double>& window, double alpha,
                       const moche::stream::DriftEvent& event) {
  if (!event.explain_status.ok()) {
    return "event explanation failed: " + event.explain_status.ToString();
  }
  std::vector<double> sorted_window = window;
  std::sort(sorted_window.begin(), sorted_window.end());
  auto before = moche::ks::RunSorted(sorted_reference, sorted_window, alpha);
  if (!before.ok()) return "ks::RunSorted: " + before.status().ToString();
  if (!before->reject) return "reconstructed window does not reject";
  if (std::fabs(before->statistic - event.outcome.statistic) >
      kStatisticTolerance) {
    return "event statistic differs from the reconstructed window's";
  }
  const auto& indices = event.report.explanation.indices;
  if (indices.size() != event.report.k) return "explanation size != k";
  std::vector<double> remaining;
  const std::string error = RemoveIndices(window, indices, &remaining);
  if (!error.empty()) return error;
  std::sort(remaining.begin(), remaining.end());
  auto after = moche::ks::RunSorted(sorted_reference, remaining, alpha);
  if (!after.ok()) return "ks::RunSorted after: " + after.status().ToString();
  if (after->reject) return "window minus explanation still rejects";
  return "";
}

std::string CheckTriage(const std::vector<double>& sorted_reference,
                        const std::vector<double>& window, double alpha,
                        const moche::sketch::SketchTriage& triage) {
  if (triage.verdict == moche::sketch::TriageVerdict::kUncertain) return "";
  std::vector<double> sorted_window = window;
  std::sort(sorted_window.begin(), sorted_window.end());
  auto exact = moche::ks::RunSorted(sorted_reference, sorted_window, alpha);
  if (!exact.ok()) return "ks::RunSorted: " + exact.status().ToString();
  const bool certified_fail =
      triage.verdict == moche::sketch::TriageVerdict::kCertainFail;
  if (exact->reject != certified_fail) {
    return certified_fail ? "certified fail, exact test passes"
                          : "certified pass, exact test rejects";
  }
  return "";
}

}  // namespace perfbench
