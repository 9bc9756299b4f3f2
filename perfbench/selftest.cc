// Unit tests of the benchmark's own arithmetic and output checks:
// the tail-percentile choice, span self time, and that each output check
// rejects a corrupted explanation, event or triage verdict.
//
// Run: python3 perfbench/run.py --self-test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/moche.h"
#include "core/preference.h"
#include "sketch/sketched_reference.h"
#include "stream/drift_monitor.h"
#include "util/rng.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                 \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                           \
      ++failures;                                                    \
    }                                                                \
  } while (0)

using perfbench::Span;

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the helpers must not assume order
}

void TestPercentiles() {
  // 1000 samples: p99 is rank 990, with exactly ten samples above it.
  auto p = perfbench::TailPercentile(OneTo(1000));
  EXPECT(p.percentile == 99 && p.value == 990 && p.samples == 1000);
  // 999 samples: p99 (rank 990) keeps only nine above; p98 keeps 19.
  p = perfbench::TailPercentile(OneTo(999));
  EXPECT(p.percentile == 98 && p.value == 980);
  // 100 samples: p90 is the highest with ten above.
  p = perfbench::TailPercentile(OneTo(100));
  EXPECT(p.percentile == 90 && p.value == 90);
  // 20 samples: only the median qualifies; 19 samples: nothing does.
  p = perfbench::TailPercentile(OneTo(20));
  EXPECT(p.percentile == 50 && p.value == 10);
  p = perfbench::TailPercentile(OneTo(19));
  EXPECT(p.percentile == 100 && p.value == 19);
  p = perfbench::NearestRank(OneTo(10), 50);
  EXPECT(p.value == 5);
  EXPECT(perfbench::TailPercentile({}).samples == 0);
  EXPECT(perfbench::Median({3, 1, 2, 10}) == 2.5);
}

void TestSelfTime() {
  std::vector<Span> spans;
  spans.push_back({"request", 0, 100, perfbench::kNoParent, 7});
  spans.push_back({"a", 10, 30, 0, 7});
  spans.push_back({"b", 20, 50, 0, 7});    // overlaps a: counted once
  spans.push_back({"c", 60, 70, 0, 7});
  spans.push_back({"d", 90, 120, 0, 7});   // runs past the parent: clipped
  spans.push_back({"a.child", 15, 25, 1, 7});
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  // Children cover [10, 50] + [60, 70] + [90, 100] = 60 of 100.
  EXPECT(self[0] == 40);
  EXPECT(self[1] == 10);  // 20 minus its own child's 10
  EXPECT(self[2] == 30 && self[3] == 10 && self[4] == 30 && self[5] == 10);
  const std::vector<double> ms =
      perfbench::SelfTimesMsOf(spans, self, "request");
  EXPECT(ms.size() == 1 && std::fabs(ms[0] - 40e-6) < 1e-15);
}

std::vector<double> Normals(size_t n, double mean, moche::Rng* rng) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(rng->Normal(mean, 1.0));
  return v;
}

void TestExplanationCheck() {
  moche::Rng rng(11);
  const std::vector<double> reference = Normals(400, 0.0, &rng);
  std::vector<double> test = Normals(300, 0.0, &rng);
  for (size_t i = 0; i < 60; ++i) test[i * 5] += 2.0;
  const double alpha = 0.05;
  const moche::Moche engine;
  moche::ExplainWorkspace workspace;
  moche::MocheReport report;
  EXPECT(engine
             .ExplainInto(reference, test, alpha,
                          moche::IdentityPreference(test.size()), &workspace,
                          &report)
             .ok());
  const std::vector<size_t> good = report.explanation.indices;
  EXPECT(!good.empty());
  EXPECT(perfbench::CheckExplanation(reference, test, alpha, good,
                                     report.k).empty());

  std::vector<size_t> bad = good;
  bad.pop_back();  // one point short
  EXPECT(!perfbench::CheckExplanation(reference, test, alpha, bad,
                                      report.k).empty());
  EXPECT(!perfbench::CheckExplanation(reference, test, alpha, bad,
                                      bad.size()).empty());
  bad = good;
  bad.back() = bad.front();  // repeated index
  EXPECT(!perfbench::CheckExplanation(reference, test, alpha, bad,
                                      report.k).empty());
  bad = good;
  bad.back() = test.size();  // out of range
  EXPECT(!perfbench::CheckExplanation(reference, test, alpha, bad,
                                      report.k).empty());
  // The same number of points, but not the shifted ones.
  bad.clear();
  for (size_t i = 0; bad.size() < good.size(); ++i) {
    if (i % 5 != 0) bad.push_back(i);
  }
  EXPECT(!perfbench::CheckExplanation(reference, test, alpha, bad,
                                      report.k).empty());
}

void TestEventCheck() {
  moche::Rng rng(12);
  std::vector<double> reference = Normals(500, 0.0, &rng);
  std::vector<double> input = Normals(200, 0.0, &rng);
  const std::vector<double> drift = Normals(200, 2.0, &rng);
  input.insert(input.end(), drift.begin(), drift.end());
  const size_t window = 100;
  moche::stream::MonitorOptions options;
  auto monitor = moche::stream::DriftMonitor::Create(options);
  EXPECT(monitor.ok());
  EXPECT(monitor->AddStream("s", reference, window).ok());
  EXPECT(monitor->PushBatch({input}).ok());
  EXPECT(!monitor->events().empty());
  if (monitor->events().empty()) return;
  const moche::stream::DriftEvent event = monitor->events().front();
  const auto window_at = [&](uint64_t tick) {
    return std::vector<double>(input.begin() + (tick - window),
                               input.begin() + tick);
  };
  std::vector<double> sorted = reference;
  std::sort(sorted.begin(), sorted.end());
  EXPECT(perfbench::CheckEvent(sorted, window_at(event.tick),
                               options.alpha, event).empty());
  // The window one tick earlier still passed the test.
  EXPECT(!perfbench::CheckEvent(sorted, window_at(event.tick - 1),
                                options.alpha, event).empty());
  moche::stream::DriftEvent bad = event;
  bad.report.explanation.indices.pop_back();
  bad.report.k = bad.report.explanation.indices.size();
  EXPECT(!perfbench::CheckEvent(sorted, window_at(event.tick), options.alpha,
                                bad).empty());
  bad = event;
  bad.explain_status = moche::Status::Internal("corrupted");
  EXPECT(!perfbench::CheckEvent(sorted, window_at(event.tick), options.alpha,
                                bad).empty());
}

void TestTriageCheck() {
  moche::Rng rng(13);
  std::vector<double> reference = Normals(5000, 0.0, &rng);
  const std::vector<double> shifted = Normals(200, 1.0, &rng);
  auto sketched =
      moche::sketch::SketchedReference::FromSample(reference, 0.05);
  EXPECT(sketched.ok());
  const moche::Moche engine;
  auto triage = engine.TriageSketched(*sketched, shifted);
  EXPECT(triage.ok());
  EXPECT(triage->verdict == moche::sketch::TriageVerdict::kCertainFail);
  std::sort(reference.begin(), reference.end());
  EXPECT(perfbench::CheckTriage(reference, shifted, 0.05, *triage).empty());
  moche::sketch::SketchTriage flipped = *triage;
  flipped.verdict = moche::sketch::TriageVerdict::kCertainPass;
  EXPECT(!perfbench::CheckTriage(reference, shifted, 0.05, flipped).empty());
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestExplanationCheck();
  TestEventCheck();
  TestTriageCheck();
  if (failures == 0) std::printf("perfbench_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
