// explain_sweep: the paper's own use. One thread, closed loop, one
// caller-owned workspace, one-shot Moche::ExplainInto per instance.
//
// The instance pool is fixed by the seed and cycled until time is up, so
// every pass explains the same instances and must reproduce the first
// pass bit for bit. The design of the pool -- size, contamination share,
// kind, alpha, ties -- is the same for every seed; the seed draws the
// data. Sizes are log-spaced over [kMinSize, kMaxSize] and contamination
// shares over [kMinShare, kMaxShare], paired by a golden-ratio sequence.
//
// Preferences rank test points by an anomaly score (|t|, the reference
// being N(0, 1)), as in the paper's case studies. Arbitrary-order
// preferences are left out on purpose: with them, phase 2's recursion
// steps differ tenfold between instances of the same design, so the tail
// latency and throughput of a 1000-instance pool follow the seed by
// 10-15% rather than the code.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "core/moche.h"
#include "core/preference.h"
#include "ks/ks_test.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kPoolSize = 1000;
constexpr double kMinSize = 500.0;
constexpr double kMaxSize = 20000.0;
constexpr double kMinShare = 0.02;  // contaminated share of the test set
constexpr double kMaxShare = 0.3;
constexpr double kAlphas[] = {0.01, 0.05, 0.1};
constexpr double kGoldenFraction = 0.6180339887498949;
constexpr int kSetupRepeats = 5;
constexpr int64_t kCoreRotationNs = 200'000'000;

struct Instance {
  std::vector<double> reference;
  std::vector<double> test;
  double alpha = 0.05;
  moche::PreferenceList preference;
};

double RoundToTenth(double v) { return std::round(v * 10.0) / 10.0; }

moche::PreferenceList AnomalyPreference(const std::vector<double>& test) {
  std::vector<double> score(test.size());
  for (size_t i = 0; i < test.size(); ++i) score[i] = std::fabs(test[i]);
  return moche::PreferenceByScoreDesc(score);
}

// Contamination of a test sample.
enum Kind { kMeanShift = 0, kVarianceInflation = 1, kOutliers = 2 };

// A test sample whose share `eps` comes from the contamination, the rest
// from the reference distribution N(0, 1), in random order.
std::vector<double> MakeTest(size_t m, int kind, double eps, double shift,
                             double sigma, bool ties, moche::Rng* rng) {
  std::vector<double> test;
  test.reserve(m);
  const size_t dirty = static_cast<size_t>(std::ceil(eps * m));
  for (size_t i = 0; i < m; ++i) {
    double v = rng->Normal(0.0, 1.0);
    if (i < dirty) {
      if (kind == kMeanShift) v += shift;
      if (kind == kVarianceInflation) v *= sigma;
      if (kind == kOutliers) v = rng->Normal(6.0, 0.5);
    }
    test.push_back(ties ? RoundToTenth(v) : v);
  }
  rng->Shuffle(&test);
  return test;
}

std::vector<double> Gaussian(size_t n, bool ties, moche::Rng* rng) {
  std::vector<double> out;
  out.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    const double v = rng->Normal(0.0, 1.0);
    out.push_back(ties ? RoundToTenth(v) : v);
  }
  return out;
}

// Raises the contamination until the instance fails the KS test
// (deterministic in the generator's state). False if it never does.
bool MakeFailing(Instance* inst, size_t m, int kind, double eps, bool ties,
                 moche::Rng* rng) {
  double shift = rng->Uniform(0.5, 2.0);
  double sigma = rng->Uniform(1.5, 3.0);
  for (int attempt = 0; attempt < 40; ++attempt) {
    inst->test = MakeTest(m, kind, eps, shift, sigma, ties, rng);
    auto outcome = moche::ks::Run(inst->reference, inst->test, inst->alpha);
    if (outcome.ok() && outcome->reject) {
      inst->preference = AnomalyPreference(inst->test);
      return true;
    }
    eps = std::min(0.6, eps * 1.25);
    shift *= 1.1;
    sigma *= 1.1;
  }
  return false;
}

std::vector<Instance> MakePool(uint64_t seed, std::string* error) {
  moche::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  std::vector<Instance> pool(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    Instance& inst = pool[i];
    const double u = (static_cast<double>(i) + 0.5) / kPoolSize;
    const size_t size = static_cast<size_t>(
        std::lround(kMinSize * std::pow(kMaxSize / kMinSize, u)));
    size_t n = size;
    size_t m = size;
    if (i % 4 == 2) m = size / 2;  // n != m both ways
    if (i % 4 == 3) n = size / 2;
    inst.alpha = kAlphas[i % 3];
    const int kind = static_cast<int>((i / 3) % 3);
    const bool ties = i % 5 == 0;
    const double v = std::fmod(0.5 + kGoldenFraction * static_cast<double>(i),
                               1.0);
    const double eps = kMinShare * std::pow(kMaxShare / kMinShare, v);
    inst.reference = Gaussian(n, ties, &rng);
    if (!MakeFailing(&inst, m, kind, eps, ties, &rng)) {
      *error = "instance " + std::to_string(i) + " never fails the KS test";
      return {};
    }
  }
  // Closed-loop order: sizes interleaved, not ascending.
  rng.Shuffle(&pool);
  return pool;
}

// The set-up instance: the largest size with 2% far outliers, so its cost
// is sorting and first-touch of the workspace, not phase 2.
Instance MakeWarmUp(uint64_t seed, std::string* error) {
  moche::Rng rng(seed ^ 0x77a2b0f1u);
  Instance inst;
  const size_t size = static_cast<size_t>(kMaxSize);
  inst.reference = Gaussian(size, false, &rng);
  if (!MakeFailing(&inst, size, kOutliers, 0.02, false, &rng)) {
    *error = "the set-up instance never fails the KS test";
  }
  return inst;
}


}  // namespace

void RunExplainSweep(const RunConfig& config, Tracer* tracer,
                     RunResult* result) {
  std::string error;
  const std::vector<Instance> pool = MakePool(config.seed, &error);
  const Instance warm_up = MakeWarmUp(config.seed, &error);
  if (!error.empty()) {
    result->Fail(error);
    return;
  }
  const moche::Moche engine;
  moche::MocheReport report;

  // Set-up: a fresh workspace warmed on the largest size, the only library
  // set-up this workload has. Repeated; the last workspace is kept.
  CoreRotation cores(kCoreRotationNs);
  std::vector<double> setup_s;
  moche::ExplainWorkspace workspace;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    cores.Step();
    moche::ExplainWorkspace fresh;
    const int64_t t0 = NowNs();
    const moche::Status status =
        engine.ExplainInto(warm_up.reference, warm_up.test, warm_up.alpha,
                           warm_up.preference, &fresh, &report);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    ++result->attempted;
    if (!status.ok()) ++result->failed;
    workspace = std::move(fresh);
  }

  // The closed loop. In the traced run it gets half the time (the layer
  // replay below takes the rest) and every other call carries a span, so
  // traced and untraced calls over the same instances give the overhead.
  const double loop_seconds =
      tracer->enabled() ? config.seconds / 2 : config.seconds;
  CallLog calls;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<uint64_t> first_digest(pool.size(), 0);
  std::vector<std::vector<size_t>> first_indices(pool.size());
  moche::SizeSearchResult size_sum;
  moche::BuildStats build_sum;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(loop_seconds * 1e9);
  for (size_t j = 0; j < pool.size() || NowNs() < deadline; ++j) {
    const size_t i = j % pool.size();
    const Instance& inst = pool[i];
    cores.Step();
    // Alternate per pass too, so each instance runs both ways.
    const bool traced =
        tracer->enabled() && (j + j / pool.size()) % 2 == 1;
    const int64_t t0 = NowNs();
    const moche::Status status =
        engine.ExplainInto(inst.reference, inst.test, inst.alpha,
                           inst.preference, &workspace, &report);
    const int64_t t1 = NowNs();
    if (traced) tracer->Add("e2e.explain_into", i, t0, t1);
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    calls.Add(static_cast<uint32_t>(i), ms,
              static_cast<double>(inst.test.size()));
    if (tracer->enabled()) (traced ? traced_ms : untraced_ms).push_back(ms);
    ++result->attempted;
    if (!status.ok()) {
      ++result->failed;
      result->Fail("ExplainInto: " + status.ToString());
      continue;
    }
    const uint64_t digest = ExplanationDigest(report);
    if (j < pool.size()) {
      first_digest[i] = digest;
      first_indices[i] = report.explanation.indices;
      const auto& s = report.size_stats;
      size_sum.theorem1_checks += s.theorem1_checks;
      size_sum.theorem2_checks += s.theorem2_checks;
      size_sum.probe_refutations += s.probe_refutations;
      size_sum.full_scans += s.full_scans;
      build_sum.candidates_checked += report.build_stats.candidates_checked;
    } else if (digest != first_digest[i]) {
      result->Fail("instance " + std::to_string(i) +
                   ": explanation differs from the first pass");
    }
  }

  // Output checks on the first pass: the size equals phase 1's k, and
  // removing the explanation makes an independent KS test pass.
  Digest run_digest;
  for (size_t i = 0; i < pool.size(); ++i) {
    const Instance& inst = pool[i];
    auto size = engine.FindExplanationSize(inst.reference, inst.test,
                                           inst.alpha);
    if (!size.ok()) {
      result->Fail("FindExplanationSize: " + size.status().ToString());
      continue;
    }
    const std::string why =
        CheckExplanation(inst.reference, inst.test, inst.alpha,
                         first_indices[i], size->k);
    if (!why.empty()) {
      result->Fail("instance " + std::to_string(i) + ": " + why);
    }
    run_digest.Mix(first_digest[i]);
  }
  if (!DigestMatchesEarlierRun(config.out_dir,
                               "explain_sweep_" + std::to_string(config.seed),
                               run_digest.state)) {
    result->Fail("explanation digest differs from an earlier run of this seed");
  }
  char digest_text[32];
  std::snprintf(digest_text, sizeof(digest_text), "%016llx",
                static_cast<unsigned long long>(run_digest.state));
  result->notes.emplace_back("explanation_digest", digest_text);
  result->notes.emplace_back("pool_instances", std::to_string(pool.size()));

  if (!tracer->enabled()) {
    AddEndToEnd(calls, setup_s, result);
    return;
  }

  // Layer replay: the same instances through each layer's public call.
  const int64_t replay_deadline =
      NowNs() + static_cast<int64_t>(config.seconds / 2 * 1e9);
  moche::MocheReport prepared_report;
  std::vector<double> sorted_test;
  size_t replayed = 0;
  for (size_t i = 0; i < pool.size() && NowNs() < replay_deadline; ++i) {
    const Instance& inst = pool[i];
    std::vector<double> reference_copy = inst.reference;
    sorted_test = inst.test;
    std::sort(sorted_test.begin(), sorted_test.end());
    const int64_t request = tracer->Begin("replay.instance", i);
    int64_t span = tracer->Begin("core.prepare", i, request);
    auto prepared = engine.Prepare(std::move(reference_copy), inst.alpha);
    tracer->End(span);
    if (!prepared.ok()) {
      result->Fail("Prepare: " + prepared.status().ToString());
      tracer->End(request);
      continue;
    }
    span = tracer->Begin("ks.test", i, request);
    auto outcome = moche::ks::RunSorted(prepared->sorted_reference(),
                                        sorted_test, inst.alpha);
    tracer->End(span);
    span = tracer->Begin("core.size_search", i, request);
    auto size = engine.FindExplanationSizeInto(*prepared, inst.test,
                                               &workspace);
    tracer->End(span);
    span = tracer->Begin("core.explain_prepared", i, request);
    const moche::Status prepared_status = engine.ExplainPreparedInto(
        *prepared, inst.test, inst.preference, &workspace, &prepared_report);
    tracer->End(span);
    span = tracer->Begin("core.explain_into", i, request);
    const moche::Status into_status =
        engine.ExplainInto(inst.reference, inst.test, inst.alpha,
                           inst.preference, &workspace, &report);
    tracer->End(span);
    tracer->End(request);
    if (!outcome.ok() || !outcome->reject || !size.ok() ||
        !prepared_status.ok() || !into_status.ok() ||
        ExplanationDigest(prepared_report) != first_digest[i]) {
      result->Fail("layer replay of instance " + std::to_string(i) +
                   " disagrees with the end-to-end call");
    }
    ++replayed;
  }
  const std::vector<Span>& spans = tracer->spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  const auto mean_of = [&](const char* name) {
    const std::vector<double> v = SelfTimesMsOf(spans, self, name);
    return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
  };
  const auto sum_of = [&](const char* name) {
    return Sum(SelfTimesMsOf(spans, self, name));
  };
  const double sum_prepare = sum_of("core.prepare");
  const double sum_explain_prepared = sum_of("core.explain_prepared");
  const double sum_explain_into = sum_of("core.explain_into");
  const double size_search = mean_of("core.size_search");
  result->Add("core.prepare_ms", mean_of("core.prepare"), "ms", replayed);
  result->Add("ks.test_ms", mean_of("ks.test"), "ms", replayed);
  result->Add("core.size_search_ms", size_search, "ms", replayed);
  result->Add("core.construct_ms",
              mean_of("core.explain_prepared") - size_search, "ms", replayed);
  result->Add("core.residual_share",
              sum_explain_into > 0.0
                  ? 1.0 - (sum_prepare + sum_explain_prepared) /
                              sum_explain_into
                  : 0.0,
              "share", replayed);
  result->Add("core.theorem1_checks",
              static_cast<double>(size_sum.theorem1_checks), "count");
  result->Add("core.full_scans", static_cast<double>(size_sum.full_scans),
              "count");
  result->Add("core.probe_refutation_share",
              size_sum.theorem1_checks > 0
                  ? static_cast<double>(size_sum.probe_refutations) /
                        static_cast<double>(size_sum.theorem1_checks)
                  : 0.0,
              "share");
  result->Add("core.theorem2_checks",
              static_cast<double>(size_sum.theorem2_checks), "count");
  result->Add("core.theorem3_checks",
              static_cast<double>(build_sum.candidates_checked), "count");
  AddTraceOverhead(traced_ms, untraced_ms, result);
}

}  // namespace perfbench
