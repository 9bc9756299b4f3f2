#include "harness/runner.h"

#include <algorithm>

#include "harness/metrics.h"
#include "signal/spectral_residual.h"
#include "timeseries/window.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace moche {
namespace harness {

namespace {

// SplitMix64-style mix deriving one independent sampling stream per
// (series, window) combination. Decoupling the streams from each other is
// what makes the parallel scan's output identical to the sequential one:
// no task's draws depend on how many draws another task made.
uint64_t CombinationSeed(uint64_t seed, uint64_t series_index,
                         uint64_t window_index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (series_index + 1) +
               0xBF58476D1CE4E5B9ull * (window_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Scans one series: every window size, every failed test, sampled per the
// paper's rule. Appends to `out` in (window index, test offset) order.
Status CollectFromSeries(const std::string& dataset_name,
                         const ts::TimeSeries& series, size_t series_index,
                         const CollectOptions& options,
                         std::vector<ExperimentInstance>* out) {
  // Spectral Residual scores once per series; window preferences are
  // slices of the global score vector.
  auto sr = signal::SpectralResidualScores(series.values);
  MOCHE_RETURN_IF_ERROR(sr.status());

  for (size_t wi = 0; wi < options.window_sizes.size(); ++wi) {
    const size_t w = options.window_sizes[wi];
    if (series.length() < 2 * w) continue;
    ts::WindowSweepOptions sweep;
    sweep.window = w;
    sweep.alpha = options.alpha;
    auto failed = ts::FailedWindowTests(series, sweep);
    MOCHE_RETURN_IF_ERROR(failed.status());

    std::vector<ts::WindowTest> eligible;
    for (const ts::WindowTest& wt : *failed) {
      if (options.require_labeled_anomaly && series.has_labels() &&
          !ts::TestWindowHasLabeledAnomaly(series, wt)) {
        continue;
      }
      eligible.push_back(wt);
    }
    // Uniform sample per (series, window) combination, as in the paper,
    // from this combination's own deterministic stream.
    Rng rng(CombinationSeed(options.seed, series_index, wi));
    std::vector<size_t> pick;
    if (eligible.size() > options.sample_per_combination) {
      pick = rng.SampleWithoutReplacement(eligible.size(),
                                          options.sample_per_combination);
      // moche-lint: allow(sort-doubles): index vector of size_t, no doubles involved
      std::sort(pick.begin(), pick.end());
    } else {
      for (size_t i = 0; i < eligible.size(); ++i) pick.push_back(i);
    }

    for (size_t i : pick) {
      const ts::WindowTest& wt = eligible[i];
      ExperimentInstance inst;
      inst.dataset = dataset_name;
      inst.series = series.name;
      inst.window = w;
      inst.test_begin = wt.test_begin;
      inst.instance = ts::MakeInstance(series, wt, options.alpha);
      // preference = SR scores of the test window, descending
      std::vector<double> window_scores(
          sr->begin() + static_cast<long>(wt.test_begin),
          sr->begin() + static_cast<long>(wt.test_begin + w));
      inst.preference = PreferenceByScoreDesc(window_scores);
      out->push_back(std::move(inst));
    }
  }
  return Status::OK();
}

// Threads for one pool running `count` tasks: the num_threads knob capped
// at the task count (an idle thread only costs its startup), and at least
// one (a count of 0 must not read as ThreadPool's "one per core").
size_t PoolThreads(size_t num_threads, size_t count) {
  return std::max<size_t>(1, std::min(ResolveThreadCount(num_threads), count));
}

}  // namespace

Result<std::vector<ExperimentInstance>> CollectFailedInstances(
    const ts::Dataset& dataset, const CollectOptions& options) {
  const size_t num_series = dataset.series.size();
  std::vector<std::vector<ExperimentInstance>> per_series(num_series);
  std::vector<Status> statuses(num_series);

  ThreadPool pool(PoolThreads(options.num_threads, num_series));
  pool.ParallelFor(num_series, [&](size_t s) {
    statuses[s] = CollectFromSeries(dataset.name, dataset.series[s], s,
                                    options, &per_series[s]);
  });

  // Merge in input (series) order; report the first error in that order so
  // failures are as deterministic as successes.
  std::vector<ExperimentInstance> out;
  size_t total = 0;
  for (size_t s = 0; s < num_series; ++s) {
    MOCHE_RETURN_IF_ERROR(statuses[s]);
    total += per_series[s].size();
  }
  out.reserve(total);
  for (std::vector<ExperimentInstance>& chunk : per_series) {
    for (ExperimentInstance& inst : chunk) out.push_back(std::move(inst));
  }
  return out;
}

std::vector<InstanceResults> RunMethods(
    const std::vector<ExperimentInstance>& instances,
    const std::vector<baselines::Explainer*>& methods,
    const RunOptions& options) {
  std::vector<InstanceResults> results(instances.size());
  // One reusable explain workspace per worker thread: workers run
  // instances back to back, so the scratch arenas (sorted copies, frames,
  // bounds/builder buffers) stop allocating once warm. Scratch only —
  // results are written per instance slot, so the output is independent of
  // which worker ran which instance.
  ThreadPool pool(PoolThreads(options.num_threads, instances.size()));
  std::vector<ExplainWorkspace> workspaces(pool.num_threads());
  // One task per instance; each task writes only results[i], so the merged
  // vector is in input order and identical to the sequential run.
  pool.ParallelForWorker(instances.size(), [&](size_t worker, size_t i) {
    const ExperimentInstance& inst = instances[i];
    WallTimer task_timer;
    InstanceResults record;
    record.instance = &inst;
    record.outcomes.reserve(methods.size());
    for (baselines::Explainer* method : methods) {
      MethodOutcome outcome;
      outcome.method = method->name();
      WallTimer timer;
      auto expl = method->ExplainReusing(inst.instance, inst.preference,
                                         &workspaces[worker]);
      outcome.seconds = timer.Seconds();
      if (expl.ok()) {
        outcome.produced = true;
        outcome.size = expl->size();
        outcome.rmse = ExplanationRmse(inst.instance, *expl);
      } else {
        outcome.code = expl.status().code();
      }
      record.outcomes.push_back(std::move(outcome));
    }
    record.seconds = task_timer.Seconds();
    results[i] = std::move(record);
  });
  return results;
}

std::vector<InstanceResults> RunMethods(
    const std::vector<ExperimentInstance>& instances,
    const std::vector<baselines::Explainer*>& methods) {
  return RunMethods(instances, methods, RunOptions{});
}

Result<std::vector<MethodAggregate>> Aggregate(
    const std::vector<InstanceResults>& results) {
  std::vector<MethodAggregate> agg;
  if (results.empty()) return agg;
  const size_t num_methods = results.front().outcomes.size();
  agg.resize(num_methods);
  for (size_t j = 0; j < num_methods; ++j) {
    agg[j].method = results.front().outcomes[j].method;
  }

  // Shape validation: indexing by the first record's method count is only
  // sound when every record lists the same methods in the same order.
  for (size_t rec = 0; rec < results.size(); ++rec) {
    const InstanceResults& record = results[rec];
    if (record.outcomes.size() != num_methods) {
      return Status::InvalidArgument(StrFormat(
          "ragged results: record %zu has %zu outcomes, record 0 has %zu",
          rec, record.outcomes.size(), num_methods));
    }
    for (size_t j = 0; j < num_methods; ++j) {
      if (record.outcomes[j].method != agg[j].method) {
        return Status::InvalidArgument(StrFormat(
            "method mismatch: record %zu outcome %zu is '%s', expected '%s'",
            rec, j, record.outcomes[j].method.c_str(),
            agg[j].method.c_str()));
      }
    }
  }

  for (const InstanceResults& record : results) {
    const bool all_produced =
        std::all_of(record.outcomes.begin(), record.outcomes.end(),
                    [](const MethodOutcome& o) { return o.produced; });
    // ISE over the instances where every method produced (paper rule).
    std::vector<int> ise;
    if (all_produced) {
      std::vector<size_t> sizes;
      for (const MethodOutcome& o : record.outcomes) sizes.push_back(o.size);
      ise = IsSmallestExplanation(sizes);
    }
    for (size_t j = 0; j < num_methods; ++j) {
      const MethodOutcome& o = record.outcomes[j];
      ++agg[j].attempted;
      agg[j].avg_seconds += o.seconds;
      if (o.produced) {
        ++agg[j].produced;
        agg[j].avg_rmse += o.rmse;
      }
      if (all_produced) {
        ++agg[j].ise_counted;
        agg[j].avg_ise += static_cast<double>(ise[j]);
      }
    }
  }

  for (MethodAggregate& a : agg) {
    if (a.ise_counted > 0) a.avg_ise /= static_cast<double>(a.ise_counted);
    if (a.produced > 0) a.avg_rmse /= static_cast<double>(a.produced);
    if (a.attempted > 0) {
      a.reverse_factor =
          static_cast<double>(a.produced) / static_cast<double>(a.attempted);
      a.avg_seconds /= static_cast<double>(a.attempted);
    }
  }
  return agg;
}

}  // namespace harness
}  // namespace moche
