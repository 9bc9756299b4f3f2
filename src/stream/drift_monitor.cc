#include "stream/drift_monitor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ks/ks_test.h"
#include "util/simd.h"
#include "util/sort.h"
#include "util/string_util.h"

namespace moche {
namespace stream {

bool SameEventLogs(const std::vector<DriftEvent>& a,
                   const std::vector<DriftEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const DriftEvent& x = a[i];
    const DriftEvent& y = b[i];
    if (x.stream != y.stream || x.tick != y.tick ||
        x.outcome.statistic != y.outcome.statistic ||
        x.outcome.threshold != y.outcome.threshold ||
        x.explain_status.code() != y.explain_status.code()) {
      return false;
    }
    if (x.explain_status.ok() &&
        (x.report.k != y.report.k || x.report.k_hat != y.report.k_hat ||
         x.report.explanation.indices != y.report.explanation.indices)) {
      return false;
    }
  }
  return true;
}

void DriftMonitor::Stream::WindowContentsInto(
    std::vector<double>* out) const {
  if (detector.has_value()) {
    detector->WindowContentsInto(out);
    return;
  }
  out->clear();
  out->reserve(window);
  if (ring.size() < window) {
    out->insert(out->end(), ring.begin(), ring.end());
    return;
  }
  // Full ring: oldest lives at ring_head.
  out->insert(out->end(),
              ring.begin() + static_cast<ptrdiff_t>(ring_head), ring.end());
  out->insert(out->end(), ring.begin(),
              ring.begin() + static_cast<ptrdiff_t>(ring_head));
}

Status DriftMonitor::Stream::Push(double v) {
  if (detector.has_value()) return detector->Push(v);
  if (ring.size() < window) {
    // Filling phase (no reallocation within AddStream's reservation).
    ring.push_back(v);
  } else {
    // Drop one copy of the evicted value from the sorted window; the
    // insert below then stays within the capacity it freed.
    sorted.erase(std::lower_bound(sorted.begin(), sorted.end(),
                                  ring[ring_head]));
    ring[ring_head] = v;
    ring_head = (ring_head + 1) % window;
  }
  sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), v), v);
  return Status::OK();
}

DriftMonitor::DriftMonitor(const MonitorOptions& options)
    : options_(options),
      engine_(options.moche),
      state_mutex_(std::make_unique<Mutex>()),
      cache_(std::make_unique<PreparedReferenceCache>(
          PreparedReferenceCache::Options{options.cache_capacity})) {
  const size_t threads = ResolveThreadCount(options.num_threads);
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options.num_threads);
  }
  // One scratch slot per worker (slot 0 is the PushBatch caller); the
  // workspaces themselves are created on first use.
  worker_scratch_.resize(pool_ != nullptr ? pool_->num_threads() : 1);
}

Result<DriftMonitor> DriftMonitor::Create(const MonitorOptions& options) {
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(options.alpha));
  if (options.rearm == RearmPolicy::kEveryKPushes &&
      options.explain_every_k == 0) {
    return Status::InvalidArgument(
        "kEveryKPushes needs explain_every_k >= 1");
  }
  if (options.reference_mode == ReferenceMode::kSketched &&
      (options.sketch_k < sketch::KllSketch::kMinCapacity ||
       options.sketch_k > sketch::KllSketch::kMaxCapacity)) {
    return Status::InvalidArgument(
        StrFormat("sketch_k %zu outside [%zu, %zu]", options.sketch_k,
                  sketch::KllSketch::kMinCapacity,
                  sketch::KllSketch::kMaxCapacity));
  }
  return DriftMonitor(options);
}

Result<size_t> DriftMonitor::AddStream(std::string name,
                                       const std::vector<double>& reference,
                                       size_t window_size) {
  // Stream-local checks run first, so a rejected stream interns nothing.
  Stream stream;
  stream.name = std::move(name);
  const bool sketched = options_.reference_mode == ReferenceMode::kSketched;
  if (sketched) {
    if (window_size == 0) {
      return Status::InvalidArgument("window_size must be >= 1");
    }
    stream.window = window_size;
    stream.ring.reserve(window_size);
    stream.sorted.reserve(window_size);
  } else {
    MOCHE_ASSIGN_OR_RETURN(
        StreamingKs detector,
        StreamingKs::Create(reference, window_size, options_.alpha));
    stream.detector.emplace(std::move(detector));
  }
  // Both modes keep the exact interned form: sketched streams fall back to
  // it for uncertain windows and every explanation runs against it. A
  // sketched stream's KLL summary is interned by the same lookup.
  sketch::KllOptions kll;
  kll.capacity = options_.sketch_k;
  MOCHE_ASSIGN_OR_RETURN(
      stream.prepared,
      cache_->GetOrPrepare(engine_, reference, options_.alpha,
                           sketched ? &stream.sketched : nullptr, kll));
  MutexLock lock(state_mutex_.get());
  streams_.push_back(std::move(stream));
  return streams_.size() - 1;
}

DriftMonitor::WorkerScratch& DriftMonitor::ScratchFor(size_t worker) {
  if (worker_scratch_[worker] == nullptr) {
    worker_scratch_[worker] = std::make_unique<WorkerScratch>();
  }
  return *worker_scratch_[worker];
}

DriftEvent DriftMonitor::Explain(size_t worker, size_t i,
                                 const KsOutcome& outcome) {
  WorkerScratch& scratch = ScratchFor(worker);
  Stream& s = streams_[i];
  DriftEvent event;
  event.stream = i;
  event.tick = s.ticks;
  event.outcome = outcome;
  s.WindowContentsInto(&scratch.window);
  IdentityPreferenceInto(scratch.window.size(), &scratch.pref);
  if (options_.preference == WindowPreference::kNewestFirst) {
    std::reverse(scratch.pref.begin(), scratch.pref.end());
  }
  // The report is written straight into the event (which outlives the call
  // in the log); all transient scratch lives in the worker's workspace.
  const Status status = engine_.ExplainPreparedInto(
      *s.prepared, scratch.window, scratch.pref, &scratch.workspace,
      &event.report);
  if (!status.ok()) event.explain_status = status;
  return event;
}

KsOutcome DriftMonitor::ExactWindowOutcome(const Stream& s,
                                           std::vector<double>* window) {
  // Sorted from window order, not read off s.sorted: its ±0.0 twins sit in
  // arrival order on a live stream but in SortFinite's order after a
  // restore, so only this sort gives both the same `location` bits, the
  // ones ks::Run gives. PushBatch's all_finite screens every live
  // observation, and monitor_codec.cc's restore-time ring check every
  // restored one.
  s.WindowContentsInto(window);
  // moche-lint: allow(sort-doubles): ring values are screened finite (above)
  SortFinite(window);
  return ks::internal::RunSortedUnchecked(s.prepared->sorted_reference(),
                                          *window, s.prepared->alpha());
}

Result<bool> DriftMonitor::JudgeWindow(size_t worker, Stream* s,
                                       std::optional<KsOutcome>* outcome) {
  if (s->detector.has_value()) {
    // Validated at construction and the window is full: CurrentOutcome
    // cannot fail.
    MOCHE_ASSIGN_OR_RETURN(*outcome, s->detector->CurrentOutcome());
    return (*outcome)->reject;
  }
  // PushBatch screened every observation, so this check cannot fire; it
  // stays as the triage input's own screen.
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(s->sorted, "test set"));
  const sketch::SketchTriage triage = s->sketched->Classify(
      s->sketched->StatisticAgainstSorted(s->sorted), s->sorted.size());
  switch (triage.verdict) {
    case sketch::TriageVerdict::kCertainPass:
      ++s->triage_certified_pass;
      return false;
    case sketch::TriageVerdict::kCertainFail:
      ++s->triage_certified_fail;
      return true;
    case sketch::TriageVerdict::kUncertain:
      break;
  }
  ++s->triage_fallbacks;
  *outcome = ExactWindowOutcome(*s, &ScratchFor(worker).window);
  return (*outcome)->reject;
}

Status DriftMonitor::DrainStream(size_t worker, size_t i,
                                 const std::vector<double>& values,
                                 std::vector<DriftEvent>* out) {
  Stream& s = streams_[i];
  for (double v : values) {
    MOCHE_RETURN_IF_ERROR(s.Push(v));
    ++s.ticks;
    if (!s.WindowFull()) continue;
    std::optional<KsOutcome> outcome;
    MOCHE_ASSIGN_OR_RETURN(const bool reject,
                           JudgeWindow(worker, &s, &outcome));
    if (!reject) {
      s.in_excursion = false;
      continue;
    }
    ++s.drift_ticks;
    bool fire = false;
    if (!s.in_excursion) {
      s.in_excursion = true;
      fire = true;
    } else if (options_.rearm == RearmPolicy::kEveryKPushes) {
      fire = s.pushes_since_explained + 1 >= options_.explain_every_k;
    }
    if (!fire) {
      ++s.pushes_since_explained;
      continue;
    }
    if (!outcome.has_value()) {
      // A certified fail: the exact outcome is paid for only now that the
      // push fires.
      outcome = ExactWindowOutcome(s, &ScratchFor(worker).window);
    }
    out->push_back(Explain(worker, i, *outcome));
    s.pushes_since_explained = 0;
  }
  return Status::OK();
}

Status DriftMonitor::PushBatch(
    const std::vector<std::vector<double>>& observations) {
  if (observations.size() != streams_.size()) {
    return Status::InvalidArgument(
        StrFormat("batch has %zu slots for %zu streams",
                  observations.size(), streams_.size()));
  }
  // Validate before fanning out: workers must not fail mid-stream (a
  // partial drain would leave detector windows half-advanced). One SIMD
  // finiteness pass per stream slot (util/simd.h).
  const simd::Kernels& kernels = simd::ActiveKernels();
  for (size_t i = 0; i < observations.size(); ++i) {
    if (!kernels.all_finite(observations[i].data(), observations[i].size())) {
      return Status::InvalidArgument(
          StrFormat("non-finite observation for stream %zu ('%s')", i,
                    streams_[i].name.c_str()));
    }
  }

  // Everything past validation mutates monitor state, so it runs under the
  // state mutex: a concurrent persist::CheckpointMonitor serializes either
  // the pre-batch or the post-batch state, never a torn one.
  MutexLock lock(state_mutex_.get());

  // Stream i's task writes only slot i; the merge below is therefore
  // independent of which worker ran which stream. The buffers are monitor
  // members: clear() keeps their capacity, so a warmed-up batch that fires
  // no event allocates nothing here.
  batch_buffers_.resize(streams_.size());
  for (std::vector<DriftEvent>& buffer : batch_buffers_) buffer.clear();
  batch_statuses_.assign(streams_.size(), Status::OK());
  const auto task = [&](size_t worker, size_t i) {
    batch_statuses_[i] =
        DrainStream(worker, i, observations[i], &batch_buffers_[i]);
  };
  if (pool_ != nullptr) {
    pool_->ParallelForWorker(streams_.size(), task);
  } else {
    for (size_t i = 0; i < streams_.size(); ++i) task(/*worker=*/0, i);
  }

  size_t fired = 0;
  for (size_t i = 0; i < streams_.size(); ++i) {
    MOCHE_RETURN_IF_ERROR(batch_statuses_[i]);
    fired += batch_buffers_[i].size();
  }
  if (fired == 0) return Status::OK();

  // Merge in (tick, stream) order: deterministic for any thread count, and
  // — when streams are fed in lockstep — also independent of how the
  // caller batches the ticks.
  std::vector<DriftEvent>& merged = batch_merged_;
  merged.clear();
  merged.reserve(fired);
  for (std::vector<DriftEvent>& buffer : batch_buffers_) {
    for (DriftEvent& event : buffer) {
      merged.push_back(std::move(event));
    }
  }
  // moche-lint: allow(sort-doubles): keyed on integer (tick, stream) only
  std::stable_sort(merged.begin(), merged.end(),
                   [](const DriftEvent& a, const DriftEvent& b) {
                     return a.tick != b.tick ? a.tick < b.tick
                                             : a.stream < b.stream;
                   });
  for (DriftEvent& event : merged) {
    events_.push_back(std::move(event));
    ++explanations_total_;
  }
  merged.clear();
  return Status::OK();
}

DriftMonitor::Stats DriftMonitor::stats() const {
  Stats s;
  s.streams = streams_.size();
  for (const Stream& stream : streams_) {
    s.observations += stream.ticks;
    s.drift_ticks += stream.drift_ticks;
    s.triage_certified_pass += stream.triage_certified_pass;
    s.triage_certified_fail += stream.triage_certified_fail;
    s.triage_fallbacks += stream.triage_fallbacks;
  }
  s.explanations = explanations_total_;
  for (const std::unique_ptr<WorkerScratch>& scratch : worker_scratch_) {
    if (scratch == nullptr) continue;
    ++s.workspaces_created;
    s.workspace_bytes += scratch->FootprintBytes();
  }
  return s;
}

}  // namespace stream
}  // namespace moche
