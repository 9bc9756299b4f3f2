// A minimal fixed-size thread pool and a deterministic ParallelFor.
//
// The pool exists so the experiment harness (and any future sharding/async
// layer) can fan independent instances out across cores without external
// dependencies. Design constraints, in order:
//
//  * Deterministic task->index mapping: ParallelFor(count, fn) calls fn(i)
//    exactly once for every i in [0, count). Which worker runs which index
//    is unspecified, but because every task knows its own index, callers
//    write results into slot i and the merged output is identical to the
//    sequential loop regardless of scheduling.
//  * Exception-free: the library communicates failure through Status, never
//    by throwing. Tasks must not throw; an escaping exception would cross a
//    thread boundary and terminate the process.
//  * No oversubscription surprises: a pool of one thread (or a count of one
//    task) runs inline on the caller with no synchronization at all, so the
//    single-threaded configuration is exactly the sequential code path.
//
// Ownership & thread-safety: a ThreadPool owns its workers and joins them
// in the destructor. The pool itself is single-driver — ParallelFor must
// not be called concurrently from multiple threads, and tasks must not
// call ParallelFor on the pool running them (no re-entrancy). Tasks may
// freely share immutable state; anything mutable must be per-index (the
// slot-writing rule above). The repo-wide thread-count convention is
// 1 = sequential, 0 = one thread per hardware core (ResolveThreadCount).

#ifndef MOCHE_UTIL_PARALLEL_H_
#define MOCHE_UTIL_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace moche {

/// The number of hardware threads, with a floor of 1 (the standard allows
/// std::thread::hardware_concurrency() to return 0 when unknown).
size_t HardwareConcurrency();

/// Resolves a user-facing thread-count knob: 0 means "one per hardware
/// core", anything else is taken literally.
size_t ResolveThreadCount(size_t requested);

namespace internal {

/// The state of one ParallelFor call. Heap-allocated and shared between the
/// caller and the workers so that a worker descheduled across the end of a
/// job can only ever touch that job's own (already drained) counters, never
/// a successor job's. fn receives (worker, index); plain ParallelFor wraps
/// its index-only callback.
struct ParallelJob {
  std::function<void(size_t, size_t)> fn;
  size_t count = 0;
  std::atomic<size_t> next_index{0};
  std::atomic<size_t> done_count{0};
};

}  // namespace internal

/// A fixed pool of worker threads executing one ParallelFor at a time.
///
/// Reuse one pool across many ParallelFor calls to amortize thread startup;
/// the workers sleep between calls. The pool itself is NOT thread-safe:
/// ParallelFor must not be called concurrently from multiple threads, and
/// tasks must not call ParallelFor on the pool that is running them.
class ThreadPool {
 public:
  /// Spawns ResolveThreadCount(num_threads) - 1 workers (the calling thread
  /// is the remaining one: it participates in every ParallelFor).
  explicit ThreadPool(size_t num_threads);

  /// Blocks until all workers have exited. Must not race a ParallelFor.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute tasks (workers + the calling thread).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs fn(i) exactly once for every i in [0, count), distributing
  /// indices across the pool, and returns once all calls completed.
  /// fn must be safe to call concurrently for distinct indices and must
  /// not throw.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  /// As ParallelFor, but fn additionally receives the stable index of the
  /// thread running it: fn(worker, i) with worker in [0, num_threads()),
  /// where worker 0 is the calling thread. Two tasks with the same worker
  /// index never run concurrently, so callers can hand each worker its own
  /// mutable scratch (e.g. an ExplainWorkspace) without synchronization —
  /// the worker-indexed workspace pools of harness::RunMethods and
  /// stream::DriftMonitor. Which indices land on which worker is
  /// unspecified; anything worker-indexed must therefore be scratch only,
  /// never part of the output (the slot-i output rule above keeps results
  /// deterministic).
  void ParallelForWorker(size_t count,
                         const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop(size_t worker);

  /// Claims and runs indices of `job` until none remain; wakes the caller
  /// after finishing the job's last task. `worker` is the stable index of
  /// the draining thread (0 = the ParallelForWorker caller).
  void Drain(internal::ParallelJob& job, size_t worker);

  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar job_cv_;   // workers wait here for a new job
  CondVar done_cv_;  // the caller waits here for completion
  bool stop_ MOCHE_GUARDED_BY(mutex_) = false;
  // +1 per ParallelFor; workers compare against the last generation they
  // drained to tell a fresh job from a wakeup for an already-retired one.
  uint64_t generation_ MOCHE_GUARDED_BY(mutex_) = 0;
  std::shared_ptr<internal::ParallelJob> job_ MOCHE_GUARDED_BY(mutex_);
};

}  // namespace moche

#endif  // MOCHE_UTIL_PARALLEL_H_
