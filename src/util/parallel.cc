#include "util/parallel.h"

namespace moche {

size_t HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

size_t ResolveThreadCount(size_t requested) {
  if (requested == 0) return HardwareConcurrency();
  return requested;
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t total = ResolveThreadCount(num_threads);
  workers_.reserve(total - 1);
  for (size_t i = 0; i + 1 < total; ++i) {
    // Worker index 0 is reserved for the ParallelFor caller; spawned
    // workers take 1..total-1.
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    stop_ = true;
  }
  job_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  // Inline fast path: nothing to distribute, or nobody to distribute to.
  if (workers_.empty() || count == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ParallelForWorker(count, [&fn](size_t /*worker*/, size_t i) { fn(i); });
}

void ThreadPool::ParallelForWorker(
    size_t count, const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) return;
  // Inline fast path mirroring ParallelFor: the caller is worker 0.
  if (workers_.empty() || count == 1) {
    for (size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }

  auto job = std::make_shared<internal::ParallelJob>();
  job->fn = fn;
  job->count = count;
  {
    MutexLock lock(&mutex_);
    job_ = job;
    ++generation_;
  }
  job_cv_.NotifyAll();

  // The calling thread drains indices alongside the workers.
  Drain(*job, /*worker=*/0);

  MutexLock lock(&mutex_);
  while (job->done_count.load(std::memory_order_acquire) != job->count) {
    done_cv_.Wait(mutex_);
  }
  if (job_ == job) job_ = nullptr;
}

void ThreadPool::Drain(internal::ParallelJob& job, size_t worker) {
  for (size_t i = job.next_index.fetch_add(1, std::memory_order_relaxed);
       i < job.count;
       i = job.next_index.fetch_add(1, std::memory_order_relaxed)) {
    job.fn(worker, i);
    if (job.done_count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.count) {
      // Last task overall: wake the caller. Taking the mutex orders this
      // notify after the caller entered its wait, closing the missed-wakeup
      // window.
      MutexLock lock(&mutex_);
      done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::WorkerLoop(size_t worker) {
  uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<internal::ParallelJob> job;
    {
      // An explicit predicate loop (not the lambda-predicate wait): the
      // guarded reads stay in this function's scope, where the analysis
      // can see the lock is held.
      MutexLock lock(&mutex_);
      while (!stop_ && generation_ == seen_generation) job_cv_.Wait(mutex_);
      if (stop_) return;
      seen_generation = generation_;
      job = job_;  // null when the job already retired; just wait again
    }
    if (job != nullptr) Drain(*job, worker);
  }
}

}  // namespace moche
