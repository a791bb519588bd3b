// Minimal work-queue thread pool. It runs PSV-ICD's SuperVoxel waves
// (Alg. 2), the gsim executor's split launches (GPU-ICD's update kernel, one
// task per SV), FBP, the forward/back projectors, system-matrix
// construction and phantom rasterization; the shard runner keeps a private
// one to step its devices. parallelFor provides dynamic (chunked)
// scheduling, matching how PSV-ICD distributes SuperVoxels across cores.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mbir {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return unsigned(workers_.size()); }

  /// Enqueue a task; returns immediately. A task that throws does not kill
  /// the worker (or the process): the first exception is stashed and
  /// rethrown by the next wait().
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished; rethrows the first
  /// exception any task threw since the last wait().
  void wait();

  /// Run fn(i) for i in [begin, end) across the pool with dynamic
  /// self-scheduling in blocks of `grain`. Blocks until complete.
  /// Exceptions from fn propagate (first one wins). Completion is tracked
  /// per call, so any number of external threads can run parallelFor on the
  /// same pool concurrently without waiting on each other's work (the
  /// service's device threads share the process-wide pool this way). Must
  /// not be called from inside a pool task of the same pool.
  void parallelFor(int begin, int end, const std::function<void(int)>& fn,
                   int grain = 1);

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  int in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;  // from submit()ed tasks; guarded by mu_
};

/// Process-wide pool (lazily constructed); every user above shares it unless
/// handed a pool of its own.
ThreadPool& globalThreadPool();

}  // namespace mbir
