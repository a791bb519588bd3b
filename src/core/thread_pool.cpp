#include "core/thread_pool.h"

#include <exception>

#include "core/error.h"

namespace mbir {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    MBIR_CHECK(!stop_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // A throwing task must not escape the worker thread (std::terminate)
    // or leave in_flight_ short — catch, stash the first error for wait(),
    // and keep the completion accounting exact. parallelFor's helpers do
    // their own per-call catch and never reach this path with an exception.
    try {
      task();
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      if (--in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallelFor(int begin, int end,
                             const std::function<void(int)>& fn, int grain) {
  MBIR_CHECK(grain >= 1);
  if (begin >= end) return;
  const int n = end - begin;
  if (n <= grain || size() == 1) {
    for (int i = begin; i < end; ++i) fn(i);
    return;
  }

  // Completion is tracked per call, not via the pool-global wait(): several
  // threads may drive independent parallelFor calls on one pool at once
  // (the service's device threads do), and none of them may block on
  // another call's tasks.
  std::atomic<int> next{begin};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex call_mu;  // guards first_error and helpers_left
  std::condition_variable call_cv;
  int helpers_left = 0;

  auto body = [&] {
    for (;;) {
      const int start = next.fetch_add(grain, std::memory_order_relaxed);
      if (start >= end || failed.load(std::memory_order_relaxed)) return;
      const int stop = std::min(end, start + grain);
      try {
        for (int i = start; i < stop; ++i) fn(i);
      } catch (...) {
        std::lock_guard lock(call_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const unsigned tasks = std::min<unsigned>(size(), unsigned((n + grain - 1) / grain));
  helpers_left = int(tasks) - 1;
  for (unsigned t = 1; t < tasks; ++t) {
    submit([&] {
      body();
      // Notify under the lock: the waiter owns call_cv on its stack and
      // destroys it as soon as it sees helpers_left == 0, so the notify
      // must complete before this thread releases the mutex.
      std::lock_guard lock(call_mu);
      if (--helpers_left == 0) call_cv.notify_all();
    });
  }
  body();  // caller participates
  {
    std::unique_lock lock(call_mu);
    call_cv.wait(lock, [&] { return helpers_left == 0; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& globalThreadPool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mbir
