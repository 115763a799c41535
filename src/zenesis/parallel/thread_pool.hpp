#pragma once
// Thread pool with a shared work queue.
//
// The pool is the single parallel substrate for the whole library: tensor
// kernels, the synthetic FIB-SEM generator, and Mode-B batch processing all
// schedule through it, so thread counts are controlled in one place.
//
// Re-entrancy: a task running on a pool worker may itself fork and join
// on the same pool through the helpers in parallel_for.hpp — e.g. a
// Mode-B slice task whose filters call parallel_for. The joining thread
// runs only its own loop's chunks and then waits for chunks other threads
// are already running, so nested fork/join cannot deadlock the pool and a
// waiter never runs an unrelated queued task on its stack.
//
// Exceptions: a throwing task no longer terminates the process. The first
// exception is captured and rethrown from the next `wait_idle()` call;
// later exceptions raised before that call are dropped. Tasks still queued
// or running keep executing. The destructor drains the queue and swallows
// captured exceptions (destructors cannot throw).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace zenesis::parallel {

/// Fixed-size worker pool. Tasks are `void()` callables.
class ThreadPool {
 public:
  /// Creates `threads` workers. `threads == 0` resolves to
  /// `std::thread::hardware_concurrency()` (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task for asynchronous execution. The submitter's obs
  /// trace id travels with the task and is reinstated around its run, so
  /// spans emitted inside pool tasks stitch to the request that spawned
  /// them even though they execute on a different thread.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all running tasks have finished.
  /// Rethrows the first exception captured from a task since the previous
  /// wait_idle (the capture slot is cleared on rethrow).
  void wait_idle();

  /// Process-wide default pool, created on first use with one worker per
  /// hardware thread.
  static ThreadPool& global();

 private:
  /// Queued unit: the callable plus the obs trace id captured at submit.
  struct Task {
    std::function<void()> fn;
    std::uint64_t trace_id = 0;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace zenesis::parallel
