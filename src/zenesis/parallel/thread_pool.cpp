#include "zenesis/parallel/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "zenesis/obs/trace.hpp"

namespace zenesis::parallel {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(Task{std::move(task), obs::current_trace_id()});
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      // Reinstate the submitter's trace id for the task's duration so
      // spans recorded inside it carry the originating request's id.
      obs::TraceScope trace(task.trace_id);
      obs::Span span("pool.run");
      task.fn();
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(mutex_);
    if (error && !first_error_) first_error_ = error;
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
  }
}

}  // namespace zenesis::parallel
