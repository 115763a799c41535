#include "zenesis/parallel/parallel_for.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

namespace zenesis::parallel {
namespace {

/// Fork/join bookkeeping for one batch of submitted chunks: a countdown
/// latch that (a) records the first exception thrown by a chunk so the
/// caller can rethrow it, and (b) *helps* — while waiting, the caller
/// drains tasks from the pool's queue. Helping is what makes nested
/// parallelism safe: a chunk running on a worker can itself fork and join
/// on the same pool without parking the worker.
class TaskGroup {
 public:
  explicit TaskGroup(std::size_t count) : count_(count) {}

  /// Marks one chunk finished, recording its exception (if any).
  void finish(std::exception_ptr error) {
    std::lock_guard lock(mutex_);
    if (error && !error_) error_ = error;
    if (--count_ == 0) cv_.notify_all();
  }

  /// Runs `body` for one chunk, routing any exception into the group.
  template <typename Fn>
  void run(Fn&& body) {
    std::exception_ptr error;
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
    finish(error);
  }

  /// Blocks until every chunk has finished, executing queued pool tasks
  /// while waiting. Rethrows the first chunk exception.
  void wait(ThreadPool& pool) {
    for (;;) {
      {
        std::lock_guard lock(mutex_);
        if (count_ == 0) break;
      }
      if (pool.try_run_one()) continue;
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return count_ == 0; });
      break;
    }
    std::lock_guard lock(mutex_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t count_;
  std::exception_ptr error_;
};

constexpr std::int64_t kSerialCutoff = 256;

}  // namespace

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body,
                  ThreadPool& pool) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const std::int64_t workers = static_cast<std::int64_t>(pool.size());
  if (workers <= 1 || n < kSerialCutoff) {
    for (std::int64_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::int64_t chunks = std::min<std::int64_t>(workers, n);
  const std::int64_t per = (n + chunks - 1) / chunks;
  TaskGroup group(static_cast<std::size_t>(chunks));
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t lo = begin + c * per;
    const std::int64_t hi = std::min(end, lo + per);
    pool.submit([lo, hi, &body, &group] {
      group.run([&] {
        for (std::int64_t i = lo; i < hi; ++i) body(i);
      });
    });
  }
  group.wait(pool);
}

void parallel_for_chunked(std::int64_t begin, std::int64_t end,
                          std::int64_t grain,
                          const std::function<void(std::int64_t, std::int64_t)>& body,
                          ThreadPool& pool) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t workers = static_cast<std::int64_t>(pool.size());
  if (workers <= 1 || n <= grain) {
    body(begin, end);
    return;
  }
  auto next = std::make_shared<std::atomic<std::int64_t>>(begin);
  const std::int64_t tasks = std::min<std::int64_t>(workers, (n + grain - 1) / grain);
  TaskGroup group(static_cast<std::size_t>(tasks));
  for (std::int64_t t = 0; t < tasks; ++t) {
    pool.submit([next, end, grain, &body, &group] {
      group.run([&] {
        for (;;) {
          const std::int64_t lo = next->fetch_add(grain);
          if (lo >= end) break;
          body(lo, std::min(end, lo + grain));
        }
      });
    });
  }
  group.wait(pool);
}

}  // namespace zenesis::parallel
