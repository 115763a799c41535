#include "zenesis/parallel/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

namespace zenesis::parallel {
namespace {

using ChunkBody = std::function<void(std::int64_t, std::int64_t)>;

/// One fork/join loop over `chunks` chunks of `grain` iterations. The
/// caller and its helper tasks claim chunk indices from `next` and run
/// them; the caller then sleeps until every claimed chunk has finished.
/// Helpers co-own the loop, so a helper that starts after the caller has
/// returned finds the cursor exhausted and leaves without touching `body`.
struct Loop {
  Loop(std::int64_t lo, std::int64_t hi, std::int64_t step, const ChunkBody& fn)
      : begin(lo), end(hi), grain(step), chunks((hi - lo + step - 1) / step),
        body(&fn) {}

  /// Claims and runs chunks until none are left, then reports how many
  /// this thread ran and the first exception among them.
  void drain() {
    std::int64_t ran = 0;
    std::exception_ptr first;
    for (std::int64_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) < chunks;
         ++ran) {
      const std::int64_t lo = begin + c * grain;
      try {
        (*body)(lo, std::min(end, lo + grain));
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (ran == 0) return;
    std::lock_guard lock(mutex);
    if (first && !error) error = first;
    finished += ran;
    if (finished == chunks) cv.notify_all();
  }

  const std::int64_t begin, end, grain, chunks;
  const ChunkBody* body;
  std::atomic<std::int64_t> next{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::int64_t finished = 0;
  std::exception_ptr error;
};

/// Runs the loop on the caller plus `min(workers, chunks) - 1` helpers.
void run_loop(std::int64_t begin, std::int64_t end, std::int64_t grain,
              const ChunkBody& body, ThreadPool& pool) {
  auto loop = std::make_shared<Loop>(begin, end, grain, body);
  const std::int64_t helpers =
      std::min<std::int64_t>(static_cast<std::int64_t>(pool.size()), loop->chunks) - 1;
  for (std::int64_t h = 0; h < helpers; ++h) {
    pool.submit([loop] { loop->drain(); });
  }
  loop->drain();
  std::unique_lock lock(loop->mutex);
  loop->cv.wait(lock, [&] { return loop->finished == loop->chunks; });
  if (loop->error) std::rethrow_exception(loop->error);
}

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
  const std::int64_t chunks = std::min(workers, n);
  run_loop(begin, end, (n + chunks - 1) / chunks,
           [&body](std::int64_t lo, std::int64_t hi) {
             for (std::int64_t i = lo; i < hi; ++i) body(i);
           },
           pool);
}

void parallel_for_chunked(std::int64_t begin, std::int64_t end,
                          std::int64_t grain, const ChunkBody& body,
                          ThreadPool& pool) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  if (pool.size() <= 1 || n <= grain) {
    body(begin, end);
    return;
  }
  run_loop(begin, end, grain, body, pool);
}

}  // namespace zenesis::parallel
