#pragma once
// Data-parallel loop helpers on top of ThreadPool.
//
// Both helpers block until every iteration has finished, so callers can
// use them as drop-in replacements for serial loops. They share one
// fork/join path: the range is cut into contiguous chunks, and the caller
// plus up to `workers - 1` helper tasks claim chunks from an atomic cursor
// until none are left. The caller then sleeps until the chunks other
// threads claimed have finished; it never runs an unrelated queued task,
// and a nested loop on the same pool still finishes because every chunk
// it waits for is already running. The first exception thrown by a chunk
// is rethrown to the caller after all chunks have run.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "zenesis/parallel/thread_pool.hpp"

namespace zenesis::parallel {

/// Runs `body(i)` for every i in [begin, end), cut into one contiguous
/// chunk per worker. Falls back to a serial loop when the range has fewer
/// than 256 iterations or the pool has a single thread.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body,
                  ThreadPool& pool = ThreadPool::global());

/// Runs `body(chunk_begin, chunk_end)` over contiguous chunks of at most
/// `grain` iterations, claimed one at a time by whichever participant is
/// free. Suited to irregular per-iteration cost (e.g. per-slice
/// segmentation). Runs `body(begin, end)` inline when the range fits in
/// one grain or the pool has a single thread.
void parallel_for_chunked(std::int64_t begin, std::int64_t end,
                          std::int64_t grain,
                          const std::function<void(std::int64_t, std::int64_t)>& body,
                          ThreadPool& pool = ThreadPool::global());

}  // namespace zenesis::parallel
