#pragma once
// Data-parallel loop helpers on top of ThreadPool.
//
// All helpers block until every iteration has finished, so callers can use
// them as drop-in replacements for serial loops. Chunking is static by
// default (one contiguous range per worker) with an optional grain size for
// dynamically balanced irregular work.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "zenesis/parallel/thread_pool.hpp"

namespace zenesis::parallel {

/// Runs `body(i)` for every i in [begin, end), statically partitioned into
/// one contiguous chunk per worker. Falls back to a serial loop when the
/// range is small or the pool has a single thread.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body,
                  ThreadPool& pool = ThreadPool::global());

/// Runs `body(chunk_begin, chunk_end)` over contiguous chunks of at most
/// `grain` iterations, pulled dynamically by idle workers. Suited to
/// irregular per-iteration cost (e.g. per-slice segmentation).
void parallel_for_chunked(std::int64_t begin, std::int64_t end,
                          std::int64_t grain,
                          const std::function<void(std::int64_t, std::int64_t)>& body,
                          ThreadPool& pool = ThreadPool::global());

}  // namespace zenesis::parallel
