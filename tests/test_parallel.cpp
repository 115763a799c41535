// Unit tests for the thread-pool substrate and data-parallel helpers:
// coverage/determinism of the loop helpers plus the lifecycle and failure
// modes the Mode-B volume pipeline depends on (many concurrent producers,
// wait_idle racing submit, destruction with pending tasks, exception
// capture, and re-entrant nested parallelism).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "zenesis/parallel/parallel_for.hpp"
#include "zenesis/parallel/thread_pool.hpp"

namespace zp = zenesis::parallel;

TEST(ThreadPool, RunsSubmittedTasks) {
  zp::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeResolvesToAtLeastOne) {
  zp::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  zp::ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&zp::ThreadPool::global(), &zp::ThreadPool::global());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  zp::parallel_for(0, kN, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  zp::parallel_for(5, 5, [&](std::int64_t) { called = true; });
  zp::parallel_for(7, 3, [&](std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForChunked, CoversRangeWithoutOverlap) {
  constexpr std::int64_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  zp::parallel_for_chunked(0, kN, 64, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForChunked, RespectsNonZeroBegin) {
  std::atomic<std::int64_t> sum{0};
  zp::parallel_for_chunked(100, 200, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum += i;
  });
  std::int64_t expected = 0;
  for (std::int64_t i = 100; i < 200; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, ManyProducersStress) {
  // Several threads hammer submit() concurrently while workers drain —
  // the Mode-B pattern of slice tasks forking nested kernel work.
  zp::ThreadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 500;
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.submit([&counter] { ++counter; });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPool, WaitIdleUnderConcurrentSubmit) {
  zp::ThreadPool pool(2);
  constexpr int kTasks = 2000;
  std::atomic<int> counter{0};
  std::thread producer([&pool, &counter] {
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&counter] { ++counter; });
      if (i % 64 == 0) std::this_thread::yield();
    }
  });
  // wait_idle must stay safe (and eventually return) while the queue is
  // being refilled from another thread.
  for (int i = 0; i < 50; ++i) pool.wait_idle();
  producer.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPool, DestructionDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    zp::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++counter;
      });
    }
    // No wait_idle: the destructor must run every queued task, then join.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ThrowingTaskIsCapturedAndRethrownOnWaitIdle) {
  zp::ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Non-throwing tasks still ran, the error slot was cleared, and the
  // pool remains usable.
  EXPECT_EQ(counter.load(), 10);
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ParallelFor, BodyExceptionPropagatesToCaller) {
  zp::ThreadPool pool(4);
  std::atomic<int> ran{0};
  const auto launch = [&] {
    zp::parallel_for(0, 1000, [&](std::int64_t i) {
      if (i == 523) throw std::invalid_argument("bad index");
      ++ran;
    }, pool);
  };
  EXPECT_THROW(launch(), std::invalid_argument);
  // The pool survives and the error does not leak into unrelated waits.
  ran = 0;
  zp::parallel_for(0, 1000, [&](std::int64_t) { ++ran; }, pool);
  EXPECT_EQ(ran.load(), 1000);
  pool.wait_idle();
}

TEST(ParallelForChunked, BodyExceptionPropagatesToCaller) {
  zp::ThreadPool pool(4);
  const auto launch = [&] {
    zp::parallel_for_chunked(0, 512, 8, [](std::int64_t lo, std::int64_t) {
      if (lo >= 256) throw std::runtime_error("chunk failed");
    }, pool);
  };
  EXPECT_THROW(launch(), std::runtime_error);
  pool.wait_idle();
}

TEST(ParallelFor, NestedOnSamePoolCompletes) {
  // A parallel_for body that itself runs parallel_for on the SAME pool —
  // the shape of a Mode-B slice task invoking the filter kernels. Blocked
  // waiters must help drain the queue instead of deadlocking the pool.
  zp::ThreadPool pool(2);
  constexpr std::int64_t kOuter = 8;
  constexpr std::int64_t kInner = 512;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  zp::parallel_for_chunked(0, kOuter, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t o = lo; o < hi; ++o) {
      zp::parallel_for(0, kInner, [&, o](std::int64_t i) {
        ++hits[static_cast<std::size_t>(o * kInner + i)];
      }, pool);
    }
  }, pool);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, WaiterRunsOnlyItsOwnChunks) {
  // A thread joining a loop runs that loop's chunks and nothing else: a
  // foreign task queued ahead of the loop's helpers stays queued while
  // the loop runs, even though the loop's caller is a pool worker whose
  // only peer is busy.
  zp::ThreadPool pool(2);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  pool.submit([&parked, &release] {
    parked = true;
    parked.notify_one();
    release.wait(false);
  });
  parked.wait(false);

  constexpr std::int64_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> foreign_ran{false};
  std::atomic<bool> foreign_ran_during_loop{true};
  std::atomic<bool> loop_done{false};
  pool.submit([&] {
    pool.submit([&foreign_ran] { foreign_ran = true; });
    zp::parallel_for_chunked(0, kN, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
    }, pool);
    foreign_ran_during_loop = foreign_ran.load();
    loop_done = true;
    loop_done.notify_one();
  });
  loop_done.wait(false);
  EXPECT_FALSE(foreign_ran_during_loop.load());
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }

  release = true;
  release.notify_one();
  pool.wait_idle();
  EXPECT_TRUE(foreign_ran.load());
}

TEST(ParallelFor, ResultIndependentOfPoolSize) {
  // The same computation on 1-thread and N-thread pools must agree —
  // the determinism contract the generator relies on.
  constexpr std::int64_t kN = 4096;
  std::vector<double> a(kN), b(kN);
  zp::ThreadPool one(1), many(8);
  zp::parallel_for(0, kN, [&](std::int64_t i) {
    a[static_cast<std::size_t>(i)] = static_cast<double>(i * i) * 0.5;
  }, one);
  zp::parallel_for(0, kN, [&](std::int64_t i) {
    b[static_cast<std::size_t>(i)] = static_cast<double>(i * i) * 0.5;
  }, many);
  EXPECT_EQ(a, b);
}
