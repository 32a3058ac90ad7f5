// Tests for the concurrency primitives: resizable semaphore, help-first
// fork/join pool and its budgets, wait group, and clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/clock.hpp"
#include "util/semaphore.hpp"
#include "util/thread_pool.hpp"
#include "util/wait_group.hpp"

namespace autopn::util {
namespace {

using namespace std::chrono_literals;

TEST(ResizableSemaphore, TryAcquireRespectsCapacity) {
  ResizableSemaphore sem{2};
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_EQ(sem.in_use(), 2u);
}

TEST(ResizableSemaphore, GrowReleasesWaiter) {
  ResizableSemaphore sem{1};
  sem.acquire();
  std::atomic<bool> acquired{false};
  std::jthread waiter{[&] {
    sem.acquire();
    acquired.store(true);
    sem.release();
  }};
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(acquired.load());
  sem.set_capacity(2);
  for (int i = 0; i < 200 && !acquired.load(); ++i) std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(acquired.load());
  sem.release();
}

TEST(ResizableSemaphore, WaitCapacityAboveWakesOnGrowAndOnStop) {
  ResizableSemaphore sem{1};
  sem.wait_capacity_above(0, {});  // already true: returns at once
  WaitGroup grown;
  grown.add(1);
  std::jthread parked_on_grow{[&](std::stop_token stop) {
    sem.wait_capacity_above(1, stop);
    grown.done();
  }};
  sem.set_capacity(2);
  EXPECT_TRUE(grown.wait_for(2s));
  EXPECT_EQ(sem.in_use(), 0u);  // parking takes no permit

  WaitGroup stopped;
  stopped.add(1);
  std::jthread parked_on_stop{[&](std::stop_token stop) {
    sem.wait_capacity_above(5, stop);
    stopped.done();
  }};
  parked_on_stop.request_stop();
  EXPECT_TRUE(stopped.wait_for(2s));
  EXPECT_EQ(sem.capacity(), 2u);
}

TEST(ResizableSemaphore, ShrinkDoesNotRevoke) {
  ResizableSemaphore sem{3};
  sem.acquire();
  sem.acquire();
  sem.set_capacity(1);
  EXPECT_EQ(sem.in_use(), 2u);  // still held
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_FALSE(sem.try_acquire());  // 1 in use == new capacity
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
  sem.release();
}

TEST(ResizableSemaphore, GuardReleasesOnScopeExit) {
  ResizableSemaphore sem{1};
  {
    SemaphoreGuard guard{sem};
    EXPECT_EQ(sem.in_use(), 1u);
  }
  EXPECT_EQ(sem.in_use(), 0u);
}

TEST(ResizableSemaphore, ConcurrentStress) {
  ResizableSemaphore sem{4};
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::jthread> threads;
  threads.reserve(16);
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 50; ++j) {
        SemaphoreGuard guard{sem};
        const int now = concurrent.fetch_add(1) + 1;
        int expected = peak.load();
        while (now > expected && !peak.compare_exchange_weak(expected, now)) {
        }
        std::this_thread::yield();
        concurrent.fetch_sub(1);
      }
    });
  }
  threads.clear();  // join
  EXPECT_LE(peak.load(), 4);
  EXPECT_GE(peak.load(), 1);
}

TEST(ResizableSemaphore, ShrinkBelowInFlightNeverDeadlocksNorOverAdmits) {
  // The live-reconfiguration path the serving engine hammers: the actuator
  // resizes the t-gate below the number of in-flight holders while worker
  // threads keep acquiring. Shrinking must neither deadlock waiters nor
  // admit more holders than the largest capacity ever set.
  constexpr std::size_t kMaxCapacity = 6;
  ResizableSemaphore sem{4};
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> workers;
    for (int i = 0; i < 8; ++i) {
      workers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          SemaphoreGuard guard{sem};
          const int now = concurrent.fetch_add(1) + 1;
          int expected = peak.load();
          while (now > expected && !peak.compare_exchange_weak(expected, now)) {
          }
          std::this_thread::yield();
          concurrent.fetch_sub(1);
        }
      });
    }
    // Hammer the capacity through repeated shrink-below-in-flight / regrow
    // cycles, including shrinking to 1 while up to 6 holders are inside.
    constexpr std::size_t kCycle[] = {1, 3, 2, kMaxCapacity, 1, 4};
    for (int round = 0; round < 600; ++round) {
      sem.set_capacity(kCycle[round % std::size(kCycle)]);
      if (round % 16 == 0) std::this_thread::sleep_for(1ms);
    }
    sem.set_capacity(2);
    stop.store(true);
  }  // join — completing at all proves no waiter deadlocked
  EXPECT_LE(peak.load(), static_cast<int>(kMaxCapacity));
  EXPECT_GE(peak.load(), 1);
  EXPECT_EQ(sem.in_use(), 0u);  // fully drained after the storm
  // The final shrunk capacity is enforced once holders drained.
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  sem.release();
}

/// An unstaffed pool run by `workers` test threads: every batch is offered
/// to them, so stealing happens whenever a worker is free to steal.
struct EagerPool {
  explicit EagerPool(std::size_t workers) {
    for (std::size_t i = 0; i < workers; ++i) {
      threads.emplace_back([this] { pool.serve(); });
    }
  }
  ~EagerPool() { pool.shutdown(); }  // the threads join right after

  ThreadPool pool{ThreadPool::Unstaffed{}};
  std::vector<std::jthread> threads;
};

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool{2};
  ForkBudget budget{3};
  std::vector<std::atomic<int>> runs(100);
  pool.fork_join(budget, runs.size(), [&](std::size_t i) { runs[i].fetch_add(1); });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);  // each index exactly once
  EXPECT_EQ(pool.in_use(budget), 1u);  // every stolen unit came back
}

TEST(ThreadPool, RunAndWaitCompletesAll) {
  ThreadPool pool{3};
  ForkBudget budget{64};
  std::atomic<int> counter{0};
  pool.fork_join(budget, 64, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
  pool.fork_join(budget, 0, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);  // an empty batch is a no-op
}

TEST(ThreadPool, NestedForkJoinOnSingleWorker) {
  // Tasks that themselves fork and join must not deadlock a 1-worker pool:
  // every caller runs its own tasks.
  ThreadPool pool{1};
  ForkBudget budget{4};
  std::atomic<int> leaves{0};
  pool.fork_join(budget, 4, [&](std::size_t) {
    pool.fork_join(budget, 4, [&](std::size_t) { leaves.fetch_add(1); });
  });
  EXPECT_EQ(leaves.load(), 16);
  EXPECT_EQ(pool.in_use(budget), 1u);
}

TEST(ThreadPool, CallerRunsItsOwnTasksWhileWorkersAreBusy) {
  // Stall the only worker inside a stolen task of another batch; a second
  // caller must still finish its batch alone, on its own thread.
  EagerPool eager{1};
  ThreadPool& pool = eager.pool;
  std::atomic<bool> stolen{false};
  std::atomic<bool> release{false};
  std::jthread stall{[&] {
    ForkBudget budget{2};
    pool.fork_join(budget, 2, [&](std::size_t i) {
      if (i == 0) {  // the caller's own task: wait until the worker took #1
        while (!stolen.load()) std::this_thread::yield();
        return;
      }
      stolen.store(true);
      while (!release.load()) std::this_thread::sleep_for(1ms);
    });
  }};
  while (!stolen.load()) std::this_thread::yield();

  ForkBudget budget{4};
  std::vector<std::thread::id> ran_on(3);
  pool.fork_join(budget, ran_on.size(),
                 [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
  release.store(true);
}

TEST(ThreadPool, FirstExceptionIsRethrownAfterEveryTaskRan) {
  ThreadPool pool{2};
  ForkBudget budget{3};
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.fork_join(budget, 8,
                              [&](std::size_t i) {
                                ran.fetch_add(1);
                                if (i == 2 || i == 5) throw std::runtime_error{"task"};
                              }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(pool.in_use(budget), 1u);
}

TEST(ThreadPool, WaitingCallerLendsItsUnit) {
  // Budget 2. The root keeps one unit, a worker steals task #1 on the
  // other. Task #1's two children can only overlap once the root, done with
  // its own task and waiting, lends its unit to the tree.
  EagerPool eager{2};
  ThreadPool& pool = eager.pool;
  ForkBudget budget{2};
  std::atomic<bool> stolen{false};
  std::atomic<int> started{0};
  std::atomic<bool> overlapped{false};
  pool.fork_join(budget, 2, [&](std::size_t i) {
    if (i == 0) {
      while (!stolen.load()) std::this_thread::yield();
      return;
    }
    stolen.store(true);
    pool.fork_join(budget, 2, [&](std::size_t) {
      started.fetch_add(1);
      const auto deadline = std::chrono::steady_clock::now() + 2s;
      while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (started.load() == 2) overlapped.store(true);
    });
  });
  EXPECT_TRUE(overlapped.load());
  EXPECT_EQ(pool.in_use(budget), 1u);
}

TEST(ThreadPool, ShortTasksStayOnTheCaller) {
  // Once the pool has seen how short the tasks are, waking a worker for
  // them is not worth it: whole batches run on the caller.
  ThreadPool pool{3};
  ForkBudget budget{4};
  int caller_only = 0;
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<std::thread::id> ran_on(8);
    pool.fork_join(budget, ran_on.size(),
                   [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    if (std::all_of(ran_on.begin(), ran_on.end(), [](const auto& id) {
          return id == std::this_thread::get_id();
        })) {
      ++caller_only;
    }
  }
  EXPECT_GE(caller_only, 10);
}

TEST(ThreadPool, LongTasksAreOfferedToWorkers) {
  ThreadPool pool{3};
  ForkBudget budget{4};
  bool stolen = false;
  for (int batch = 0; batch < 10 && !stolen; ++batch) {
    std::vector<std::thread::id> ran_on(4);
    pool.fork_join(budget, ran_on.size(), [&](std::size_t i) {
      std::this_thread::sleep_for(1ms);
      ran_on[i] = std::this_thread::get_id();
    });
    stolen = std::any_of(ran_on.begin(), ran_on.end(), [](const auto& id) {
      return id != std::this_thread::get_id();
    });
  }
  EXPECT_TRUE(stolen);
}

TEST(ThreadPool, WorkerCountClamped) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.worker_count(), 1u);
}

TEST(WaitGroup, WaitForTimesOut) {
  WaitGroup wg;
  wg.add(1);
  EXPECT_FALSE(wg.wait_for(5ms));
  wg.done();
  EXPECT_TRUE(wg.wait_for(5ms));
}

TEST(VirtualClock, AdvanceAndSet) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.advance(0.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  clock.set(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
}

TEST(WallClock, MonotonicAndAdvancing) {
  WallClock clock;
  const double a = clock.now();
  std::this_thread::sleep_for(5ms);
  const double b = clock.now();
  EXPECT_GT(b, a);
  EXPECT_GE(b - a, 0.004);
}

TEST(Stopwatch, MeasuresVirtualTime) {
  VirtualClock clock;
  Stopwatch sw{clock};
  clock.advance(3.0);
  EXPECT_DOUBLE_EQ(sw.elapsed(), 3.0);
  sw.restart();
  EXPECT_DOUBLE_EQ(sw.elapsed(), 0.0);
  clock.advance(1.0);
  EXPECT_DOUBLE_EQ(sw.elapsed(), 1.0);
}

}  // namespace
}  // namespace autopn::util
