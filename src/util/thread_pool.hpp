#pragma once
// Help-first fork/join pool with per-tree concurrency budgets — the PN-STM's
// shared nested-transaction thread set P (paper §III-A).
//
// fork_join(budget, n, task) runs task(0) .. task(n-1) and returns when all
// have finished. The calling thread runs them itself, in index order; pool
// workers steal indices from the same cursor while the caller is busy. The
// caller never queues a task it could run, never polls, and never sleeps
// unless a stolen task is still running when its own cursor is exhausted.
//
// A ForkBudget bounds how many threads execute inside one tree at once (the
// actuator's per-tree limit c). The tree's owner holds one unit from the
// start, and every fork_join caller holds one: its own tasks run on that
// unit. A worker may steal only by taking a free unit, which it returns when
// the stolen task finishes. A caller that has to wait for stolen tasks lends
// its unit back to the tree while it sleeps; the last stolen task to finish
// hands its unit to the caller instead of returning it. So the budget counts
// running threads, never blocked ones, and it is never exceeded.
//
// Every stolen task runs on a thread that holds a unit, and a caller only
// waits for tasks that are already running, so fork/join cannot deadlock on
// any pool size, budget or nesting depth; a pool of one worker (or a budget
// of one) simply runs everything on the callers.
//
// Waking a sleeping worker costs the caller a futex syscall and the worker
// several microseconds before it runs anything, which is more than a short
// task takes. So a caller offers a batch to the workers only when the tasks
// it would hand over are expected to take at least kWakeWorthNs, judged from
// a running estimate of the task time of recent batches. A batch of short
// tasks runs entirely on its caller, with no lock taken.
//
// Concurrency primitives go through the sync seam (util/sync.hpp): the
// protocol is model-checked by tests/mc_fork_join.cpp.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace autopn::util {

class ThreadPool;

/// The per-tree concurrency budget of ThreadPool::fork_join: at most
/// `limit` threads run inside the tree at once, the owner's included. Use a
/// budget with one pool only; its count is guarded by that pool's mutex.
class ForkBudget {
 public:
  explicit ForkBudget(std::size_t limit) noexcept
      : limit_(limit == 0 ? 1 : limit) {}

  ForkBudget(const ForkBudget&) = delete;
  ForkBudget& operator=(const ForkBudget&) = delete;

 private:
  friend class ThreadPool;

  const std::size_t limit_;
  /// Units held: the owner's, plus one per stolen task running. Guarded by
  /// the mutex of the pool the budget is used with.
  sync::Shared<std::size_t> in_use_{1};
};

namespace detail {
/// Hand-off of the last stolen task's unit to a waiting fork_join caller. A
/// constant in production. Under AUTOPN_MC the mc_fork_join fixture sets
/// `mc_weaken_handoff` (before any model thread spawns) so the last task
/// returns its unit to the budget instead, and the checker must report the
/// caller resuming without one.
#if defined(AUTOPN_MC) && AUTOPN_MC
inline bool mc_weaken_handoff = false;
inline bool handoff_to_waiter() noexcept { return !mc_weaken_handoff; }
#else
constexpr bool handoff_to_waiter() noexcept { return true; }
#endif
}  // namespace detail

class ThreadPool {
 public:
  /// Work, in nanoseconds, a batch must be expected to hand over before its
  /// caller wakes a worker for it. About twice the cost of a cross-core
  /// wake-up on a 4-vCPU Firecracker VM (6–21 µs round trip).
  static constexpr std::uint64_t kWakeWorthNs = 25'000;

  /// Spawns `workers` threads (at least 1).
  explicit ThreadPool(std::size_t workers);

  /// Tag for a pool that spawns no threads of its own: callers staff it by
  /// running serve() and end it with shutdown(). Every batch is offered to
  /// them, with no timing involved, so which tasks get stolen depends on the
  /// schedule alone. The model-checking harness does this with its modeled
  /// threads, and tests that need stealing to happen do it with theirs.
  struct Unstaffed {};
  explicit ThreadPool(Unstaffed) noexcept : wake_worth_ns_(0) {}

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs task(0) .. task(count - 1) help-first within `budget`, whose unit
  /// the caller must hold (the budget's owner, or a thread running a task of
  /// the same budget). Returns once every task has finished; the first
  /// exception a task threw is then rethrown (the other tasks still run).
  void fork_join(ForkBudget& budget, std::size_t count,
                 const std::function<void(std::size_t)>& task);

  /// Worker loop: runs stolen tasks on the calling thread until shutdown()
  /// finds nothing left to steal.
  void serve();

  /// Tells serve() loops to return once no stealable task remains.
  void shutdown();

  /// Units of `budget` currently held (diagnostics and tests).
  [[nodiscard]] std::size_t in_use(const ForkBudget& budget) const;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size();
  }

 private:
  struct Batch;

  /// Takes a free unit and the next index of the oldest open batch that has
  /// both; false when nothing is stealable.
  bool steal(Batch*& batch, std::size_t& index) AUTOPN_REQUIRES(mutex_);
  /// Books a finished stolen task: records its exception, then returns its
  /// unit to the budget or hands it to the waiting caller.
  void finish(Batch& batch, std::exception_ptr error) AUTOPN_REQUIRES(mutex_);
  void unpublish(Batch& batch) AUTOPN_REQUIRES(mutex_);
  /// Whether `tasks` tasks are expected to pay for waking a worker.
  [[nodiscard]] bool worth_waking(std::size_t tasks) const;
  /// Folds the mean task time of one caller's run into the estimate.
  void note_task_time(std::uint64_t elapsed_ns, std::size_t tasks);

  const std::uint64_t wake_worth_ns_;  ///< 0: offer every batch
  /// Running mean task time in ns (0 until the first batch ran). A racy
  /// estimate: concurrent updates may drop a sample.
  sync::Atomic<std::uint64_t> task_ns_{0};

  mutable sync::Mutex mutex_;
  sync::CondVar cv_;  ///< workers wait here for stealable work
  /// Batches that still have unclaimed tasks, oldest first.
  sync::Shared<std::vector<Batch*>> open_ AUTOPN_GUARDED_BY(mutex_);
  sync::Shared<bool> stopping_ AUTOPN_GUARDED_BY(mutex_) = false;
  std::vector<std::jthread> threads_;  // last: joined before the rest dies
};

}  // namespace autopn::util
