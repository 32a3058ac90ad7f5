#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace autopn::util {

/// One fork_join call, on its caller's stack. Workers reach it only through
/// open_ (under the mutex) or while running one of its tasks, and the caller
/// takes the mutex before returning whenever the batch was ever published,
/// so the batch outlives every worker access.
struct ThreadPool::Batch {
  Batch(ForkBudget& budget_in, std::size_t count_in,
        const std::function<void(std::size_t)>& task_in)
      : budget(&budget_in), count(count_in), task(&task_in), pending(count_in) {}

  ForkBudget* const budget;
  const std::size_t count;
  const std::function<void(std::size_t)>* const task;
  /// Claim cursor shared by the caller and the stealing workers.
  sync::Atomic<std::size_t> next{0};
  /// Tasks not yet finished. Workers decrement it under the pool mutex, the
  /// caller without; every zero test that ends a join happens under it.
  sync::Atomic<std::size_t> pending;
  // Guarded by the pool mutex.
  sync::Shared<bool> published{false};
  sync::Shared<bool> waiting{false};  ///< caller lent its unit and sleeps
  sync::Shared<std::exception_ptr> error;  ///< first stolen-task exception
  sync::CondVar done;  ///< the caller's wake-up, with the pool mutex
};

ThreadPool::ThreadPool(std::size_t workers) : wake_worth_ns_(kWakeWorthNs) {
  const std::size_t count = std::max<std::size_t>(1, workers);
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this] { serve(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }  // jthreads join as members die

void ThreadPool::shutdown() {
  {
    sync::ScopedLock lock{mutex_};
    stopping_.write() = true;
  }
  cv_.notify_all();
}

std::size_t ThreadPool::in_use(const ForkBudget& budget) const {
  sync::ScopedLock lock{mutex_};
  return budget.in_use_.read();
}

void ThreadPool::fork_join(ForkBudget& budget, std::size_t count,
                           const std::function<void(std::size_t)>& task) {
  Batch batch{budget, count, task};
  // Offer the batch to the workers only when another thread could run part
  // of it and that part is worth a wake-up; otherwise the caller runs it all
  // without taking a lock.
  const bool shared =
      count > 1 && budget.limit_ > 1 && worth_waking(count - 1);
  if (shared) {
    bool room = false;
    {
      sync::ScopedLock lock{mutex_};
      batch.published.write() = true;
      open_.write().push_back(&batch);
      room = budget.in_use_.read() < budget.limit_;
    }
    if (room) cv_.notify_one();
  }

  // Help-first: run our own tasks on our own unit until the cursor runs out.
  const bool timed = wake_worth_ns_ != 0 && count > 1;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  std::size_t ran = 0;
  std::exception_ptr error;
  for (std::size_t i = 0;
       (i = batch.next.fetch_add(1, std::memory_order_acq_rel)) < count;) {
    try {
      task(i);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
    batch.pending.fetch_sub(1, std::memory_order_acq_rel);
    ++ran;
  }
  if (timed && ran != 0) {
    note_task_time(static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count()),
                   ran);
  }
  if (!shared) {
    if (error) std::rethrow_exception(error);
    return;
  }

  sync::UniqueLock lock{mutex_};
  unpublish(batch);
  if (batch.pending.load(std::memory_order_acquire) != 0) {
    // Stolen tasks are still running. Lend our unit to the tree while we
    // sleep; the last of them hands its own unit back to us.
    --budget.in_use_.write();
    batch.waiting.write() = true;
    if (!open_.read().empty()) cv_.notify_one();
    batch.done.wait(lock, [&] {
      return batch.pending.load(std::memory_order_acquire) == 0;
    });
  }
  if (!error) error = batch.error.read();
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::serve() {
  sync::UniqueLock lock{mutex_};
  for (;;) {
    Batch* batch = nullptr;
    std::size_t index = 0;
    if (steal(batch, index)) {
      lock.unlock();
      std::exception_ptr error;
      try {
        (*batch->task)(index);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      finish(*batch, std::move(error));
      continue;
    }
    if (stopping_.read()) return;
    cv_.wait(lock);
  }
}

bool ThreadPool::steal(Batch*& batch, std::size_t& index) {
  auto& open = open_.write();
  for (auto it = open.begin(); it != open.end();) {
    Batch& candidate = **it;
    ForkBudget& budget = *candidate.budget;
    if (budget.in_use_.read() >= budget.limit_) {
      ++it;
      continue;
    }
    const std::size_t i = candidate.next.fetch_add(1, std::memory_order_acq_rel);
    if (i >= candidate.count) {  // the caller took the rest meanwhile
      candidate.published.write() = false;
      it = open.erase(it);
      continue;
    }
    ++budget.in_use_.write();
    if (i + 1 == candidate.count) {
      candidate.published.write() = false;
      open.erase(it);
    } else if (budget.in_use_.read() < budget.limit_) {
      cv_.notify_one();  // more of this batch is stealable: wake a peer
    }
    batch = &candidate;
    index = i;
    return true;
  }
  return false;
}

void ThreadPool::finish(Batch& batch, std::exception_ptr error) {
  if (error && !batch.error.read()) batch.error.write() = std::move(error);
  const bool last = batch.pending.fetch_sub(1, std::memory_order_acq_rel) == 1;
  if (last && batch.waiting.read() && detail::handoff_to_waiter()) {
    // Our unit passes to the caller. Notified under the mutex: the caller
    // may destroy the batch as soon as it can re-acquire it.
    batch.done.notify_one();
    return;
  }
  --batch.budget->in_use_.write();
  if (last && batch.waiting.read()) batch.done.notify_one();
}

bool ThreadPool::worth_waking(std::size_t tasks) const {
  if (wake_worth_ns_ == 0) return true;
  const std::uint64_t task_ns = task_ns_.load(std::memory_order_relaxed);
  return task_ns == 0 || tasks * task_ns >= wake_worth_ns_;  // 0: no data yet
}

void ThreadPool::note_task_time(std::uint64_t elapsed_ns, std::size_t tasks) {
  const std::uint64_t sample = std::max<std::uint64_t>(1, elapsed_ns / tasks);
  const std::uint64_t old = task_ns_.load(std::memory_order_relaxed);
  // Exponential mean, weight 1/4: follows a workload change within a few
  // batches while one outlier moves it little.
  const std::uint64_t next =
      old == 0 ? sample : old - old / 4 + sample / 4;
  task_ns_.store(next, std::memory_order_relaxed);
}

void ThreadPool::unpublish(Batch& batch) {
  if (!batch.published.read()) return;
  batch.published.write() = false;
  auto& open = open_.write();
  open.erase(std::find(open.begin(), open.end(), &batch));
}

}  // namespace autopn::util
