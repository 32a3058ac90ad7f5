#pragma once
// Resizable counting semaphore — the actuator's primitive (paper §VI).
//
// The actuator bounds the number of concurrent top-level transactions (t) by
// intercepting begin/commit (the per-tree nested limit c is a ForkBudget of
// the nested pool, util/thread_pool.hpp). Unlike std::counting_semaphore,
// the capacity here can be changed at run-time: growing releases waiters
// immediately, shrinking lets in-flight holders drain naturally (no
// transaction is ever interrupted).
//
// A thread pool larger than the capacity can also keep its surplus threads
// off the gate: wait_capacity_above(i) parks thread i until the capacity
// exceeds i, so only the first `capacity` threads take work. capacity() is
// a lock-free read, cheap enough for every dequeue of such a pool.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <stop_token>

#include "util/thread_annotations.hpp"

namespace autopn::util {

class ResizableSemaphore {
 public:
  explicit ResizableSemaphore(std::size_t capacity) : capacity_(capacity) {}

  ResizableSemaphore(const ResizableSemaphore&) = delete;
  ResizableSemaphore& operator=(const ResizableSemaphore&) = delete;

  /// Blocks until a permit is available.
  void acquire() {
    std::unique_lock lock{mutex_};
    cv_.wait(lock, [this] { return in_use_ < capacity(); });
    ++in_use_;
  }

  /// Non-blocking acquire; returns false if no permit is free.
  [[nodiscard]] bool try_acquire() {
    std::scoped_lock lock{mutex_};
    if (in_use_ >= capacity()) return false;
    ++in_use_;
    return true;
  }

  void release() {
    // Notify under the lock (see WaitGroup::done): a waiter that observes
    // the freed permit may own the semaphore's lifetime and destroy it as
    // soon as it can re-acquire the mutex.
    std::scoped_lock lock{mutex_};
    --in_use_;
    cv_.notify_one();
  }

  /// Changes the permit capacity. Growing wakes waiters, both acquirers
  /// and threads parked in wait_capacity_above; shrinking never revokes
  /// permits already held — in_use_ may temporarily exceed capacity until
  /// holders release.
  void set_capacity(std::size_t capacity) {
    std::scoped_lock lock{mutex_};
    capacity_.store(capacity, std::memory_order_release);
    cv_.notify_all();
    park_cv_.notify_all();
  }

  /// Lock-free: the capacity set by the latest set_capacity.
  [[nodiscard]] std::size_t capacity() const {
    return capacity_.load(std::memory_order_acquire);
  }

  /// Blocks until capacity() > n or `stop` is requested. Returns at once,
  /// on one atomic load, when the capacity already exceeds n. Takes no
  /// permit: a caller that goes on to acquire() still passes the gate.
  void wait_capacity_above(std::size_t n, const std::stop_token& stop) {
    if (n < capacity()) return;
    std::unique_lock lock{mutex_};
    park_cv_.wait(lock, stop, [this, n] { return n < capacity(); });
  }

  [[nodiscard]] std::size_t in_use() const {
    std::scoped_lock lock{mutex_};
    return in_use_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Threads parked in wait_capacity_above; apart from cv_ so that
  /// release() never wakes them.
  std::condition_variable_any park_cv_;
  /// Stored only under mutex_, so a waiter that tests it under mutex_ cannot
  /// miss a change; loaded without it by capacity().
  std::atomic<std::size_t> capacity_;
  std::size_t in_use_ AUTOPN_GUARDED_BY(mutex_) = 0;
};

/// RAII permit holder (CP.20: never plain acquire/release).
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(ResizableSemaphore& sem) : sem_(&sem) { sem_->acquire(); }
  ~SemaphoreGuard() {
    if (sem_ != nullptr) sem_->release();
  }

  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  SemaphoreGuard(SemaphoreGuard&& other) noexcept : sem_(other.sem_) {
    other.sem_ = nullptr;
  }
  SemaphoreGuard& operator=(SemaphoreGuard&&) = delete;

 private:
  ResizableSemaphore* sem_;
};

}  // namespace autopn::util
