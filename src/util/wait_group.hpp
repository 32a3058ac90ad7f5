#pragma once
// Counts outstanding work items; wait() blocks until the count returns to
// zero. Mirrors Go's sync.WaitGroup, restricted to add-before-start usage.
// The nested-transaction pool does not use it (its join lives inside
// ThreadPool::fork_join); load generators and tests do.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace autopn::util {

class WaitGroup {
 public:
  void add(std::size_t n = 1) {
    std::scoped_lock lock{mutex_};
    pending_ += n;
  }

  void done() {
    // Notify while holding the mutex: the waiter may destroy this WaitGroup
    // the moment it observes pending_ == 0 (it can wake through a timed
    // re-check without ever consuming the notification), so signalling after
    // unlocking would touch a potentially destroyed condition variable.
    // Notifying under the lock makes destruction safe: the waiter cannot
    // re-acquire the mutex — and therefore cannot return and destroy us —
    // until this critical section is complete.
    std::scoped_lock lock{mutex_};
    if (--pending_ == 0) cv_.notify_all();
  }

  void wait() {
    std::unique_lock lock{mutex_};
    cv_.wait(lock, [this] { return pending_ == 0; });
  }

  /// Waits up to `timeout`; returns true once the count reached zero.
  template <typename Rep, typename Period>
  [[nodiscard]] bool wait_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock{mutex_};
    return cv_.wait_for(lock, timeout, [this] { return pending_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t pending_ AUTOPN_GUARDED_BY(mutex_) = 0;
};

}  // namespace autopn::util
