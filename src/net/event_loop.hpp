#pragma once
// EventLoop — the single-threaded epoll reactor under the network front-end.
// One loop instance owns an epoll set plus two kernel primitives that make
// it complete without polling:
//
//   * an eventfd wakeup — post() enqueues a closure from any thread and the
//     loop executes it on its own thread (this is the only cross-thread
//     door; fd registration and I/O callbacks are loop-thread affairs).
//     Only the post that makes the task queue non-empty writes the eventfd,
//     and a post from the loop thread never does: every epoll round ends by
//     running posted tasks until the queue is empty, so the loop never
//     sleeps on a queued task;
//   * a timerfd — add_timer() schedules one-shot callbacks on a min-heap,
//     and the timerfd is re-armed to the earliest deadline so epoll_wait
//     never needs a guessed timeout.
//
// Level-triggered epoll throughout: a readable fd whose handler only drains
// part of the data gets re-reported, which keeps the Connection code free of
// "must read until EAGAIN" subtleties and makes backpressure (deliberately
// not reading) a plain matter of dropping EPOLLIN from the interest set.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.hpp"

namespace autopn::net {

class EventLoop {
 public:
  /// Receives the ready-event mask (EPOLLIN/EPOLLOUT/EPOLLERR/EPOLLHUP…).
  using FdHandler = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;
  using TimerId = std::uint64_t;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs until stop(); dispatches I/O events, posted tasks, and timers on
  /// the calling thread (which becomes "the loop thread").
  void run();

  /// Signals run() to return after finishing the current dispatch round and
  /// draining already-posted tasks. Safe from any thread.
  void stop();

  /// Enqueues `task` for execution on the loop thread; tasks run in post
  /// order. Safe from any thread, including the loop thread itself (no
  /// recursion: the task runs before the loop next sleeps). Tasks posted
  /// after stop() but before run() returns still execute; tasks posted
  /// later are discarded when the loop is destroyed.
  void post(Task task);

  /// Registers `fd` with the given epoll interest mask. Loop thread only
  /// (or before run() starts).
  void add_fd(int fd, std::uint32_t events, FdHandler handler);

  /// Replaces the interest mask of a registered fd. Loop thread only.
  void modify_fd(int fd, std::uint32_t events);

  /// Unregisters `fd` (does not close it). Pending events already reported
  /// in the current round are suppressed. Loop thread only.
  void remove_fd(int fd);

  /// One-shot timer: runs `task` on the loop thread ~`delay_seconds` from
  /// now. Loop thread only. Returns an id usable with cancel_timer.
  TimerId add_timer(double delay_seconds, Task task);

  /// Cancels a pending timer (no-op if already fired). Loop thread only.
  void cancel_timer(TimerId id);

  /// True when called from the thread currently inside run().
  [[nodiscard]] bool in_loop_thread() const;

  /// Executes all tasks currently posted and returns once they ran — a
  /// shutdown barrier: after engine workers are joined, drain() guarantees
  /// every completion they posted has been delivered to its connection.
  /// Must NOT be called from the loop thread.
  void drain();

 private:
  struct Timer {
    double deadline;  // steady seconds (monotonic_seconds())
    TimerId id;
    bool operator>(const Timer& other) const {
      return deadline > other.deadline;
    }
  };

  /// Runs posted tasks, including those they post, until the queue is
  /// empty.
  void run_posted_tasks();
  void fire_due_timers();
  void rearm_timerfd();
  void drain_eventfd();
  [[nodiscard]] static double monotonic_seconds();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int timer_fd_ = -1;

  std::atomic<bool> stopping_{false};
  std::atomic<std::thread::id> loop_thread_{};

  std::mutex task_mutex_;
  std::vector<Task> tasks_ AUTOPN_GUARDED_BY(task_mutex_);

  // Loop-thread state (no locks).
  std::unordered_map<int, std::shared_ptr<FdHandler>> handlers_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::unordered_map<TimerId, Task> timer_tasks_;
  TimerId next_timer_id_ = 1;
};

}  // namespace autopn::net
