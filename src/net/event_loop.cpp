#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace autopn::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error{errno, std::generic_category(), what};
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  if (timer_fd_ < 0) throw_errno("timerfd_create");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    throw_errno("epoll_ctl(wake)");
  }
  ev.data.fd = timer_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) != 0) {
    throw_errno("epoll_ctl(timer)");
  }
}

EventLoop::~EventLoop() {
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

double EventLoop::monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool EventLoop::in_loop_thread() const {
  return loop_thread_.load(std::memory_order_acquire) ==
         std::this_thread::get_id();
}

void EventLoop::run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  std::array<epoll_event, 64> events{};
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (fd == wake_fd_) {
        drain_eventfd();  // the tasks run at the end of this round
      } else if (fd == timer_fd_) {
        // One read resets the expiration count.
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(timer_fd_, &expirations, sizeof expirations);
        fire_due_timers();
      } else {
        // Look the handler up per event: an earlier handler in this batch
        // may have removed this fd, and holding a shared_ptr copy keeps the
        // closure alive even if the callback removes itself.
        auto it = handlers_.find(fd);
        if (it == handlers_.end()) continue;
        const std::shared_ptr<FdHandler> handler = it->second;
        (*handler)(mask);
      }
    }
    // End of round: whatever the handlers, timers or foreign threads posted
    // runs before the next epoll_wait. This is what lets post() skip the
    // eventfd write from the loop thread and on a non-empty queue.
    run_posted_tasks();
  }
  // Drain the final batch of posted tasks so a stop() issued right after a
  // post() never strands work (drain() relies on this ordering too).
  run_posted_tasks();
  loop_thread_.store(std::thread::id{}, std::memory_order_release);
}

void EventLoop::stop() {
  stopping_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::post(Task task) {
  bool was_empty = false;
  {
    std::scoped_lock lock{task_mutex_};
    was_empty = tasks_.empty();
    tasks_.push_back(std::move(task));
  }
  // A non-empty queue already has a wake-up on its way (or the loop is in
  // the round that will drain it), and the loop thread drains at the end of
  // its own round; only a foreign post onto an empty queue must wake it.
  if (!was_empty || in_loop_thread()) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::drain() {
  std::promise<void> done;
  std::future<void> future = done.get_future();
  post([&done] { done.set_value(); });
  future.wait();
}

void EventLoop::run_posted_tasks() {
  std::vector<Task> batch;
  for (;;) {
    {
      std::scoped_lock lock{task_mutex_};
      // The empty check and the swap share the lock a poster takes to see
      // "empty": a post after this check writes the eventfd.
      if (tasks_.empty()) return;
      batch.swap(tasks_);
    }
    for (Task& task : batch) task();
    batch.clear();
  }
}

void EventLoop::drain_eventfd() {
  // One read resets the eventfd counter, however many writes fed it.
  std::uint64_t value = 0;
  [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &value, sizeof value);
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(add)");
  }
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(mod)");
  }
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

EventLoop::TimerId EventLoop::add_timer(double delay_seconds, Task task) {
  const TimerId id = next_timer_id_++;
  timer_tasks_.emplace(id, std::move(task));
  timers_.push(Timer{monotonic_seconds() + std::max(delay_seconds, 0.0), id});
  rearm_timerfd();
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  timer_tasks_.erase(id);  // the heap entry is skipped lazily when it pops
}

void EventLoop::fire_due_timers() {
  const double now = monotonic_seconds();
  while (!timers_.empty() && timers_.top().deadline <= now) {
    const TimerId id = timers_.top().id;
    timers_.pop();
    auto it = timer_tasks_.find(id);
    if (it == timer_tasks_.end()) continue;  // cancelled
    Task task = std::move(it->second);
    timer_tasks_.erase(it);
    task();
  }
  rearm_timerfd();
}

void EventLoop::rearm_timerfd() {
  // Drop cancelled heads so a cancelled earliest timer cannot postpone a
  // live later one.
  while (!timers_.empty() && !timer_tasks_.contains(timers_.top().id)) {
    timers_.pop();
  }
  itimerspec spec{};
  if (!timers_.empty()) {
    const double delta =
        std::max(timers_.top().deadline - monotonic_seconds(), 1e-9);
    spec.it_value.tv_sec = static_cast<time_t>(delta);
    spec.it_value.tv_nsec =
        static_cast<long>((delta - static_cast<double>(spec.it_value.tv_sec)) *
                          1e9);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;
    }
  }
  if (::timerfd_settime(timer_fd_, 0, &spec, nullptr) != 0) {
    throw_errno("timerfd_settime");
  }
}

}  // namespace autopn::net
