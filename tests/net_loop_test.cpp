// EventLoop reactor tests: cross-thread post() via the eventfd wakeup (and
// no lost wake-up when only the empty-to-non-empty post writes it), loop-
// thread posts drained at the end of the round, loop-thread affinity,
// one-shot timers (ordering + cancellation) on the timerfd, fd readiness
// dispatch, and the drain() shutdown barrier.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"

namespace autopn::net {
namespace {

using namespace std::chrono_literals;

/// Runs the loop on a background thread for the duration of the test.
class LoopFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    thread_ = std::thread([this] { loop_.run(); });
    // Wait for the loop thread to actually enter run().
    std::atomic<bool> ready{false};
    loop_.post([&] { ready.store(true); });
    while (!ready.load()) std::this_thread::sleep_for(1ms);
  }

  void TearDown() override {
    loop_.stop();
    thread_.join();
  }

  EventLoop loop_;
  std::thread thread_;
};

TEST_F(LoopFixture, PostRunsOnLoopThread) {
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop_thread{false};
  loop_.post([&] {
    on_loop_thread.store(loop_.in_loop_thread());
    ran.store(true);
  });
  loop_.drain();
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(on_loop_thread.load());
  EXPECT_FALSE(loop_.in_loop_thread());
}

TEST_F(LoopFixture, PostFromLoopThreadDoesNotDeadlock) {
  std::atomic<int> order{0};
  std::atomic<int> outer{-1};
  std::atomic<int> inner{-1};
  loop_.post([&] {
    loop_.post([&] { inner.store(order.fetch_add(1)); });
    outer.store(order.fetch_add(1));
  });
  loop_.drain();
  // Second barrier: the nested task was queued behind the first barrier's
  // task, so the first drain() can return before it runs; it still runs
  // before the loop next sleeps, ahead of this barrier.
  loop_.drain();
  EXPECT_EQ(outer.load(), 0);
  EXPECT_EQ(inner.load(), 1);
}

TEST_F(LoopFixture, ForeignPostsToAnIdleLoopNeverLoseTheirWakeUp) {
  // Only the post that makes the queue non-empty writes the eventfd. Each
  // round posts from this thread just as the loop goes back to sleep after
  // the previous task: the wait spins, and a delay of up to ~1000 spins
  // that cycles with the round sweeps the post across the loop's way from
  // the task to epoll_wait. A lost wake-up shows as a task that never runs,
  // caught by the deadline instead of a hang.
  constexpr int kRounds = 20000;
  // Shared ownership: after a failed wait the stranded task may still run.
  const auto ran = std::make_shared<std::atomic<int>>(0);
  for (int round = 0; round < kRounds; ++round) {
    volatile int spin = 0;  // volatile: the delay loop is not optimized out
    while (spin < (round % 128) * 8) spin = spin + 1;
    loop_.post([ran] { ran->fetch_add(1); });
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (ran->load() != round + 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "task of round " << round << " never ran";
    }
  }
}

TEST_F(LoopFixture, PostFromFdHandlerRunsWithoutOtherActivity) {
  // A loop-thread post writes no eventfd; it relies on the end-of-round
  // drain. Nothing else wakes the loop here, so without that drain the
  // task would wait for the next unrelated event forever.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Shared ownership: after a failed wait the stranded task may still run.
  const auto ran = std::make_shared<std::atomic<bool>>(false);
  loop_.post([&] {
    loop_.add_fd(fds[0], EPOLLIN, [this, ran, fd = fds[0]](std::uint32_t) {
      char buf[8];
      [[maybe_unused]] const ssize_t n = ::read(fd, buf, sizeof buf);
      loop_.post([ran] { ran->store(true); });
    });
  });
  loop_.drain();
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!ran->load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  // On failure the stranded task sits in the queue and a further post may
  // not wake the loop; return and let TearDown's stop() wake it instead.
  ASSERT_TRUE(ran->load()) << "task posted from the fd handler never ran";
  loop_.post([&] { loop_.remove_fd(fds[0]); });
  loop_.drain();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(LoopFixture, ManyConcurrentPostersAllExecute) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<int> count{0};
  {
    std::vector<std::jthread> posters;
    for (int t = 0; t < kThreads; ++t) {
      posters.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          loop_.post([&] { count.fetch_add(1); });
        }
      });
    }
  }
  loop_.drain();
  EXPECT_EQ(count.load(), kThreads * kPerThread);
}

TEST_F(LoopFixture, TimersFireInDeadlineOrder) {
  std::vector<int> fired;
  std::atomic<bool> done{false};
  loop_.post([&] {
    // Registered out of order; must fire in deadline order.
    loop_.add_timer(0.030, [&] {
      fired.push_back(3);
      done.store(true);
    });
    loop_.add_timer(0.001, [&] { fired.push_back(1); });
    loop_.add_timer(0.015, [&] { fired.push_back(2); });
  });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(done.load()) << "timers never fired";
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST_F(LoopFixture, CancelledTimerNeverFires) {
  std::atomic<bool> cancelled_fired{false};
  std::atomic<bool> kept_fired{false};
  loop_.post([&] {
    const auto id = loop_.add_timer(0.005, [&] { cancelled_fired.store(true); });
    loop_.cancel_timer(id);
    loop_.add_timer(0.010, [&] { kept_fired.store(true); });
  });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!kept_fired.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(kept_fired.load());
  EXPECT_FALSE(cancelled_fired.load());
}

TEST_F(LoopFixture, FdReadinessDispatchesHandler) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::atomic<int> bytes_seen{0};
  loop_.post([&] {
    loop_.add_fd(fds[0], EPOLLIN, [&, fd = fds[0]](std::uint32_t events) {
      if (events & EPOLLIN) {
        char buf[64];
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) bytes_seen.fetch_add(static_cast<int>(n));
      }
    });
  });
  loop_.drain();
  ASSERT_EQ(::write(fds[1], "hello", 5), 5);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (bytes_seen.load() < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(bytes_seen.load(), 5);
  loop_.post([&] { loop_.remove_fd(fds[0]); });
  loop_.drain();
  // After removal, more data must not invoke the handler.
  ASSERT_EQ(::write(fds[1], "again", 5), 5);
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(bytes_seen.load(), 5);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(LoopFixture, DrainIsABarrierForPriorPosts) {
  // Everything posted before drain() must have executed when it returns.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i) loop_.post([&] { ran.fetch_add(1); });
    loop_.drain();
    EXPECT_EQ(ran.load(), 20) << "round " << round;
  }
}

TEST(NetLoop, StopDrainsFinalPostedBatch) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::thread t{[&] { loop.run(); }};
  loop.post([&] { ran.store(true); });
  loop.stop();
  t.join();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace autopn::net
