// Multi-threaded correctness: top-level atomicity under contention, snapshot
// isolation invariants, actuator gating, version pruning under load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "stm/containers.hpp"
#include "stm/stm.hpp"

namespace autopn::stm {
namespace {

StmConfig config(std::size_t top, std::size_t children, std::size_t pool = 2) {
  StmConfig cfg;
  cfg.pool_threads = pool;
  cfg.initial_top = top;
  cfg.initial_children = children;
  return cfg;
}

TEST(StmConcurrency, CounterIncrementsAreAtomic) {
  Stm stm{config(8, 1)};
  VBox<int> counter{0};
  const int threads_n = 8;
  const int increments = 50;
  std::vector<std::jthread> threads;
  threads.reserve(threads_n);
  for (int t = 0; t < threads_n; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < increments; ++i) {
        stm.run_top([&](Tx& tx) { counter.write(tx, counter.read(tx) + 1); });
      }
    });
  }
  threads.clear();
  EXPECT_EQ(counter.peek(), threads_n * increments);
  EXPECT_EQ(stm.stats().top_commits,
            static_cast<std::uint64_t>(threads_n * increments));
}

TEST(StmConcurrency, SnapshotIsolationInvariantHolds) {
  // Writers keep a+b == 100; readers must never observe a torn sum.
  Stm stm{config(6, 1)};
  VBox<int> a{60};
  VBox<int> b{40};
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::jthread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        stm.run_top([&](Tx& tx) {
          const int va = a.read(tx);
          a.write(tx, va - 1);
          b.write(tx, 100 - (va - 1));
        });
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        stm.run_top([&](Tx& tx) {
          if (a.read(tx) + b.read(tx) != 100) violations.fetch_add(1);
        });
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true);
  threads.clear();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(a.peek() + b.peek(), 100);
}

TEST(StmConcurrency, WriteSkewIsPrevented) {
  // Classic write-skew: two transactions each read both boxes and write one.
  // Serializable validation (reads must be unchanged at commit) must abort
  // one interleaved execution, keeping the invariant a + b >= 0.
  Stm stm{config(4, 1)};
  VBox<int> a{1};
  VBox<int> b{1};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&stm, &a, &b, t] {
      for (int i = 0; i < 100; ++i) {
        stm.run_top([&, t](Tx& tx) {
          if (a.read(tx) + b.read(tx) >= 2) {
            if (t == 0) {
              a.write(tx, a.read(tx) - 1);
            } else {
              b.write(tx, b.read(tx) - 1);
            }
          }
        });
      }
    });
  }
  threads.clear();
  EXPECT_GE(a.peek() + b.peek(), 0);
}

TEST(StmConcurrency, AbortsAreCountedUnderContention) {
  Stm stm{config(8, 1)};
  VBox<int> hot{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        stm.run_top([&](Tx& tx) {
          const int v = hot.read(tx);
          // Lengthen the vulnerability window a touch.
          std::this_thread::yield();
          hot.write(tx, v + 1);
        });
      }
    });
  }
  threads.clear();
  EXPECT_EQ(hot.peek(), 240);
  // With 8 threads hammering one box, at least some aborts happen; the exact
  // count is scheduling-dependent, so only sanity-check consistency.
  const auto stats = stm.stats();
  EXPECT_EQ(stats.top_commits, 240u);
}

TEST(StmConcurrency, TopGateBoundsConcurrency) {
  Stm stm{config(2, 1)};
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        stm.run_top([&](Tx&) {
          const int now = inside.fetch_add(1) + 1;
          int expected = peak.load();
          while (now > expected && !peak.compare_exchange_weak(expected, now)) {
          }
          std::this_thread::yield();
          inside.fetch_sub(1);
        });
      }
    });
  }
  threads.clear();
  EXPECT_LE(peak.load(), 2);
}

TEST(StmConcurrency, RaisingTopGateIncreasesAdmission) {
  Stm stm{config(1, 1)};
  stm.set_top_limit(4);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  // The first two admitted bodies meet here: each waits until the other is
  // inside the gate too, which a limit of 4 allows.
  std::atomic<int> arrivals{0};
  std::latch second_inside{2};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        stm.run_top([&](Tx&) {
          const int now = inside.fetch_add(1) + 1;
          int expected = peak.load();
          while (now > expected && !peak.compare_exchange_weak(expected, now)) {
          }
          if (arrivals.fetch_add(1) < 2) {
            second_inside.count_down();
            // Bounded: a gate that admits one body at a time fails the
            // assertion below instead of hanging.
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds{10};
            while (!second_inside.try_wait() &&
                   std::chrono::steady_clock::now() < deadline) {
              std::this_thread::yield();
            }
          }
          inside.fetch_sub(1);
        });
      }
    });
  }
  threads.clear();
  EXPECT_LE(peak.load(), 4);
  EXPECT_GE(peak.load(), 2);  // plural admission actually happened
}

TEST(StmConcurrency, LongReaderSeesStableSnapshotDespitePruning) {
  // A long-running reader's snapshot must stay readable while writers commit
  // and pruning reclaims old versions.
  Stm stm{config(4, 1)};
  TArray<int> arr{4, 100};
  std::atomic<bool> reader_started{false};
  std::atomic<bool> writers_done{false};
  int first_sum = -1;
  int second_sum = -1;

  std::jthread reader{[&] {
    stm.run_top([&](Tx& tx) {
      first_sum = arr.read(tx, 0) + arr.read(tx, 1);
      reader_started.store(true);
      while (!writers_done.load()) std::this_thread::yield();
      // Reads from the same snapshot must be consistent with the first ones.
      second_sum = arr.read(tx, 2) + arr.read(tx, 3);
    });
  }};
  while (!reader_started.load()) std::this_thread::yield();
  for (int i = 0; i < 50; ++i) {
    stm.run_top([&](Tx& tx) {
      for (std::size_t j = 0; j < 4; ++j) arr.write(tx, j, i);
    });
  }
  writers_done.store(true);
  reader.join();
  EXPECT_EQ(first_sum, 200);
  EXPECT_EQ(second_sum, 200);  // snapshot versions survived pruning
}

TEST(StmConcurrency, ParallelTreesWithNestedChildren) {
  // Multiple roots each fan out children over disjoint array segments while
  // sharing one hot counter; everything must add up.
  Stm stm{config(4, 4, /*pool=*/4)};
  TArray<int> arr{32, 0};
  VBox<int> total{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      stm.run_top([&, t](Tx& tx) {
        std::vector<std::function<void(Tx&)>> kids;
        for (int k = 0; k < 8; ++k) {
          const std::size_t idx = static_cast<std::size_t>(t) * 8 +
                                  static_cast<std::size_t>(k);
          kids.emplace_back([&arr, idx](Tx& child) { arr.write(child, idx, 1); });
        }
        tx.run_children(std::move(kids));
        total.write(tx, total.read(tx) + 8);
      });
    });
  }
  threads.clear();
  EXPECT_EQ(total.peek(), 32);
  int sum = 0;
  for (std::size_t i = 0; i < 32; ++i) sum += arr.peek(i);
  EXPECT_EQ(sum, 32);
}

TEST(StmConcurrency, VersionChainsStayBounded) {
  // Continuous committing with no concurrent readers must not grow chains
  // without bound (pruning at install).
  Stm stm{config(1, 1)};
  VBox<int> box{0};
  for (int i = 0; i < 500; ++i) {
    stm.run_top([&](Tx& tx) { box.write(tx, i); });
  }
  EXPECT_LE(box.chain_length(), 3u);
  EXPECT_EQ(box.peek(), 499);
}

}  // namespace
}  // namespace autopn::stm
