// Contention patterns run against each top-level commit path. The STM has one
// path today, the global lock; the suite stays parameterised on it so the
// invariants below are checked per path and a new path is one more value.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "stm/containers.hpp"
#include "stm/stm.hpp"

namespace autopn::stm {
namespace {

enum class CommitPath { kGlobalLock };

class CommitStrategyTest : public ::testing::TestWithParam<CommitPath> {
 protected:
  static StmConfig config(std::size_t top, std::size_t children = 1,
                          std::size_t pool = 2) {
    StmConfig cfg;
    cfg.initial_top = top;
    cfg.initial_children = children;
    cfg.pool_threads = pool;
    return cfg;
  }
};

TEST_P(CommitStrategyTest, SequentialCommitsBumpClockByOne) {
  Stm stm{config(1)};
  VBox<int> box{0};
  for (int i = 1; i <= 20; ++i) {
    stm.run_top([&](Tx& tx) { box.write(tx, i); });
    EXPECT_EQ(stm.clock(), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(box.peek(), 20);
}

TEST_P(CommitStrategyTest, ConcurrentIncrementsAreExact) {
  Stm stm{config(8)};
  VBox<long> counter{0L};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        stm.run_top([&](Tx& tx) { counter.write(tx, counter.read(tx) + 1); });
      }
    });
  }
  threads.clear();
  EXPECT_EQ(counter.peek(), 320L);
  // Versions are dense: every commit claimed exactly one version.
  EXPECT_EQ(stm.clock(), stm.stats().top_commits);
}

TEST_P(CommitStrategyTest, DisjointWritersScaleWithoutAborts) {
  Stm stm{config(4)};
  TArray<int> arr{4, 0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        stm.run_top([&, t](Tx& tx) {
          const auto idx = static_cast<std::size_t>(t);
          arr.write(tx, idx, arr.read(tx, idx) + 1);
        });
      }
    });
  }
  threads.clear();
  EXPECT_EQ(stm.stats().top_aborts, 0u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(arr.peek(i), 50);
}

TEST_P(CommitStrategyTest, SnapshotInvariantUnderChurn) {
  Stm stm{config(6)};
  VBox<int> a{70};
  VBox<int> b{30};
  std::atomic<int> violations{0};
  std::atomic<bool> stop{false};
  std::vector<std::jthread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 120; ++i) {
        stm.run_top([&](Tx& tx) {
          const int va = a.read(tx);
          a.write(tx, va + 1);
          b.write(tx, 100 - (va + 1));
        });
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      stm.run_top([&](Tx& tx) {
        if (a.read(tx) + b.read(tx) != 100) violations.fetch_add(1);
      });
    }
  });
  for (int i = 0; i < 3; ++i) threads[static_cast<std::size_t>(i)].join();
  stop.store(true);
  threads.clear();
  EXPECT_EQ(violations.load(), 0);
}

TEST_P(CommitStrategyTest, NestedTreesCommitCorrectly) {
  Stm stm{config(3, 3, 3)};
  TArray<int> arr{12, 0};
  VBox<int> total{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      stm.run_top([&, t](Tx& tx) {
        std::vector<std::function<void(Tx&)>> kids;
        for (int k = 0; k < 4; ++k) {
          const auto idx = static_cast<std::size_t>(t * 4 + k);
          kids.emplace_back([&arr, idx](Tx& child) { arr.write(child, idx, 1); });
        }
        tx.run_children(std::move(kids));
        total.write(tx, total.read(tx) + 4);
      });
    });
  }
  threads.clear();
  EXPECT_EQ(total.peek(), 12);
  int sum = 0;
  for (std::size_t i = 0; i < 12; ++i) sum += arr.peek(i);
  EXPECT_EQ(sum, 12);
}

TEST_P(CommitStrategyTest, ChainsPrunedUnderStrategy) {
  Stm stm{config(1)};
  VBox<int> box{0};
  for (int i = 0; i < 300; ++i) {
    stm.run_top([&](Tx& tx) { box.write(tx, i); });
  }
  EXPECT_LE(box.chain_length(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, CommitStrategyTest,
                         ::testing::Values(CommitPath::kGlobalLock),
                         [](const ::testing::TestParamInfo<CommitPath>&) {
                           return "GlobalLock";
                         });

}  // namespace
}  // namespace autopn::stm
