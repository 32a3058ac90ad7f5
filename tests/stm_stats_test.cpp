// Unit tests for the sharded statistics layer: util::ShardedCounter
// exactness under concurrency, StmStats aggregation and the abort-kind
// breakdown, and the lock-free ContentionProfiler (claiming, ordering,
// overflow accounting, reset).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "stm/containers.hpp"
#include "stm/stats.hpp"
#include "stm/stm.hpp"
#include "stm/vbox.hpp"
#include "util/sharded.hpp"

namespace autopn::stm {
namespace {

TEST(ShardedCounter, SingleThreadExact) {
  util::ShardedCounter counter;
  EXPECT_EQ(counter.load(), 0u);
  for (int i = 0; i < 100; ++i) counter.add();
  counter.add(17);
  EXPECT_EQ(counter.load(), 117u);
  counter.reset();
  EXPECT_EQ(counter.load(), 0u);
}

TEST(ShardedCounter, ShardCountRoundsUpToPowerOfTwo) {
  util::ShardedCounter counter{3};
  EXPECT_EQ(counter.shards(), 4u);
  EXPECT_TRUE((util::ShardedCounter::default_shards() &
               (util::ShardedCounter::default_shards() - 1)) == 0);
}

TEST(ShardedCounter, ConcurrentAddsSumExactly) {
  util::ShardedCounter counter{8};
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kAddsPerThread; ++i) counter.add();
      });
    }
  }
  EXPECT_EQ(counter.load(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(StmStats, SnapshotAggregatesAllCounters) {
  StmStats stats;
  stats.bump_read();
  stats.bump_read();
  stats.bump_write();
  stats.bump_top_commit();
  stats.bump_top_abort(ConflictKind::kTopLevelValidation);
  stats.bump_top_abort(ConflictKind::kExplicitRetry);
  stats.bump_child_commit();
  stats.bump_child_abort(ConflictKind::kSiblingWrite);
  stats.bump_child_abort(ConflictKind::kStaleReRead);

  const StmStatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.reads, 2u);
  EXPECT_EQ(snap.writes, 1u);
  EXPECT_EQ(snap.top_commits, 1u);
  EXPECT_EQ(snap.top_aborts, 2u);
  EXPECT_EQ(snap.child_commits, 1u);
  EXPECT_EQ(snap.child_aborts, 2u);
  // Kind breakdown partitions the aborts (stale re-reads count as sibling).
  EXPECT_EQ(snap.aborts_validation, 1u);
  EXPECT_EQ(snap.aborts_sibling, 2u);
  EXPECT_EQ(snap.aborts_explicit, 1u);
  EXPECT_EQ(snap.aborts_validation + snap.aborts_sibling + snap.aborts_explicit,
            snap.top_aborts + snap.child_aborts);
  EXPECT_DOUBLE_EQ(snap.top_abort_rate(), 2.0 / 3.0);

  stats.reset();
  EXPECT_EQ(stats.snapshot().reads, 0u);
  EXPECT_EQ(stats.snapshot().top_aborts, 0u);
}

TEST(StmStats, ConcurrentBumpsSumExactly) {
  StmStats stats;
  constexpr int kThreads = 6;
  constexpr int kOps = 10000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kOps; ++i) {
          stats.bump_read();
          stats.bump_top_commit();
        }
      });
    }
  }
  const StmStatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.reads, static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(snap.top_commits, static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST(StmStats, ReadsAndWritesExactAcrossRetriesAndStolenChildren) {
  // Each transaction adds its reads and writes when it ends, aborted or not,
  // on whichever thread ran it. Child 0 holds its first attempt until child
  // 1 has started, so the two run on different threads, one of them a pool
  // worker that stole its child; that attempt of child 0 then aborts, and so
  // does the whole first top-level attempt.
  StmConfig cfg;
  cfg.pool_threads = 2;
  cfg.initial_children = 2;
  Stm stm{cfg};
  TArray<int> arr{4, 0};
  std::atomic<bool> second_started{false};
  std::thread::id first_ran_on;
  std::thread::id second_ran_on;
  bool overlapped = false;
  int first_attempts = 0;
  int top_attempts = 0;
  stm.run_top([&](Tx& tx) {
    arr.write(tx, 3, arr.read(tx, 3) + 1);  // 1 read, 1 write
    tx.run_children(2, [&](Tx& child, std::size_t i) {
      if (i == 1) {
        if (!second_started.load()) second_ran_on = std::this_thread::get_id();
        second_started.store(true);
        arr.write(child, 1, arr.read(child, 1) + 1);  // 1 read, 1 write
        return;
      }
      arr.write(child, 0, arr.read(child, 0) + arr.read(child, 2) + 1);  // 2 r, 1 w
      if (++first_attempts > 1) return;
      first_ran_on = std::this_thread::get_id();
      // Bounded: with no worker free to steal child 1 the test fails below
      // instead of hanging.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
      while (!second_started.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      overlapped = second_started.load();
      throw ConflictError{ConflictKind::kInjected};
    });
    if (++top_attempts == 1) tx.retry();
  });
  ASSERT_TRUE(overlapped) << "child 1 never started while child 0 waited";
  EXPECT_NE(first_ran_on, second_ran_on);
  // Top attempt 1: root 1 r + 1 w, child 1 1 r + 1 w, child 0 twice 2 r + 1 w.
  // Top attempt 2: root 1 r + 1 w, child 1 1 r + 1 w, child 0 2 r + 1 w.
  const StmStatsSnapshot stats = stm.stats();
  EXPECT_EQ(stats.reads, 10u);
  EXPECT_EQ(stats.writes, 7u);
  EXPECT_EQ(stats.top_aborts, 1u);
  EXPECT_EQ(stats.child_aborts, 1u);
  EXPECT_EQ(stats.top_commits, 1u);
  EXPECT_EQ(arr.peek(0), 1);
  EXPECT_EQ(arr.peek(3), 1);
}

TEST(ContentionProfiler, DisabledNoteIsNoOp) {
  ContentionProfiler profiler;
  VBox<int> box{1};
  profiler.note(&box);
  EXPECT_TRUE(profiler.hotspots().empty());
  EXPECT_EQ(profiler.dropped(), 0u);
}

TEST(ContentionProfiler, CountsAndOrdersHotspots) {
  ContentionProfiler profiler;
  profiler.set_enabled(true);
  VBox<int> a{0};
  a.set_label("a");
  VBox<int> b{0};
  b.set_label("b");
  VBox<int> c{0};  // unlabeled: rendered as a pointer

  for (int i = 0; i < 5; ++i) profiler.note(&b);
  for (int i = 0; i < 2; ++i) profiler.note(&a);
  profiler.note(&c);

  auto hotspots = profiler.hotspots();
  ASSERT_EQ(hotspots.size(), 3u);
  EXPECT_EQ(hotspots[0].label, "b");
  EXPECT_EQ(hotspots[0].conflicts, 5u);
  EXPECT_EQ(hotspots[1].label, "a");
  EXPECT_EQ(hotspots[1].conflicts, 2u);
  EXPECT_EQ(hotspots[2].label.rfind("box@", 0), 0u);

  // top_n truncates after ordering.
  EXPECT_EQ(profiler.hotspots(1).size(), 1u);
  EXPECT_EQ(profiler.hotspots(1)[0].label, "b");

  profiler.reset();
  EXPECT_TRUE(profiler.hotspots().empty());
}

TEST(ContentionProfiler, OverflowIsCountedNotSilent) {
  ContentionProfiler profiler{2};  // rounds to 2 slots
  ASSERT_EQ(profiler.capacity(), 2u);
  profiler.set_enabled(true);
  VBox<int> a{0};
  VBox<int> b{0};
  VBox<int> c{0};
  profiler.note(&a);
  profiler.note(&b);
  profiler.note(&c);  // table full: dropped, visibly
  EXPECT_EQ(profiler.hotspots().size(), 2u);
  EXPECT_EQ(profiler.dropped(), 1u);
  // Known boxes still count after the table fills.
  profiler.note(&a);
  EXPECT_EQ(profiler.hotspots()[0].conflicts, 2u);
  profiler.reset();
  EXPECT_EQ(profiler.dropped(), 0u);
  profiler.note(&c);
  EXPECT_EQ(profiler.hotspots().size(), 1u);
}

TEST(ContentionProfiler, ConcurrentNotesSumExactly) {
  ContentionProfiler profiler;
  profiler.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kNotes = 5000;
  VBox<int> shared{0};
  shared.set_label("shared");
  std::vector<std::unique_ptr<VBox<int>>> privates;
  for (int t = 0; t < kThreads; ++t) {
    privates.push_back(std::make_unique<VBox<int>>(0));
  }
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kNotes; ++i) {
          profiler.note(&shared);
          profiler.note(privates[t].get());
        }
      });
    }
  }
  auto hotspots = profiler.hotspots();
  ASSERT_EQ(hotspots.size(), static_cast<std::size_t>(kThreads) + 1);
  EXPECT_EQ(hotspots[0].label, "shared");
  EXPECT_EQ(hotspots[0].conflicts,
            static_cast<std::uint64_t>(kThreads) * kNotes);
  for (std::size_t i = 1; i < hotspots.size(); ++i) {
    EXPECT_EQ(hotspots[i].conflicts, static_cast<std::uint64_t>(kNotes));
  }
  EXPECT_EQ(profiler.dropped(), 0u);
}

}  // namespace
}  // namespace autopn::stm
