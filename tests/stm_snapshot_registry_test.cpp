// SnapshotRegistry unit tests: registration/deregistration and the pruning
// minimum under concurrent churn, the overflow fallback when more
// transactions are active than there are slots, and a regression harness for
// DESIGN.md §8 bug 2 (snapshot registration vs version pruning) against the
// lock-free registry through the full Stm.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "stm/snapshot_registry.hpp"
#include "stm/stm.hpp"

namespace autopn::stm {
namespace {

TEST(SnapshotRegistry, EmptyRegistryMinIsClock) {
  std::atomic<std::uint64_t> clock{0};
  SnapshotRegistry registry{clock, 4};
  EXPECT_EQ(registry.min_active(), 0u);
  clock.store(17);
  EXPECT_EQ(registry.min_active(), 17u);
  EXPECT_EQ(registry.active_count(), 0u);
}

TEST(SnapshotRegistry, RegisteredSnapshotBoundsMin) {
  std::atomic<std::uint64_t> clock{5};
  SnapshotRegistry registry{clock, 4};
  auto handle = registry.acquire();
  EXPECT_EQ(handle.snapshot(), 5u);
  EXPECT_TRUE(handle.live());
  EXPECT_FALSE(handle.overflowed());
  EXPECT_EQ(registry.active_count(), 1u);

  // Committers advance the clock; the held snapshot pins the minimum.
  clock.store(9);
  EXPECT_EQ(registry.min_active(), 5u);
}

TEST(SnapshotRegistry, ReleaseRestoresMinToClock) {
  std::atomic<std::uint64_t> clock{3};
  SnapshotRegistry registry{clock, 4};
  {
    auto handle = registry.acquire();
    clock.store(8);
    EXPECT_EQ(registry.min_active(), 3u);
  }
  EXPECT_EQ(registry.min_active(), 8u);
  EXPECT_EQ(registry.active_count(), 0u);

  auto handle = registry.acquire();
  handle.release();  // explicit early release; idempotent
  handle.release();
  EXPECT_FALSE(handle.live());
  EXPECT_EQ(registry.active_count(), 0u);
}

TEST(SnapshotRegistry, MinIsOldestOfSeveral) {
  std::atomic<std::uint64_t> clock{1};
  SnapshotRegistry registry{clock, 8};
  auto a = registry.acquire();  // snapshot 1
  clock.store(2);
  auto b = registry.acquire();  // snapshot 2
  clock.store(6);
  auto c = registry.acquire();  // snapshot 6
  EXPECT_EQ(registry.min_active(), 1u);
  a.release();
  EXPECT_EQ(registry.min_active(), 2u);
  b.release();
  EXPECT_EQ(registry.min_active(), 6u);
  c.release();
  EXPECT_EQ(registry.min_active(), 6u);
}

TEST(SnapshotRegistry, HandleMoveTransfersOwnership) {
  std::atomic<std::uint64_t> clock{4};
  SnapshotRegistry registry{clock, 2};
  auto a = registry.acquire();
  SnapshotRegistry::Handle b = std::move(a);
  EXPECT_FALSE(a.live());  // NOLINT(bugprone-use-after-move): probing the moved-from state
  EXPECT_TRUE(b.live());
  EXPECT_EQ(b.snapshot(), 4u);
  clock.store(10);
  EXPECT_EQ(registry.min_active(), 4u);
  b = SnapshotRegistry::Handle{};  // move-assign releases the old registration
  EXPECT_EQ(registry.min_active(), 10u);
}

TEST(SnapshotRegistry, OverflowFallbackKeepsMinCorrect) {
  std::atomic<std::uint64_t> clock{2};
  SnapshotRegistry registry{clock, 2};  // tiny on purpose
  std::vector<SnapshotRegistry::Handle> handles;
  for (int i = 0; i < 10; ++i) handles.push_back(registry.acquire());

  EXPECT_EQ(registry.active_count(), 10u);
  EXPECT_EQ(registry.overflow_count(), 8u);  // 2 slots + 8 overflow
  std::size_t overflowed = 0;
  for (const auto& h : handles) {
    EXPECT_EQ(h.snapshot(), 2u);
    if (h.overflowed()) ++overflowed;
  }
  EXPECT_EQ(overflowed, 8u);

  clock.store(50);
  EXPECT_EQ(registry.min_active(), 2u);

  // Releasing in arbitrary order drains both the slots and the overflow set.
  handles.erase(handles.begin() + 2, handles.begin() + 7);
  EXPECT_EQ(registry.min_active(), 2u);
  handles.clear();
  EXPECT_EQ(registry.active_count(), 0u);
  EXPECT_EQ(registry.overflow_count(), 0u);
  EXPECT_EQ(registry.min_active(), 50u);
}

TEST(SnapshotRegistry, MinNeverExceedsLiveSnapshotUnderChurn) {
  std::atomic<std::uint64_t> clock{0};
  SnapshotRegistry registry{clock, 4};  // small: churners hit overflow too

  auto pinned = registry.acquire();  // snapshot 0 held for the whole test
  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};

  std::vector<std::jthread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto h = registry.acquire();
        clock.fetch_add(1, std::memory_order_seq_cst);  // play the committer
        if (registry.min_active() > pinned.snapshot()) {
          violated.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  churners.clear();

  EXPECT_FALSE(violated.load());
  const std::uint64_t final_clock = clock.load();
  pinned.release();
  EXPECT_EQ(registry.min_active(), final_clock);
  EXPECT_EQ(registry.active_count(), 0u);
}

// Regression for DESIGN.md §8 bug 2 against the lock-free registry: a
// top-level transaction's snapshot must be visible to every committer whose
// pruning minimum could otherwise advance past it. If registration raced
// with pruning, readers would observe "transactional read of an
// uninitialized VBox" (std::logic_error) — which run_top propagates and the
// jthread turns into std::terminate, failing the test loudly.
TEST(SnapshotPruningRegression, ActiveSnapshotsNeverLoseBodies) {
  StmConfig cfg;
  cfg.initial_top = 8;
  cfg.pool_threads = 1;
  cfg.snapshot_slots = 2;  // force slot contention + overflow registrations
  Stm stm{cfg};

  VBox<long> hot{0L};
  VBox<long> cold{42L};

  std::atomic<bool> stop{false};
  std::vector<std::jthread> threads;
  // Writers churn the hot box so its version chain grows and gets pruned on
  // every install; readers keep taking fresh snapshots of both boxes.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        stm.run_top([&](Tx& tx) { hot.write(tx, hot.read(tx) + 1); });
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const long value = stm.read_only<long>(
            [&](Tx& tx) { return hot.read(tx) + cold.read(tx); });
        ASSERT_GE(value, 42L);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  threads.clear();

  // Pruning stayed live: with no active snapshots the hot chain collapses to
  // the bodies reachable from the final clock value.
  stm.run_top([&](Tx& tx) { hot.write(tx, hot.read(tx) + 1); });
  EXPECT_LE(hot.chain_length(), 2u);
  EXPECT_GT(stm.stats().top_commits, 0u);
}

}  // namespace
}  // namespace autopn::stm
