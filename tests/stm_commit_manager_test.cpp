// CommitManager unit tests, exercising the commit protocol directly against a
// standalone clock + SnapshotRegistry + ContentionProfiler — no Stm, no Tx —
// to pin down the serialization contract: versions are dense, validation
// rejects stale reads, conflicts are attributed to the profiler, and pruning
// respects the registry's minimum.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "stm/commit_manager.hpp"
#include "stm/exceptions.hpp"
#include "stm/snapshot_registry.hpp"
#include "stm/stats.hpp"
#include "stm/vbox.hpp"

namespace autopn::stm {
namespace {

class CommitManagerTest : public ::testing::Test {
 protected:
  CommitManagerTest() : registry_(clock_), manager_(clock_, registry_, profiler_) {}

  /// An entry writing `value` to `box`; it owns its body until installed.
  static TxEntry write_of(VBoxBase& box, int value) {
    return TxEntry{.box = &box, .pending = ValueBody<int>::make(value)};
  }
  static TxEntry read_of(VBoxBase& box) {
    return TxEntry{.box = &box, .seen = box.newest()};
  }

  /// Commits one write of `value` to `box` from `snapshot`.
  void commit_write(std::uint64_t snapshot, VBoxBase& box, int value) {
    TxEntry entry = write_of(box, value);
    manager_.commit(snapshot, {&entry, 1});
  }

  std::atomic<std::uint64_t> clock_{0};
  SnapshotRegistry registry_;
  ContentionProfiler profiler_;
  CommitManager manager_;
};

TEST_F(CommitManagerTest, CommitInstallsAtNextVersionAndPublishesClock) {
  VBox<int> box;
  for (int i = 1; i <= 5; ++i) {
    TxEntry entry = write_of(box, i);
    manager_.commit(clock_.load(), {&entry, 1});
    EXPECT_EQ(entry.pending, nullptr);  // the chain owns the installed body
    EXPECT_EQ(clock_.load(), static_cast<std::uint64_t>(i));
    EXPECT_EQ(box.newest_version(), static_cast<std::uint64_t>(i));
    EXPECT_EQ(box.peek(), i);
  }
}

TEST_F(CommitManagerTest, StaleReadThrowsAndReportsHotspot) {
  VBox<int> read_box{1};
  read_box.set_label("stale-box");
  VBox<int> write_box{0};
  profiler_.set_enabled(true);

  const std::uint64_t snapshot = clock_.load();
  // Another transaction commits to read_box, making our snapshot stale.
  commit_write(snapshot, read_box, 7);

  TxEntry entries[] = {write_of(write_box, 9), read_of(read_box)};
  try {
    manager_.commit(snapshot, entries);
    FAIL() << "expected ConflictError";
  } catch (const ConflictError& conflict) {
    EXPECT_EQ(conflict.kind(), ConflictKind::kTopLevelValidation);
  }
  // The failed commit installed nothing and did not advance the clock; the
  // write's body is still its entry's.
  EXPECT_NE(entries[0].pending, nullptr);
  EXPECT_EQ(write_box.peek(), 0);
  EXPECT_EQ(clock_.load(), 1u);

  const auto hotspots = profiler_.hotspots();
  ASSERT_EQ(hotspots.size(), 1u);
  EXPECT_EQ(hotspots[0].label, "stale-box");
  EXPECT_EQ(hotspots[0].conflicts, 1u);
}

TEST_F(CommitManagerTest, ReadsAtCurrentSnapshotPassValidation) {
  VBox<int> box{5};
  commit_write(clock_.load(), box, 6);

  VBox<int> target{0};
  TxEntry entries[] = {write_of(target, 1), read_of(box)};
  EXPECT_NO_THROW(manager_.commit(clock_.load(), entries));
  EXPECT_EQ(clock_.load(), 2u);
}

TEST_F(CommitManagerTest, ConcurrentDisjointCommitsClaimDenseVersions) {
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 200;
  std::vector<std::unique_ptr<VBox<int>>> boxes;
  for (int t = 0; t < kThreads; ++t) {
    boxes.push_back(std::make_unique<VBox<int>>(0));
  }

  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 1; i <= kCommitsPerThread; ++i) {
        for (;;) {
          auto handle = registry_.acquire();
          try {
            commit_write(handle.snapshot(), *boxes[t], i);
            break;
          } catch (const ConflictError&) {
            // Disjoint writes with empty read sets never conflict.
            FAIL() << "unexpected conflict on disjoint write sets";
          }
        }
      }
    });
  }
  threads.clear();

  // Every commit claimed exactly one version: the clock is dense.
  EXPECT_EQ(clock_.load(),
            static_cast<std::uint64_t>(kThreads * kCommitsPerThread));
  for (const auto& box : boxes) {
    EXPECT_EQ(box->peek(), kCommitsPerThread);
  }
}

TEST_F(CommitManagerTest, PruningRespectsRegistryMinimum) {
  VBox<int> box{0};
  // Hold a snapshot at version 1 while later versions are installed.
  commit_write(clock_.load(), box, 1);
  auto pinned = registry_.acquire();
  ASSERT_EQ(pinned.snapshot(), 1u);

  for (int i = 2; i <= 6; ++i) {
    commit_write(clock_.load(), box, i);
  }
  // The pinned snapshot must still resolve: version 1's body survived.
  const Body* body = box.body_at(1);
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(ValueBody<int>::of(body), 1);

  // While the pin was held the chain had to retain every body back to
  // version 1.
  EXPECT_GE(box.chain_length(), 6u);

  pinned.release();
  commit_write(clock_.load(), box, 7);
  // With the pin gone the chain collapses: just the new body plus at most one
  // older body still reachable from min_active (== the pre-commit clock).
  EXPECT_LE(box.chain_length(), 2u);
  EXPECT_EQ(box.body_at(1), nullptr);  // version 1 finally pruned
}

}  // namespace
}  // namespace autopn::stm
