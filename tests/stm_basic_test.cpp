// Single-threaded semantics of the multi-version STM: versioned boxes,
// read-your-writes, snapshot isolation, commit/abort, statistics.
#include <gtest/gtest.h>

#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "stm/containers.hpp"
#include "stm/stm.hpp"

namespace autopn::stm {
namespace {

StmConfig small_config() {
  StmConfig cfg;
  cfg.pool_threads = 2;
  cfg.initial_top = 4;
  cfg.initial_children = 4;
  return cfg;
}

TEST(VBoxTest, InitialValueVisible) {
  VBox<int> box{42};
  EXPECT_EQ(box.peek(), 42);
  EXPECT_EQ(box.newest_version(), 0u);
}

TEST(VBoxTest, BodyAtSelectsVersion) {
  VBox<int> box{1};
  box.install(ValueBody<int>::make(2), 5, 0);
  box.install(ValueBody<int>::make(3), 9, 0);
  EXPECT_EQ(ValueBody<int>::of(box.body_at(0)), 1);
  EXPECT_EQ(ValueBody<int>::of(box.body_at(5)), 2);
  EXPECT_EQ(ValueBody<int>::of(box.body_at(7)), 2);
  EXPECT_EQ(ValueBody<int>::of(box.body_at(100)), 3);
  EXPECT_EQ(box.newest_version(), 9u);
}

TEST(VBoxTest, PruneKeepsReachableBodies) {
  VBox<int> box{0};
  // min_active_snapshot = 4: versions 1..4 are only reachable via the newest
  // body <= 4.
  box.install(ValueBody<int>::make(1), 1, 0);
  box.install(ValueBody<int>::make(2), 2, 0);
  box.install(ValueBody<int>::make(3), 3, 0);
  EXPECT_EQ(box.chain_length(), 4u);
  box.install(ValueBody<int>::make(4), 4, 3);
  // Bodies with version < 3 are gone except the newest <= 3.
  EXPECT_EQ(box.chain_length(), 2u);
  EXPECT_EQ(ValueBody<int>::of(box.body_at(3)), 3);
}

TEST(VBoxTest, PruneAllWhenNoReaders) {
  VBox<int> box{0};
  for (int i = 1; i <= 10; ++i) {
    box.install(ValueBody<int>::make(i), static_cast<std::uint64_t>(i),
                static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(box.chain_length(), 1u);
  EXPECT_EQ(box.peek(), 10);
}

TEST(StmBasic, ReadInitialValue) {
  Stm stm{small_config()};
  VBox<int> box{7};
  int seen = 0;
  stm.run_top([&](Tx& tx) { seen = box.read(tx); });
  EXPECT_EQ(seen, 7);
}

TEST(StmBasic, WriteCommitsAndBumpsClock) {
  Stm stm{small_config()};
  VBox<int> box{0};
  EXPECT_EQ(stm.clock(), 0u);
  stm.run_top([&](Tx& tx) { box.write(tx, 5); });
  EXPECT_EQ(box.peek(), 5);
  EXPECT_EQ(stm.clock(), 1u);
}

TEST(StmBasic, ReadYourOwnWrite) {
  Stm stm{small_config()};
  VBox<int> box{1};
  stm.run_top([&](Tx& tx) {
    box.write(tx, 10);
    EXPECT_EQ(box.read(tx), 10);
    box.write(tx, 20);
    EXPECT_EQ(box.read(tx), 20);
  });
  EXPECT_EQ(box.peek(), 20);
}

TEST(StmBasic, RepeatableReads) {
  Stm stm{small_config()};
  VBox<int> box{3};
  stm.run_top([&](Tx& tx) {
    EXPECT_EQ(box.read(tx), 3);
    EXPECT_EQ(box.read(tx), 3);
    EXPECT_EQ(tx.read_set_size(), 1u);  // cached, not re-recorded
  });
}

TEST(StmBasic, ReadOnlyTxDoesNotBumpClock) {
  Stm stm{small_config()};
  VBox<int> box{1};
  stm.run_top([&](Tx& tx) { (void)box.read(tx); });
  EXPECT_EQ(stm.clock(), 0u);
}

TEST(StmBasic, UserExceptionAbortsAndPropagates) {
  Stm stm{small_config()};
  VBox<int> box{0};
  EXPECT_THROW(stm.run_top([&](Tx& tx) {
    box.write(tx, 99);
    throw std::runtime_error{"boom"};
  }),
               std::runtime_error);
  EXPECT_EQ(box.peek(), 0);  // write discarded
  EXPECT_EQ(stm.stats().top_commits, 0u);
}

TEST(StmBasic, RunTopReturningValue) {
  Stm stm{small_config()};
  VBox<int> box{21};
  const int doubled =
      stm.run_top_returning<int>([&](Tx& tx) { return 2 * box.read(tx); });
  EXPECT_EQ(doubled, 42);
}

TEST(StmBasic, ReturningApisAcceptNonDefaultConstructibleTypes) {
  // run_top_returning/read_only buffer the body's result in std::optional, so
  // T needs neither a default constructor nor copy assignment.
  struct Opaque {
    explicit Opaque(int v) : value(v) {}
    Opaque(const Opaque&) = delete;
    Opaque(Opaque&&) = default;
    int value;
  };
  static_assert(!std::is_default_constructible_v<Opaque>);

  Stm stm{small_config()};
  VBox<int> box{21};
  const Opaque doubled = stm.run_top_returning<Opaque>(
      [&](Tx& tx) { return Opaque{2 * box.read(tx)}; });
  EXPECT_EQ(doubled.value, 42);

  const Opaque observed =
      stm.read_only<Opaque>([&](Tx& tx) { return Opaque{box.read(tx)}; });
  EXPECT_EQ(observed.value, 21);
}

TEST(StmBasic, SequentialTransactionsSeeEachOther) {
  Stm stm{small_config()};
  VBox<int> box{0};
  for (int i = 1; i <= 10; ++i) {
    stm.run_top([&](Tx& tx) { box.write(tx, box.read(tx) + 1); });
  }
  EXPECT_EQ(box.peek(), 10);
  EXPECT_EQ(stm.stats().top_commits, 10u);
  EXPECT_EQ(stm.stats().top_aborts, 0u);
}

TEST(StmBasic, StatsCountReadsWrites) {
  Stm stm{small_config()};
  VBox<int> a{0};
  VBox<int> b{0};
  stm.run_top([&](Tx& tx) {
    (void)a.read(tx);
    (void)b.read(tx);
    a.write(tx, 1);
  });
  const auto stats = stm.stats();
  EXPECT_EQ(stats.reads, 2u);
  EXPECT_EQ(stats.writes, 1u);
  stm.reset_stats();
  EXPECT_EQ(stm.stats().reads, 0u);
}

TEST(StmBasic, ReadUninitializedBoxThrowsLogicError) {
  Stm stm{small_config()};
  VBox<int> box;  // never put_initial
  EXPECT_THROW(stm.run_top([&](Tx& tx) { (void)box.read(tx); }), std::logic_error);
}

TEST(StmBasic, StringValues) {
  Stm stm{small_config()};
  VBox<std::string> box{std::string{"hello"}};
  stm.run_top([&](Tx& tx) { box.write(tx, box.read(tx) + " world"); });
  EXPECT_EQ(box.peek(), "hello world");
}

TEST(StmBasic, CommitCallbackFires) {
  Stm stm{small_config()};
  VBox<int> box{0};
  int calls = 0;
  stm.set_commit_callback(
      std::make_shared<const std::function<void()>>([&calls] { ++calls; }));
  stm.run_top([&](Tx& tx) { box.write(tx, 1); });
  stm.run_top([&](Tx& tx) { (void)box.read(tx); });
  EXPECT_EQ(calls, 2);
  stm.set_commit_callback(nullptr);
  stm.run_top([&](Tx& tx) { box.write(tx, 2); });
  EXPECT_EQ(calls, 2);
}

TEST(StmBasic, ActuatorLimitsQueryable) {
  StmConfig cfg = small_config();
  cfg.initial_top = 3;
  cfg.initial_children = 5;
  Stm stm{cfg};
  EXPECT_EQ(stm.top_limit(), 3u);
  EXPECT_EQ(stm.child_limit(), 5u);
  stm.set_top_limit(8);
  stm.set_child_limit(2);
  EXPECT_EQ(stm.top_limit(), 8u);
  EXPECT_EQ(stm.child_limit(), 2u);
  // Limits clamp to >= 1.
  stm.set_top_limit(0);
  stm.set_child_limit(0);
  EXPECT_EQ(stm.top_limit(), 1u);
  EXPECT_EQ(stm.child_limit(), 1u);
}

TEST(StmBasic, ExplicitRetryIsCountedAsAbort) {
  Stm stm{small_config()};
  VBox<int> box{0};
  int attempts = 0;
  stm.run_top([&](Tx& tx) {
    ++attempts;
    box.write(tx, attempts);
    if (attempts < 3) tx.retry();
  });
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(box.peek(), 3);
  EXPECT_EQ(stm.stats().top_aborts, 2u);
  EXPECT_EQ(stm.stats().top_commits, 1u);
}

TEST(StmBasic, AbortBreakdownByKind) {
  Stm stm{small_config()};
  VBox<int> box{0};
  // Explicit retries are attributed to the explicit counter.
  int attempts = 0;
  stm.run_top([&](Tx& tx) {
    box.write(tx, 1);
    if (++attempts < 3) tx.retry();
  });
  const auto stats = stm.stats();
  EXPECT_EQ(stats.aborts_explicit, 2u);
  EXPECT_EQ(stats.aborts_validation, 0u);
  EXPECT_EQ(stats.aborts_sibling, 0u);
  EXPECT_EQ(stats.top_aborts,
            stats.aborts_validation + stats.aborts_sibling + stats.aborts_explicit);
}

TEST(StmBasic, SiblingAbortsAttributedToSiblingCounter) {
  StmConfig cfg = small_config();
  cfg.initial_children = 4;
  Stm stm{cfg};
  VBox<int> hot{0};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (int k = 0; k < 8; ++k) {
      kids.emplace_back([&](Tx& child) { hot.write(child, hot.read(child) + 1); });
    }
    tx.run_children(std::move(kids));
  });
  const auto stats = stm.stats();
  EXPECT_EQ(stats.child_aborts, stats.aborts_sibling);
  EXPECT_EQ(stats.aborts_validation, 0u);
}

// Forces one validation conflict on `box` rather than hoping the scheduler
// overlaps racing threads: the first attempt of a transaction reads `box`,
// then waits until another transaction has committed a write to it, so its
// own commit fails validation on `box` and the retry succeeds.
void force_conflict(Stm& stm, VBox<int>& box) {
  std::latch read_done{1};
  std::latch write_committed{1};
  std::jthread writer([&] {
    read_done.wait();
    stm.run_top([&](Tx& tx) { box.write(tx, box.read(tx) + 1); });
    write_committed.count_down();
  });
  bool first_attempt = true;
  stm.run_top([&](Tx& tx) {
    const int v = box.read(tx);
    if (first_attempt) {
      first_attempt = false;
      read_done.count_down();
      write_committed.wait();
    }
    box.write(tx, v + 1);
  });
}

TEST(StmBasic, ContentionProfilerNamesHotBox) {
  StmConfig cfg = small_config();
  cfg.initial_top = 4;
  Stm stm{cfg};
  VBox<int> hot{0};
  hot.set_label("hot-counter");
  VBox<int> cold{0};
  stm.set_contention_profiling(true);

  force_conflict(stm, hot);
  EXPECT_EQ(hot.peek(), 2);
  ASSERT_GT(stm.stats().aborts_validation, 0u);
  const auto hotspots = stm.contention_hotspots(3);
  ASSERT_FALSE(hotspots.empty());
  EXPECT_EQ(hotspots[0].label, "hot-counter");
  EXPECT_GT(hotspots[0].conflicts, 0u);

  stm.reset_contention_profile();
  EXPECT_TRUE(stm.contention_hotspots().empty());
}

TEST(StmBasic, ProfilerOffRecordsNothing) {
  StmConfig cfg = small_config();
  cfg.initial_top = 4;
  Stm stm{cfg};
  VBox<int> hot{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        stm.run_top([&](Tx& tx) { hot.write(tx, hot.read(tx) + 1); });
      }
    });
  }
  threads.clear();
  EXPECT_TRUE(stm.contention_hotspots().empty());
}

TEST(StmBasic, UnlabeledHotspotRendersPointer) {
  StmConfig cfg = small_config();
  cfg.initial_top = 4;
  Stm stm{cfg};
  VBox<int> hot{0};
  stm.set_contention_profiling(true);
  force_conflict(stm, hot);
  const auto hotspots = stm.contention_hotspots();
  ASSERT_FALSE(hotspots.empty());
  EXPECT_EQ(hotspots[0].label.rfind("box@", 0), 0u);
}

TEST(StmBasic, ReadOnlyFastPath) {
  Stm stm{small_config()};
  VBox<int> a{10};
  VBox<int> b{32};
  const int sum =
      stm.read_only<int>([&](Tx& tx) { return a.read(tx) + b.read(tx); });
  EXPECT_EQ(sum, 42);
  EXPECT_EQ(stm.stats().top_commits, 1u);
  EXPECT_EQ(stm.stats().top_aborts, 0u);
}

TEST(StmBasic, ReadOnlyRejectsWrites) {
  Stm stm{small_config()};
  VBox<int> box{1};
  EXPECT_THROW((void)stm.read_only<int>([&](Tx& tx) {
    box.write(tx, 2);
    return 0;
  }),
               std::logic_error);
  EXPECT_EQ(box.peek(), 1);
}

TEST(StmBasic, ReadOnlyChildrenMayRead) {
  Stm stm{small_config()};
  VBox<int> box{7};
  const int value = stm.read_only<int>([&](Tx& tx) {
    int seen = 0;
    tx.run_children({[&](Tx& child) { seen = box.read(child); }});
    return seen;
  });
  EXPECT_EQ(value, 7);
}

TEST(StmBasic, ReadOnlyChildWriteRejected) {
  Stm stm{small_config()};
  VBox<int> box{1};
  EXPECT_THROW((void)stm.read_only<int>([&](Tx& tx) {
    tx.run_children({[&](Tx& child) { box.write(child, 9); }});
    return 0;
  }),
               std::logic_error);
  EXPECT_EQ(box.peek(), 1);
}

TEST(StmBasic, ReadOnlyTransactionKeepsNoReadSet) {
  Stm stm{small_config()};
  TArray<int> arr{256, 1};
  const std::size_t recorded = stm.read_only<std::size_t>([&](Tx& tx) {
    int sum = 0;
    for (std::size_t i = 0; i < arr.size(); ++i) sum += arr.read(tx, i);
    EXPECT_EQ(sum, 256);
    return tx.read_set_size();
  });
  EXPECT_EQ(recorded, 0u);
  EXPECT_EQ(stm.stats().reads, 256u);  // every read is still counted
}

TEST(StmBasic, ReadOnlyReadsStayOnTheirSnapshot) {
  // Two writers commit between two reads of one box inside one read-only
  // body. Without a read set, the second read finds the body at the
  // snapshot in the chain again; the registered snapshot keeps it unpruned.
  Stm stm{small_config()};
  VBox<int> box{1};
  std::latch first_read{1};
  std::latch written{1};
  std::jthread writer([&] {
    first_read.wait();
    stm.run_top([&](Tx& tx) { box.write(tx, 2); });
    stm.run_top([&](Tx& tx) { box.write(tx, 3); });
    written.count_down();
  });
  const auto [before, after] = stm.read_only<std::pair<int, int>>([&](Tx& tx) {
    const int first = box.read(tx);
    first_read.count_down();
    written.wait();
    return std::pair{first, box.read(tx)};
  });
  EXPECT_EQ(before, 1);
  EXPECT_EQ(after, 1);
  EXPECT_EQ(box.peek(), 3);
  EXPECT_EQ(stm.clock(), 2u);
}

// ---- the flat box set past its index ----------------------------------------

constexpr std::size_t kManyBoxes = 1000;
static_assert(kManyBoxes > 4 * Tx::kLinearSetMax);

TEST(StmBasic, LargeSetPastItsIndexCommits) {
  Stm stm{small_config()};
  TArray<int> arr{kManyBoxes, 1};
  stm.run_top([&](Tx& tx) {
    for (std::size_t i = 0; i < kManyBoxes; ++i) {
      arr.write(tx, i, arr.read(tx, i) + static_cast<int>(i));
    }
    // Every box is found again: reads see the pending writes.
    for (std::size_t i = 0; i < kManyBoxes; ++i) {
      ASSERT_EQ(arr.read(tx, i), 1 + static_cast<int>(i));
    }
    EXPECT_EQ(tx.read_set_size(), kManyBoxes);
    EXPECT_EQ(tx.write_set_size(), kManyBoxes);
  });
  for (std::size_t i = 0; i < kManyBoxes; ++i) {
    ASSERT_EQ(arr.peek(i), 1 + static_cast<int>(i));
  }
  EXPECT_EQ(stm.stats().top_commits, 1u);
  EXPECT_EQ(stm.stats().top_aborts, 0u);
}

TEST(StmBasic, ConflictOnTheLastReadBoxOfALargeSetIsDetected) {
  // The first attempt reads every box, then parks while another
  // transaction overwrites the box it read last. Validation must find that
  // box through the index and abort the attempt; the retry sees the write.
  Stm stm{small_config()};
  stm.set_contention_profiling(true);
  TArray<int> arr{kManyBoxes, 0, "arr"};
  VBox<long> sum_box{0L};
  std::latch parked{1};
  std::latch overwritten{1};
  std::jthread writer([&] {
    parked.wait();
    stm.run_top([&](Tx& tx) { arr.write(tx, kManyBoxes - 1, 7); });
    overwritten.count_down();
  });
  int attempts = 0;
  stm.run_top([&](Tx& tx) {
    long sum = 0;
    for (std::size_t i = 0; i < kManyBoxes; ++i) sum += arr.read(tx, i);
    sum_box.write(tx, sum);
    if (++attempts == 1) {
      parked.count_down();
      overwritten.wait();
    }
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(sum_box.peek(), 7L);
  EXPECT_EQ(stm.stats().aborts_validation, 1u);
  const auto hotspots = stm.contention_hotspots();
  ASSERT_FALSE(hotspots.empty());
  EXPECT_EQ(hotspots[0].label, "arr[" + std::to_string(kManyBoxes - 1) + "]");
}

TEST(StmBasic, RewrittenBoxKeepsEarlierReferencesAndFreesEveryBody) {
  // Each attempt writes a box twice and reads it in between: the reference
  // into the first write's body must outlive its replacement, and a read
  // after the second write sees the second value. The first attempt aborts
  // by explicit retry, the second fails validation, and the third commits,
  // so the ASan build's leak check covers the bodies of either abort.
  Stm stm{small_config()};
  const std::string first_value(32, 'a');
  const std::string second_value(32, 'b');
  VBox<std::string> box{std::string(32, 'i')};
  VBox<int> other{0};
  std::latch parked{1};
  std::latch overwritten{1};
  std::jthread writer([&] {
    parked.wait();
    stm.run_top([&](Tx& tx) { other.write(tx, 1); });
    overwritten.count_down();
  });
  int attempts = 0;
  std::string seen;
  stm.run_top([&](Tx& tx) {
    ++attempts;
    const int o = other.read(tx);
    box.write(tx, first_value);
    const std::string& first = box.read(tx);
    box.write(tx, second_value);
    seen = box.read(tx);
    EXPECT_EQ(first, first_value);
    if (attempts == 1) tx.retry();
    if (attempts == 2) {
      parked.count_down();
      overwritten.wait();
    }
    EXPECT_EQ(o, attempts == 3 ? 1 : 0);
  });
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(seen, second_value);
  EXPECT_EQ(box.peek(), second_value);
  const auto stats = stm.stats();
  EXPECT_EQ(stats.aborts_explicit, 1u);
  EXPECT_EQ(stats.aborts_validation, 1u);
}

TEST(StmBasic, WriteSetSizeTracksDistinctBoxes) {
  Stm stm{small_config()};
  VBox<int> a{0};
  VBox<int> b{0};
  stm.run_top([&](Tx& tx) {
    a.write(tx, 1);
    a.write(tx, 2);
    b.write(tx, 3);
    EXPECT_EQ(tx.write_set_size(), 2u);
    EXPECT_TRUE(tx.is_top_level());
    EXPECT_EQ(tx.depth(), 0);
  });
}

}  // namespace
}  // namespace autopn::stm
