// Closed parallel-nesting semantics: child visibility rules, merge-on-commit,
// sibling conflict detection and child-local retry, multi-level nesting.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <semaphore>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stm/containers.hpp"
#include "stm/stm.hpp"

namespace autopn::stm {
namespace {

StmConfig nest_config(std::size_t pool = 4, std::size_t c = 8) {
  StmConfig cfg;
  cfg.pool_threads = pool;
  cfg.initial_top = 4;
  cfg.initial_children = c;
  return cfg;
}

TEST(Nesting, ChildSeesParentTentativeWrite) {
  Stm stm{nest_config()};
  VBox<int> box{1};
  stm.run_top([&](Tx& tx) {
    box.write(tx, 100);
    int child_saw = 0;
    tx.run_children({[&](Tx& child) { child_saw = box.read(child); }});
    EXPECT_EQ(child_saw, 100);
  });
}

TEST(Nesting, ChildSeesGlobalSnapshotWhenParentSilent) {
  Stm stm{nest_config()};
  VBox<int> box{55};
  stm.run_top([&](Tx& tx) {
    int child_saw = 0;
    tx.run_children({[&](Tx& child) { child_saw = box.read(child); }});
    EXPECT_EQ(child_saw, 55);
  });
}

TEST(Nesting, ChildWriteVisibleToParentAfterJoin) {
  Stm stm{nest_config()};
  VBox<int> box{0};
  stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx& child) { box.write(child, 9); }});
    EXPECT_EQ(box.read(tx), 9);  // merged into parent's write set
  });
  EXPECT_EQ(box.peek(), 9);  // and committed globally with the root
}

TEST(Nesting, ChildWriteNotGloballyVisibleUntilRootCommits) {
  Stm stm{nest_config()};
  VBox<int> box{0};
  stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx& child) { box.write(child, 5); }});
    // Closed nesting: still private to the tree before root commit.
    EXPECT_EQ(box.peek(), 0);
  });
  EXPECT_EQ(box.peek(), 5);
}

TEST(Nesting, DisjointSiblingsAllMerge) {
  Stm stm{nest_config()};
  TArray<int> arr{16, 0};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (std::size_t i = 0; i < 16; ++i) {
      kids.emplace_back([&arr, i](Tx& child) {
        arr.write(child, i, static_cast<int>(i) + 1);
      });
    }
    tx.run_children(std::move(kids));
  });
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(arr.peek(i), static_cast<int>(i) + 1);
  }
  EXPECT_EQ(stm.stats().child_commits, 16u);
  EXPECT_EQ(stm.stats().child_aborts, 0u);
}

TEST(Nesting, ConflictingSiblingsSerializeViaRetry) {
  // All children increment one counter: sibling conflicts force retries but
  // the final sum must equal the number of children (atomic increments).
  Stm stm{nest_config(/*pool=*/4, /*c=*/8)};
  VBox<int> counter{0};
  const int kids_n = 12;
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (int i = 0; i < kids_n; ++i) {
      kids.emplace_back([&](Tx& child) { counter.write(child, counter.read(child) + 1); });
    }
    tx.run_children(std::move(kids));
  });
  EXPECT_EQ(counter.peek(), kids_n);
  EXPECT_EQ(stm.stats().child_commits, static_cast<std::uint64_t>(kids_n));
}

TEST(Nesting, SiblingConflictRetriesChildOnlyNotRoot) {
  Stm stm{nest_config()};
  VBox<int> counter{0};
  std::atomic<int> root_attempts{0};
  stm.run_top([&](Tx& tx) {
    root_attempts.fetch_add(1);
    std::vector<std::function<void(Tx&)>> kids;
    for (int i = 0; i < 8; ++i) {
      kids.emplace_back([&](Tx& child) { counter.write(child, counter.read(child) + 1); });
    }
    tx.run_children(std::move(kids));
  });
  EXPECT_EQ(root_attempts.load(), 1);  // partial aborts stayed inside the tree
  EXPECT_EQ(counter.peek(), 8);
}

TEST(Nesting, TwoLevelNesting) {
  Stm stm{nest_config(/*pool=*/4, /*c=*/4)};
  TArray<int> arr{8, 0};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (std::size_t half = 0; half < 2; ++half) {
      kids.emplace_back([&arr, half](Tx& child) {
        std::vector<std::function<void(Tx&)>> grandkids;
        for (std::size_t i = 0; i < 4; ++i) {
          const std::size_t idx = half * 4 + i;
          grandkids.emplace_back([&arr, idx](Tx& grandchild) {
            arr.write(grandchild, idx, 7);
            EXPECT_EQ(grandchild.depth(), 2);
          });
        }
        child.run_children(std::move(grandkids));
        // Grandchildren's writes merged into the child.
        for (std::size_t i = 0; i < 4; ++i) {
          EXPECT_EQ(arr.read(child, half * 4 + i), 7);
        }
      });
    }
    tx.run_children(std::move(kids));
  });
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(arr.peek(i), 7);
}

TEST(Nesting, DeepNestingWithChildLimitOne) {
  // c=1 must not deadlock: a nested spawner releases its token while waiting.
  Stm stm{nest_config(/*pool=*/2, /*c=*/1)};
  VBox<int> box{0};
  stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx& child) {
      child.run_children({[&](Tx& grandchild) {
        grandchild.run_children({[&](Tx& ggchild) { box.write(ggchild, 3); }});
      }});
    }});
  });
  EXPECT_EQ(box.peek(), 3);
}

TEST(Nesting, ChildLimitBoundsRunningChildren) {
  // c counts threads running inside the tree, the parent's included.
  Stm stm{nest_config(/*pool=*/4, /*c=*/2)};
  TArray<int> arr{12, 0};
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (std::size_t i = 0; i < 12; ++i) {
      kids.emplace_back([&, i](Tx& child) {
        const int now = running.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
        arr.write(child, i, 1);
        running.fetch_sub(1);
      });
    }
    tx.run_children(std::move(kids));
  });
  EXPECT_LE(peak.load(), 2);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(arr.peek(i), 1);
}

TEST(Nesting, ChildLimitOneRunsChildrenOnTheCallingThread) {
  Stm stm{nest_config(/*pool=*/4, /*c=*/1)};
  VBox<int> box{0};
  std::vector<std::thread::id> ran_on;
  stm.run_top([&](Tx& tx) {
    ran_on.assign(6, std::thread::id{});
    std::vector<std::function<void(Tx&)>> kids;
    for (std::size_t i = 0; i < 6; ++i) {
      kids.emplace_back([&, i](Tx& child) {
        ran_on[i] = std::this_thread::get_id();
        box.write(child, box.read(child) + 1);
      });
    }
    tx.run_children(std::move(kids));
  });
  EXPECT_EQ(box.peek(), 6);
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(Nesting, ChildReadValidatedAgainstSiblingWrite) {
  // Construct a deterministic sibling conflict: both children read-modify-
  // write the same box; exactly one must retry (or more, but commits == 2 and
  // result == 2).
  Stm stm{nest_config(/*pool=*/2, /*c=*/2)};
  VBox<int> box{0};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (int i = 0; i < 2; ++i) {
      kids.emplace_back([&](Tx& child) { box.write(child, box.read(child) + 1); });
    }
    tx.run_children(std::move(kids));
  });
  EXPECT_EQ(box.peek(), 2);
}

TEST(Nesting, ChildMergingPastTheIndexValidatesAgainstItsParent) {
  // Both the parent's and each child's box set grow past the linear-scan
  // size. Two overlapping children each read every box — the parent's
  // tentative writes first, then the global ones, the shared `hot` box
  // last — and increment `hot`. Whichever merges second must fail
  // validation on `hot` against the parent and retry, or an increment is
  // lost.
  constexpr std::size_t kBoxes = 4 * Tx::kLinearSetMax;
  Stm stm{nest_config(/*pool=*/2, /*c=*/2)};
  TArray<int> parents{kBoxes, 0};
  TArray<int> globals{kBoxes, 1};
  TArray<int> own{2 * kBoxes, 0};
  VBox<int> hot{0};
  std::binary_semaphore read_done[2]{std::binary_semaphore{0},
                                     std::binary_semaphore{0}};
  std::atomic<bool> first_attempt[2]{true, true};
  std::atomic<int> overlapped{0};
  stm.run_top([&](Tx& tx) {
    for (std::size_t i = 0; i < kBoxes; ++i) parents.write(tx, i, 5);
    std::vector<std::function<void(Tx&)>> kids;
    for (std::size_t k = 0; k < 2; ++k) {
      kids.emplace_back([&, k](Tx& child) {
        int seen = 0;
        for (std::size_t i = 0; i < kBoxes; ++i) seen += parents.read(child, i);
        for (std::size_t i = 0; i < kBoxes; ++i) seen += globals.read(child, i);
        const int h = hot.read(child);
        EXPECT_GE(child.read_set_size(), 2 * kBoxes);
        for (std::size_t i = 0; i < kBoxes; ++i) own.write(child, k * kBoxes + i, seen);
        hot.write(child, h + 1);
        if (first_attempt[k].exchange(false)) {
          // Bounded: without a second thread the children cannot overlap,
          // and the test fails below instead of hanging.
          read_done[k].release();
          if (read_done[1 - k].try_acquire_for(std::chrono::seconds{10})) {
            overlapped.fetch_add(1);
          }
        }
      });
    }
    tx.run_children(std::move(kids));
  });
  ASSERT_EQ(overlapped.load(), 2) << "the two children never overlapped";
  EXPECT_EQ(hot.peek(), 2);
  EXPECT_GE(stm.stats().aborts_sibling, 1u);
  const int expected = static_cast<int>(kBoxes) * (5 + 1);
  for (std::size_t i = 0; i < 2 * kBoxes; ++i) ASSERT_EQ(own.peek(i), expected);
}

TEST(Nesting, SiblingKeepsReadingTheParentBodyAMergeReplaced) {
  // Sibling A reads the parent's pending write, then parks until sibling B
  // has merged a new write of the same box over it. The parent's replaced
  // body goes on the parent's retire list, not back to the allocator: A's
  // reference and its cached re-read still show the parent's value. A then
  // fails its merge on the stamp, and its retry reads B's value.
  Stm stm{nest_config(/*pool=*/2, /*c=*/2)};
  VBox<std::string> box{std::string{"global"}};
  const std::string parents(32, 'p');
  const std::string siblings(32, 's');
  std::binary_semaphore a_read{0};
  int a_attempts = 0;
  bool overlapped = false;
  std::string a_first;
  std::string a_again;
  std::string a_retry;
  stm.run_top([&](Tx& tx) {
    box.write(tx, parents);
    tx.run_children({
        [&](Tx& a) {
          if (++a_attempts > 1) {
            a_retry = box.read(a);
            return;
          }
          const std::string& ref = box.read(a);
          a_read.release();
          // Bounded: without a second thread B cannot merge meanwhile, and
          // the test fails below instead of hanging.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds{10};
          while (stm.stats().child_commits == 0 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          overlapped = stm.stats().child_commits == 1;
          a_first = ref;
          a_again = box.read(a);
        },
        [&](Tx& b) {
          if (!a_read.try_acquire_for(std::chrono::seconds{10})) return;
          box.write(b, siblings);
        }});
    EXPECT_EQ(box.read(tx), siblings);
  });
  ASSERT_TRUE(overlapped) << "sibling B never merged while A was parked";
  EXPECT_EQ(a_first, parents);
  EXPECT_EQ(a_again, parents);
  EXPECT_EQ(a_attempts, 2);
  EXPECT_EQ(a_retry, siblings);
  EXPECT_GE(stm.stats().aborts_sibling, 1u);
  EXPECT_EQ(box.peek(), siblings);
}

TEST(Nesting, EmptyChildBatchIsNoop) {
  Stm stm{nest_config()};
  VBox<int> box{1};
  stm.run_top([&](Tx& tx) {
    tx.run_children({});
    box.write(tx, 2);
  });
  EXPECT_EQ(box.peek(), 2);
}

TEST(Nesting, UserExceptionInChildPropagatesToParent) {
  Stm stm{nest_config()};
  VBox<int> box{0};
  EXPECT_THROW(stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx&) { throw std::runtime_error{"child boom"}; }});
    box.write(tx, 1);
  }),
               std::runtime_error);
  EXPECT_EQ(box.peek(), 0);
}

TEST(Nesting, SequentialChildBatches) {
  Stm stm{nest_config()};
  VBox<int> box{0};
  stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx& child) { box.write(child, box.read(child) + 1); }});
    tx.run_children({[&](Tx& child) { box.write(child, box.read(child) + 1); }});
    EXPECT_EQ(box.read(tx), 2);
  });
  EXPECT_EQ(box.peek(), 2);
}

TEST(Nesting, ParentReadThenChildWriteThenParentRead) {
  // Parent reads X, a child overwrites it, parent reads again and must see
  // the child's (merged) value — nested program-order semantics.
  Stm stm{nest_config()};
  VBox<int> box{10};
  stm.run_top([&](Tx& tx) {
    EXPECT_EQ(box.read(tx), 10);
    tx.run_children({[&](Tx& child) { box.write(child, 20); }});
    EXPECT_EQ(box.read(tx), 20);
  });
  EXPECT_EQ(box.peek(), 20);
}

TEST(Nesting, ManyChildrenWithSmallPool) {
  // Fan-out far above the pool size; help-draining keeps progress.
  Stm stm{nest_config(/*pool=*/1, /*c=*/4)};
  TArray<long> arr{64, 0L};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (std::size_t i = 0; i < 64; ++i) {
      kids.emplace_back([&arr, i](Tx& child) { arr.write(child, i, 1L); });
    }
    tx.run_children(std::move(kids));
  });
  long sum = 0;
  for (std::size_t i = 0; i < 64; ++i) sum += arr.peek(i);
  EXPECT_EQ(sum, 64L);
}

TEST(Nesting, GrandchildSeesGrandparentTentativeWrite) {
  Stm stm{nest_config()};
  VBox<int> box{1};
  stm.run_top([&](Tx& tx) {
    box.write(tx, 42);
    int seen = 0;
    tx.run_children({[&](Tx& child) {
      child.run_children({[&](Tx& grandchild) { seen = box.read(grandchild); }});
    }});
    EXPECT_EQ(seen, 42);
  });
}

// ---- box-set storage reuse ----------------------------------------------------
//
// A transaction's set storage passes, cleared, to the next transaction begun
// on its thread. Each test below fills a set past its index with uncommitted
// writes, aborts it one way, and checks that the next set on that thread
// starts empty and that its reads see only committed values. c = 1 keeps
// every transaction of the tree on the test thread.

constexpr std::size_t kFilled = 2 * Tx::kLinearSetMax + 4;

/// Reads and overwrites every box of `arr` in `tx`.
void fill_set(Tx& tx, const TArray<int>& arr) {
  for (std::size_t i = 0; i < arr.size(); ++i) {
    arr.write(tx, i, arr.read(tx, i) + 99);
  }
}

/// `tx`'s set is empty and every box of `arr` reads its committed value.
void expect_fresh(Tx& tx, const TArray<int>& arr) {
  EXPECT_EQ(tx.read_set_size(), 0u);
  EXPECT_EQ(tx.write_set_size(), 0u);
  for (std::size_t i = 0; i < arr.size(); ++i) {
    EXPECT_EQ(arr.read(tx, i), arr.peek(i));
  }
}

TEST(Nesting, ReusedSetStartsEmptyAfterRetry) {
  Stm stm{nest_config(/*pool=*/1, /*c=*/1)};
  TArray<int> arr{kFilled, 1};
  int attempts = 0;
  stm.run_top([&](Tx& tx) {
    expect_fresh(tx, arr);
    if (++attempts == 1) {
      fill_set(tx, arr);
      tx.retry();
    }
  });
  EXPECT_EQ(attempts, 2);
  stm.run_top([&](Tx& tx) { expect_fresh(tx, arr); });
  for (std::size_t i = 0; i < kFilled; ++i) EXPECT_EQ(arr.peek(i), 1);
}

TEST(Nesting, ReusedSetStartsEmptyAfterUserException) {
  Stm stm{nest_config(/*pool=*/1, /*c=*/1)};
  TArray<int> arr{kFilled, 1};
  EXPECT_THROW(stm.run_top([&](Tx& tx) {
    fill_set(tx, arr);
    throw std::runtime_error{"user abort"};
  }),
               std::runtime_error);
  stm.run_top([&](Tx& tx) { expect_fresh(tx, arr); });
  for (std::size_t i = 0; i < kFilled; ++i) EXPECT_EQ(arr.peek(i), 1);
}

TEST(Nesting, ReusedSetStartsEmptyAfterChildConflict) {
  Stm stm{nest_config(/*pool=*/1, /*c=*/1)};
  TArray<int> arr{kFilled, 1};
  int child_attempts = 0;
  stm.run_top([&](Tx& tx) {
    tx.run_children(1, [&](Tx& child, std::size_t) {
      expect_fresh(child, arr);
      if (++child_attempts == 1) {
        fill_set(child, arr);
        throw ConflictError{ConflictKind::kSiblingWrite};
      }
    });
  });
  EXPECT_EQ(child_attempts, 2);
  stm.run_top([&](Tx& tx) { expect_fresh(tx, arr); });
  for (std::size_t i = 0; i < kFilled; ++i) EXPECT_EQ(arr.peek(i), 1);
}

TEST(Nesting, DepthThreeTreeFreesEveryBody) {
  // Meant for ASan and LeakSanitizer (scripts/run_all.sh): rewrites retire
  // bodies at every level, merges hand them up, aborted attempts drop them
  // with their sets, a committed tree installs them, and a user exception
  // unwinds the whole tree. Every value is a 32-byte string on the heap, so
  // a body freed twice or never shows.
  Stm stm{nest_config(/*pool=*/2, /*c=*/2)};
  TArray<std::string> arr{7, std::string{}};
  const auto text = [](char c) { return std::string(32, c); };
  std::array<std::atomic<int>, 2> leaf_attempts{};
  const auto tree = [&](Tx& tx, bool fail) {
    arr.write(tx, 0, text('r'));
    arr.write(tx, 0, text('R'));
    tx.run_children(2, [&](Tx& child, std::size_t i) {
      arr.write(child, 1 + i, text('c'));
      arr.write(child, 1 + i, text('C'));
      child.run_children(1, [&](Tx& grandchild, std::size_t) {
        arr.write(grandchild, 1 + i, text('g'));
        arr.write(grandchild, 3 + i, text('g'));
        grandchild.run_children(1, [&](Tx& leaf, std::size_t) {
          EXPECT_EQ(leaf.depth(), 3);
          EXPECT_EQ(arr.read(leaf, 0), text('R'));
          arr.write(leaf, 5 + i, text('l'));
          if (fail) throw std::runtime_error{"leaf failed"};
          if (leaf_attempts[i].fetch_add(1) == 0) {
            throw ConflictError{ConflictKind::kSiblingWrite};
          }
        });
      });
    });
  };
  int top_attempts = 0;
  stm.run_top([&](Tx& tx) {
    tree(tx, /*fail=*/false);
    if (++top_attempts == 1) tx.retry();
  });
  EXPECT_EQ(top_attempts, 2);
  EXPECT_THROW(stm.run_top([&](Tx& tx) { tree(tx, /*fail=*/true); }),
               std::runtime_error);
  EXPECT_EQ(arr.peek(0), text('R'));
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(arr.peek(1 + i), text('g'));
    EXPECT_EQ(arr.peek(3 + i), text('g'));
    EXPECT_EQ(arr.peek(5 + i), text('l'));
    EXPECT_EQ(leaf_attempts[i].load(), 3);
  }
}

}  // namespace
}  // namespace autopn::stm
