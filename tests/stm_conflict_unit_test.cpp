// The container conflict unit: a TMap bucket is one versioned box, and a
// transaction aborts when a box it read was written by a transaction that
// committed first.
//
// The claims pinned here:
//  * a read of a key that is then overwritten, erased or inserted by a
//    concurrent commit aborts the reader, whose retry re-reads;
//  * operations on disjoint keys of one bucket conflict too — and every
//    operation still lands after the retry;
//  * a transaction's own writes are visible to it, and a child reading an
//    ancestor's tentative put/erase commits without livelock;
//  * siblings on one bucket end in the right state, and a same-key sibling
//    conflict is serialized (no lost update).
//
// The SemanticMapTest suite name, and the Predicate and TreeLocal wording in
// some test names, predate the switch to box granularity and are kept so the
// tests' histories stay continuous.
//
// Interleavings are pinned with latches: the first attempt of transaction A
// parks mid-body while transaction B runs start-to-commit, then A resumes.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <optional>
#include <thread>
#include <vector>

#include "stm/containers.hpp"
#include "stm/stm.hpp"

namespace autopn::stm {
namespace {

StmConfig cfg() {
  StmConfig c;
  c.pool_threads = 2;
  c.initial_top = 4;
  c.initial_children = 4;
  return c;
}

/// A single-bucket map: every key shares the one box.
TMap<int, int> one_bucket() { return TMap<int, int>{1, "m"}; }

// Runs `first` up to its park point, then `second` start-to-finish, then
// releases `first` to commit. Only the first attempt of `first` parks;
// retries run straight through.
template <typename FirstBody, typename SecondBody>
void interleave(Stm& stm, FirstBody first, SecondBody second) {
  std::latch parked{1};
  std::latch resume{1};
  std::atomic<bool> first_attempt{true};
  std::thread a{[&] {
    stm.run_top([&](Tx& tx) {
      const bool park = first_attempt.exchange(false, std::memory_order_acq_rel);
      first(tx);
      if (park) {
        parked.count_down();
        resume.wait();
      }
    });
  }};
  parked.wait();
  stm.run_top([&](Tx& tx) { second(tx); });
  resume.count_down();
  a.join();
}

// ---- disjoint keys of one bucket conflict ----------------------------------

TEST(SemanticMapTest, BoxPolicyAbortsOnDisjointKeySameBucket) {
  {
    Stm stm{cfg()};
    auto map = one_bucket();
    stm.run_top([&](Tx& tx) { map.put(tx, 1, 11); });
    // A reads key 1 and writes key 3; B writes key 2 in A's window. B's
    // bucket overwrite invalidates A's read of the bucket.
    interleave(
        stm,
        [&](Tx& tx) {
          EXPECT_EQ(map.get(tx, 1), std::optional<int>{11});
          map.put(tx, 3, 33);
        },
        [&](Tx& tx) { map.put(tx, 2, 22); });
    const auto stats = stm.stats();
    EXPECT_EQ(stats.top_aborts, 1u);
    EXPECT_EQ(stats.aborts_validation, 1u);
    // Both transactions still commit correctly after retry.
    stm.run_top([&](Tx& tx) {
      EXPECT_EQ(map.get(tx, 1), std::optional<int>{11});
      EXPECT_EQ(map.get(tx, 2), std::optional<int>{22});
      EXPECT_EQ(map.get(tx, 3), std::optional<int>{33});
    });
  }
  {
    // Two puts of different keys: a put reads the bucket it copies, so the
    // later committer retries — and neither put clobbers the other.
    Stm stm{cfg()};
    auto map = one_bucket();
    interleave(
        stm, [&](Tx& tx) { map.put(tx, 1, 100); },
        [&](Tx& tx) { map.put(tx, 2, 200); });
    EXPECT_EQ(stm.stats().top_aborts, 1u);
    stm.run_top([&](Tx& tx) {
      EXPECT_EQ(map.get(tx, 1), std::optional<int>{100});
      EXPECT_EQ(map.get(tx, 2), std::optional<int>{200});
    });
  }
}

// ---- a read aborts when its key changes ------------------------------------

TEST(SemanticMapTest, PredicateAbortsWhenReadKeyIsOverwritten) {
  Stm stm{cfg()};
  auto map = one_bucket();
  stm.run_top([&](Tx& tx) { map.put(tx, 1, 11); });
  std::vector<int> observed;
  interleave(
      stm,
      [&](Tx& tx) {
        observed.push_back(map.get(tx, 1).value());
        map.put(tx, 3, 33);
      },
      [&](Tx& tx) { map.put(tx, 1, 99); });
  EXPECT_EQ(stm.stats().aborts_validation, 1u);
  // First attempt saw the old value, the committed retry the new one.
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], 11);
  EXPECT_EQ(observed[1], 99);
}

TEST(SemanticMapTest, AbsencePredicateAbortsWhenKeyAppears) {
  Stm stm{cfg()};
  auto map = one_bucket();
  std::vector<bool> observed;
  interleave(
      stm,
      [&](Tx& tx) {
        observed.push_back(map.contains(tx, 5));
        map.put(tx, 3, 33);
      },
      [&](Tx& tx) { map.put(tx, 5, 55); });
  EXPECT_EQ(stm.stats().aborts_validation, 1u);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_FALSE(observed[0]);
  EXPECT_TRUE(observed[1]);
}

TEST(SemanticMapTest, PredicateAbortsWhenReadKeyIsErased) {
  Stm stm{cfg()};
  auto map = one_bucket();
  stm.run_top([&](Tx& tx) { map.put(tx, 1, 11); });
  std::vector<std::optional<int>> observed;
  interleave(
      stm,
      [&](Tx& tx) {
        observed.push_back(map.get(tx, 1));
        map.put(tx, 3, 33);
      },
      [&](Tx& tx) { EXPECT_TRUE(map.erase(tx, 1)); });
  EXPECT_EQ(stm.stats().aborts_validation, 1u);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], std::optional<int>{11});
  EXPECT_EQ(observed[1], std::nullopt);
}

// ---- own and ancestor writes ------------------------------------------------

TEST(SemanticMapTest, OwnPendingOpDecidesWithoutPredicate) {
  Stm stm{cfg()};
  auto map = one_bucket();
  stm.run_top([&](Tx& tx) {
    map.put(tx, 1, 10);
    EXPECT_EQ(map.get(tx, 1), std::optional<int>{10});  // own write visible
    EXPECT_TRUE(map.erase(tx, 1));
    EXPECT_EQ(map.get(tx, 1), std::nullopt);
    map.put(tx, 2, 20);
  });
  stm.run_top([&](Tx& tx) {
    EXPECT_FALSE(map.contains(tx, 1));
    EXPECT_EQ(map.get(tx, 2), std::optional<int>{20});
  });
  EXPECT_EQ(stm.stats().top_aborts, 0u);
}

TEST(SemanticMapTest, TreeLocalPredicateIsNotValidatedAgainstCommittedState) {
  Stm stm{cfg()};
  auto map = one_bucket();
  stm.run_top([&](Tx& tx) { map.put(tx, 1, 11); });
  // The parent tentatively overwrites key 1; the child's read resolves
  // through that tentative write, which is not committed state yet — the
  // child's read is discharged at the parent and the tree commits once.
  stm.run_top([&](Tx& tx) {
    map.put(tx, 1, 22);
    tx.run_children({[&](Tx& child) {
      EXPECT_EQ(map.get(child, 1), std::optional<int>{22});
      map.put(child, 2, 2);
    }});
  });
  const auto stats = stm.stats();
  EXPECT_EQ(stats.top_aborts, 0u);
  EXPECT_EQ(stats.child_aborts, 0u);
  stm.run_top([&](Tx& tx) {
    EXPECT_EQ(map.get(tx, 1), std::optional<int>{22});
    EXPECT_EQ(map.get(tx, 2), std::optional<int>{2});
  });
}

TEST(SemanticMapTest, TreeLocalErasePredicateIsNotValidatedAgainstCommittedState) {
  Stm stm{cfg()};
  auto map = one_bucket();
  stm.run_top([&](Tx& tx) { map.put(tx, 1, 11); });
  // The parent tentatively erases key 1; the child observes it absent while
  // the key still exists in committed state — checking that read against
  // committed state would fail on every attempt and livelock.
  stm.run_top([&](Tx& tx) {
    EXPECT_TRUE(map.erase(tx, 1));
    tx.run_children({[&](Tx& child) {
      EXPECT_EQ(map.get(child, 1), std::nullopt);
      map.put(child, 2, 2);
    }});
  });
  const auto stats = stm.stats();
  EXPECT_EQ(stats.top_aborts, 0u);
  EXPECT_EQ(stats.child_aborts, 0u);
  stm.run_top([&](Tx& tx) {
    EXPECT_FALSE(map.contains(tx, 1));
    EXPECT_EQ(map.get(tx, 2), std::optional<int>{2});
  });
}

// ---- nested siblings --------------------------------------------------------

TEST(SemanticMapTest, SiblingDisjointKeyOpsSameBucketMergeCleanly) {
  Stm stm{cfg()};
  auto map = one_bucket();
  stm.run_top([&](Tx& tx) { map.put(tx, 0, 0); });
  // Siblings that share the bucket conflict and retry alone; every put must
  // land exactly once whatever order the retries take.
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> bodies;
    for (int k = 1; k <= 4; ++k) {
      bodies.push_back([&, k](Tx& child) {
        EXPECT_TRUE(map.contains(child, 0));
        map.put(child, k, k * 10);
      });
    }
    tx.run_children(std::move(bodies));
  });
  stm.run_top([&](Tx& tx) {
    EXPECT_EQ(map.size(tx), 5u);
    for (int k = 1; k <= 4; ++k) {
      EXPECT_EQ(map.get(tx, k), std::optional<int>{k * 10});
    }
  });
}

TEST(SemanticMapTest, SiblingConflictOnSameKeyStillDetected) {
  Stm stm{cfg()};
  auto map = one_bucket();
  stm.run_top([&](Tx& tx) { map.put(tx, 1, 0); });
  // Two children read-modify-write the SAME key: one child retries; no lost
  // update.
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> bodies;
    for (int c = 0; c < 2; ++c) {
      bodies.push_back([&](Tx& child) {
        map.put(child, 1, map.get(child, 1).value() + 1);
      });
    }
    tx.run_children(std::move(bodies));
  });
  stm.run_top([&](Tx& tx) { EXPECT_EQ(map.get(tx, 1), std::optional<int>{2}); });
}

}  // namespace
}  // namespace autopn::stm
