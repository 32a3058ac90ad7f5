// Transactional container semantics: TArray slot independence, TMap
// bucket-granular copy-on-write behaviour, and TLog's stable id -> box index.
#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
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

TEST(TArrayTest, InitAndSize) {
  TArray<int> arr{10, 7};
  EXPECT_EQ(arr.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(arr.peek(i), 7);
}

TEST(TArrayTest, ReadWriteRoundTrip) {
  Stm stm{cfg()};
  TArray<int> arr{4, 0};
  stm.run_top([&](Tx& tx) {
    arr.write(tx, 2, 42);
    EXPECT_EQ(arr.read(tx, 2), 42);
    EXPECT_EQ(arr.read(tx, 1), 0);
  });
  EXPECT_EQ(arr.peek(2), 42);
}

TEST(TArrayTest, OutOfRangeThrows) {
  Stm stm{cfg()};
  TArray<int> arr{2, 0};
  EXPECT_THROW(stm.run_top([&](Tx& tx) { (void)arr.read(tx, 5); }), std::out_of_range);
}

TEST(TArrayTest, DisjointSlotsNoConflict) {
  Stm stm{cfg()};
  TArray<int> arr{8, 0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        stm.run_top([&, t](Tx& tx) {
          const auto idx = static_cast<std::size_t>(t);
          arr.write(tx, idx, arr.read(tx, idx) + 1);
        });
      }
    });
  }
  threads.clear();
  // Disjoint slots: no top-level aborts expected at all.
  EXPECT_EQ(stm.stats().top_aborts, 0u);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(arr.peek(t), 100);
}

TEST(TMapTest, PutGetErase) {
  Stm stm{cfg()};
  TMap<int, std::string> map{16};
  stm.run_top([&](Tx& tx) {
    EXPECT_FALSE(map.get(tx, 1).has_value());
    map.put(tx, 1, "one");
    map.put(tx, 2, "two");
    EXPECT_EQ(map.get(tx, 1).value(), "one");
    EXPECT_TRUE(map.contains(tx, 2));
    EXPECT_FALSE(map.contains(tx, 3));
  });
  stm.run_top([&](Tx& tx) {
    EXPECT_EQ(map.get(tx, 2).value(), "two");
    EXPECT_TRUE(map.erase(tx, 1));
    EXPECT_FALSE(map.erase(tx, 1));
  });
  stm.run_top([&](Tx& tx) {
    EXPECT_FALSE(map.contains(tx, 1));
    EXPECT_EQ(map.size(tx), 1u);
  });
}

TEST(TMapTest, OverwriteKeepsSingleEntry) {
  Stm stm{cfg()};
  TMap<int, int> map{4};
  stm.run_top([&](Tx& tx) {
    map.put(tx, 5, 1);
    map.put(tx, 5, 2);
    EXPECT_EQ(map.get(tx, 5).value(), 2);
    EXPECT_EQ(map.size(tx), 1u);
  });
}

TEST(TMapTest, CollidingKeysShareBucket) {
  Stm stm{cfg()};
  TMap<int, int> map{1};  // force all keys into one bucket
  stm.run_top([&](Tx& tx) {
    for (int k = 0; k < 10; ++k) map.put(tx, k, k * k);
  });
  stm.run_top([&](Tx& tx) {
    for (int k = 0; k < 10; ++k) EXPECT_EQ(map.get(tx, k).value(), k * k);
    EXPECT_EQ(map.size(tx), 10u);
  });
}

TEST(TMapTest, ForEachVisitsAll) {
  Stm stm{cfg()};
  TMap<int, int> map{8};
  stm.run_top([&](Tx& tx) {
    for (int k = 0; k < 5; ++k) map.put(tx, k, 2 * k);
  });
  int sum_keys = 0;
  int sum_vals = 0;
  stm.run_top([&](Tx& tx) {
    map.for_each(tx, [&](const int& k, const int& v) {
      sum_keys += k;
      sum_vals += v;
    });
  });
  EXPECT_EQ(sum_keys, 10);
  EXPECT_EQ(sum_vals, 20);
}

TEST(TMapTest, ZeroBucketsRejected) {
  EXPECT_THROW((TMap<int, int>{0}), std::invalid_argument);
}

TEST(TMapTest, AbortDiscardsMapChanges) {
  Stm stm{cfg()};
  TMap<int, int> map{8};
  stm.run_top([&](Tx& tx) { map.put(tx, 1, 10); });
  EXPECT_THROW(stm.run_top([&](Tx& tx) {
    map.put(tx, 2, 20);
    map.erase(tx, 1);
    throw std::runtime_error{"abort"};
  }),
               std::runtime_error);
  stm.run_top([&](Tx& tx) {
    EXPECT_TRUE(map.contains(tx, 1));
    EXPECT_FALSE(map.contains(tx, 2));
  });
}

TEST(TMapTest, ConcurrentDisjointBucketWrites) {
  Stm stm{cfg()};
  TMap<int, int> map{64};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        stm.run_top([&, t](Tx& tx) { map.put(tx, t * 1000 + i, i); });
      }
    });
  }
  threads.clear();
  stm.run_top([&](Tx& tx) { EXPECT_EQ(map.size(tx), 200u); });
}

TEST(TMapTest, NestedChildrenPopulateMap) {
  Stm stm{cfg()};
  TMap<int, int> map{32};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (int k = 0; k < 8; ++k) {
      kids.emplace_back([&map, k](Tx& child) { map.put(child, k, k + 100); });
    }
    tx.run_children(std::move(kids));
    EXPECT_EQ(map.size(tx), 8u);
  });
  stm.run_top([&](Tx& tx) {
    for (int k = 0; k < 8; ++k) EXPECT_EQ(map.get(tx, k).value(), k + 100);
  });
}

// ---- TLog -------------------------------------------------------------------

TEST(TLogTest, SegmentEdgesMapToDistinctStableBoxes) {
  TLog<int> log;
  // First and last ids of segments 0, 1 and 2, and one deep in segment 10.
  const std::array<int, 6> ids{1, 64, 65, 192, 193, 100'000};
  std::set<const VBox<int>*> distinct;
  std::vector<const VBox<int>*> first_touch;
  for (int id : ids) {
    first_touch.push_back(&log.box(id));
    distinct.insert(first_touch.back());
  }
  EXPECT_EQ(distinct.size(), ids.size());
  // Neighbours in the same segments and a fresh segment change nothing.
  (void)log.box(2);
  (void)log.box(500);
  (void)log.box(1'000);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(&log.box(ids[i]), first_touch[i]) << "id " << ids[i];
  }
  EXPECT_THROW((void)log.box(0), std::out_of_range);
  EXPECT_THROW((void)log.box(-3), std::out_of_range);
}

TEST(TLogTest, RacingFirstTouchesShareOneSegment) {
  // Four threads released together touch every id of segments 0..5, each
  // fresh, in the same order; every thread must see the same box per id.
  constexpr int kThreads = 4;
  constexpr int kIds = 4'032;  // ids 1..4032 span segments 0..5 exactly
  TLog<int> log;
  std::latch start{kThreads};
  std::array<std::vector<const VBox<int>*>, kThreads> seen;
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int id = 1; id <= kIds; ++id) seen[t].push_back(&log.box(id));
    });
  }
  threads.clear();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  EXPECT_EQ(std::set<const VBox<int>*>(seen[0].begin(), seen[0].end()).size(),
            static_cast<std::size_t>(kIds));
}

TEST(TLogTest, ReadOfUncommittedIdThrows) {
  Stm stm{cfg()};
  TLog<int> log;
  EXPECT_THROW(stm.run_top([&](Tx& tx) { (void)log.read(tx, 5); }),
               std::logic_error);
  // A write that aborted leaves the id uncommitted.
  EXPECT_THROW(stm.run_top([&](Tx& tx) {
    log.write(tx, 5, 50);
    throw std::runtime_error{"abort"};
  }),
               std::runtime_error);
  EXPECT_THROW(stm.run_top([&](Tx& tx) { (void)log.read(tx, 5); }),
               std::logic_error);
}

TEST(TLogTest, WriteCommitReadRoundTrip) {
  Stm stm{cfg()};
  TLog<std::string> log;
  stm.run_top([&](Tx& tx) {
    log.write(tx, 1, "top");
    EXPECT_EQ(log.read(tx, 1), "top");
  });
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (int id = 2; id <= 4; ++id) {
      kids.emplace_back([&log, id](Tx& child) {
        log.write(child, id, "child " + std::to_string(id));
      });
    }
    tx.run_children(std::move(kids));
    EXPECT_EQ(log.read(tx, 3), "child 3");
  });
  std::string seen_by_child;
  stm.run_top([&](Tx& tx) {
    EXPECT_EQ(log.read(tx, 1), "top");
    tx.run_children({[&](Tx& child) { seen_by_child = log.read(child, 4); }});
  });
  EXPECT_EQ(seen_by_child, "child 4");
  EXPECT_EQ(log.box(2).peek(), "child 2");
}

}  // namespace
}  // namespace autopn::stm
