// Transactional container semantics: TArray slot independence and TMap
// bucket-granular copy-on-write behaviour.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace autopn::stm
