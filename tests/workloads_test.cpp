// Correctness tests for the three benchmark ports: invariants must hold
// under concurrent execution at various (t, c) settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/failpoint.hpp"
#include "workloads/array_bench.hpp"
#include "workloads/tpcc.hpp"
#include "workloads/vacation.hpp"

namespace autopn::workloads {

/// Order-Status and Stock-Level recomputed outside any transaction, from the
/// newest committed values (peek()); valid on a quiescent benchmark.
struct TpccReference {
  static long long order_status(const TpccBenchmark& b, int w, int d, int customer) {
    const DistrictRow drow = b.districts_.peek(b.district_key(w, d)).value();
    const stm::TLog<OrderRow>& log = b.orders(w, d);
    for (int oid = drow.next_order_id - 1; oid >= 1; --oid) {
      const OrderRow order = log.box(oid).peek();
      if (order.customer_id != customer) continue;
      long long total = 0;
      for (const OrderLine& line : order.lines) total += line.amount;
      return total;
    }
    return 0;
  }

  static int stock_level(const TpccBenchmark& b, int w, int d, int threshold,
                         int recent_orders = 20) {
    const DistrictRow drow = b.districts_.peek(b.district_key(w, d)).value();
    const stm::TLog<OrderRow>& log = b.orders(w, d);
    std::set<int> seen;
    int low = 0;
    const int newest = drow.next_order_id - 1;
    for (int oid = newest; oid >= std::max(1, newest - recent_orders + 1); --oid) {
      for (const OrderLine& line : log.box(oid).peek().lines) {
        if (!seen.insert(line.item_id).second) continue;
        const StockRow srow =
            b.stock_.peek(b.stock_key(line.supply_warehouse, line.item_id)).value();
        if (srow.quantity < threshold) ++low;
      }
    }
    return low;
  }
};

namespace {

stm::StmConfig cfg(std::size_t top, std::size_t children) {
  stm::StmConfig c;
  c.max_cores = 8;
  c.pool_threads = 2;
  c.initial_top = top;
  c.initial_children = children;
  return c;
}

// ---- Array ------------------------------------------------------------

TEST(ArrayWorkload, ReadOnlyScanLeavesArrayUntouched) {
  stm::Stm stm{cfg(2, 2)};
  ArrayConfig acfg;
  acfg.array_size = 128;
  acfg.update_fraction = 0.0;
  ArrayBenchmark bench{stm, acfg};
  util::Rng rng{1};
  bench.run_many(20, rng);
  EXPECT_EQ(bench.checksum(), 0);
  EXPECT_EQ(bench.committed_updates(), 0);
}

TEST(ArrayWorkload, ChecksumMatchesUpdateCounter) {
  // Core invariant: every committed update added exactly 1 to one element
  // and 1 to the counter, even across aborts/retries.
  stm::Stm stm{cfg(3, 2)};
  ArrayConfig acfg;
  acfg.array_size = 64;
  acfg.update_fraction = 0.5;
  ArrayBenchmark bench{stm, acfg};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&bench, t] {
      util::Rng rng{static_cast<std::uint64_t>(10 + t)};
      bench.run_many(15, rng);
    });
  }
  threads.clear();
  EXPECT_EQ(bench.checksum(), bench.committed_updates());
  EXPECT_GT(bench.committed_updates(), 0);
  EXPECT_EQ(stm.stats().top_commits, 45u);
}

/// Forces real top-level conflicts between the workload's own transactions
/// instead of hoping racing threads overlap (on a loaded machine they may run
/// one after another). Holds the commit mutex while `threads` threads each
/// run `per_thread(thread)`, and opens it once each thread's first
/// transaction has run its body and waits to commit — counted at the
/// stm.commit.validate failpoint, armed as a zero delay so it only counts.
/// Every one of those bodies took its snapshot before any of them committed,
/// so each committer after the first fails validation on the rows an earlier
/// one wrote. Returns false if the transactions did not all arrive within
/// 30 s; the mutex is released either way.
bool force_top_level_conflicts(stm::Stm& stm, int threads,
                               const std::function<void(int)>& per_thread) {
  auto& failpoints = util::FailpointRegistry::instance();
  const std::string site = "stm.commit.validate";
  failpoints.arm(site, util::FailpointSpec{util::FailpointMode::kDelay});
  const std::uint64_t before = failpoints.fire_count(site);
  const auto all_arrived = [&] {
    return failpoints.fire_count(site) - before >= static_cast<std::uint64_t>(threads);
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{30};
  bool arrived = false;
  std::vector<std::jthread> workers;
  {
    const auto held = stm.commit_manager().lock_exclusive();
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&per_thread, t] { per_thread(t); });
    }
    while (!all_arrived() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    arrived = all_arrived();
  }
  workers.clear();
  failpoints.disarm(site);
  return arrived;
}

TEST(ArrayWorkload, HighUpdateFractionCausesTopLevelConflicts) {
  if (!util::FailpointRegistry::compiled_in()) GTEST_SKIP();
  stm::Stm stm{cfg(4, 1)};
  ArrayConfig acfg;
  acfg.array_size = 32;
  acfg.update_fraction = 0.9;
  ArrayBenchmark bench{stm, acfg};
  EXPECT_TRUE(force_top_level_conflicts(stm, 4, [&](int t) {
    util::Rng rng{static_cast<std::uint64_t>(20 + t)};
    bench.run_many(50, rng);
  }));
  EXPECT_EQ(bench.checksum(), bench.committed_updates());
  EXPECT_GT(stm.stats().top_aborts, 0u);  // full-array scans must collide
}

TEST(ArrayWorkload, SegmentationCoversWholeArrayForAnyChildLimit) {
  for (std::size_t c : {1u, 2u, 3u, 5u, 8u}) {
    stm::Stm stm{cfg(1, c)};
    ArrayConfig acfg;
    acfg.array_size = 37;  // not divisible by typical c
    acfg.update_fraction = 1.0;
    ArrayBenchmark bench{stm, acfg};
    util::Rng rng{static_cast<std::uint64_t>(c)};
    bench.run_one(rng);
    // Every element updated exactly once.
    EXPECT_EQ(bench.checksum(), 37) << "c=" << c;
  }
}

// ---- Vacation ---------------------------------------------------------

TEST(VacationWorkload, ReservationsAreConserved) {
  stm::Stm stm{cfg(3, 2)};
  VacationConfig vcfg;
  vcfg.relations = 16;
  vcfg.customers = 16;
  VacationBenchmark bench{stm, vcfg};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&bench, t] {
      util::Rng rng{static_cast<std::uint64_t>(30 + t)};
      bench.run_many(40, rng);
    });
  }
  threads.clear();
  EXPECT_TRUE(bench.verify_consistency());
}

TEST(VacationWorkload, MakeThenDeleteRestoresCapacity) {
  stm::Stm stm{cfg(1, 2)};
  VacationConfig vcfg;
  vcfg.relations = 8;
  vcfg.customers = 4;
  VacationBenchmark bench{stm, vcfg};
  util::Rng rng{7};
  const int reserved = bench.make_reservation(0, rng);
  EXPECT_GT(reserved, 0);
  EXPECT_GT(bench.query_customer_total(0), 0);
  bench.delete_customer_reservations(0);
  EXPECT_EQ(bench.query_customer_total(0), 0);
  EXPECT_TRUE(bench.verify_consistency());
}

TEST(VacationWorkload, CapacityNeverExceeded) {
  // Tiny table with tiny capacity: concurrent reservations must never
  // oversell (used <= capacity is part of verify_consistency).
  stm::Stm stm{cfg(4, 2)};
  VacationConfig vcfg;
  vcfg.relations = 2;
  vcfg.customers = 8;
  vcfg.initial_capacity = 3;
  vcfg.make_fraction = 1.0;
  vcfg.delete_fraction = 0.0;
  vcfg.update_fraction = 0.0;
  VacationBenchmark bench{stm, vcfg};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&bench, t] {
      util::Rng rng{static_cast<std::uint64_t>(40 + t)};
      bench.run_many(20, rng);
    });
  }
  threads.clear();
  EXPECT_TRUE(bench.verify_consistency());
}

TEST(VacationWorkload, ManagerUpdatesKeepConsistency) {
  stm::Stm stm{cfg(2, 2)};
  VacationConfig vcfg;
  vcfg.relations = 8;
  vcfg.customers = 8;
  vcfg.make_fraction = 0.5;
  vcfg.delete_fraction = 0.2;
  vcfg.update_fraction = 0.3;
  VacationBenchmark bench{stm, vcfg};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&bench, t] {
      util::Rng rng{static_cast<std::uint64_t>(50 + t)};
      bench.run_many(60, rng);
    });
  }
  threads.clear();
  EXPECT_TRUE(bench.verify_consistency());
}

// ---- TPC-C ------------------------------------------------------------

TEST(TpccWorkload, NewOrderUpdatesStockAndOrders) {
  stm::Stm stm{cfg(1, 2)};
  TpccConfig tcfg;
  tcfg.warehouses = 1;
  tcfg.items = 50;
  TpccBenchmark bench{stm, tcfg};
  util::Rng rng{8};
  const long long total = bench.new_order(0, 0, 0, rng);
  EXPECT_GT(total, 0);
  EXPECT_EQ(bench.new_orders_committed(), 1);
  EXPECT_TRUE(bench.verify_consistency());
}

TEST(TpccWorkload, PaymentFlowsToWarehouseDistrictCustomer) {
  stm::Stm stm{cfg(1, 1)};
  TpccConfig tcfg;
  tcfg.warehouses = 1;
  tcfg.items = 10;
  TpccBenchmark bench{stm, tcfg};
  bench.payment(0, 0, 0, 500);
  bench.payment(0, 1, 0, 300);
  EXPECT_TRUE(bench.verify_consistency());
}

TEST(TpccWorkload, OrderStatusFindsLatestOrder) {
  stm::Stm stm{cfg(1, 2)};
  TpccConfig tcfg;
  tcfg.warehouses = 1;
  tcfg.items = 50;
  TpccBenchmark bench{stm, tcfg};
  util::Rng rng{9};
  const long long total = bench.new_order(0, 0, 3, rng);
  EXPECT_EQ(bench.order_status(0, 0, 3), total);
  EXPECT_EQ(bench.order_status(0, 0, 4), 0);  // no order for this customer
}

TEST(TpccWorkload, DeliveryCreditsCustomerAndAdvancesWatermark) {
  stm::Stm stm{cfg(1, 4)};
  TpccConfig tcfg;
  tcfg.warehouses = 1;
  tcfg.districts_per_warehouse = 3;
  tcfg.items = 30;
  TpccBenchmark bench{stm, tcfg};
  util::Rng rng{17};
  // One order in each of two districts.
  const long long total0 = bench.new_order(0, 0, 2, rng);
  const long long total1 = bench.new_order(0, 1, 3, rng);
  // Delivery sweeps all districts in parallel children.
  EXPECT_EQ(bench.delivery(0), 2);
  EXPECT_TRUE(bench.verify_consistency());
  // A second delivery has nothing left.
  EXPECT_EQ(bench.delivery(0), 0);
  EXPECT_GT(total0 + total1, 0);
}

TEST(TpccWorkload, DeliveryMoneyConservation) {
  // Balances = delivered totals - payments (checked by verify_consistency).
  stm::Stm stm{cfg(1, 2)};
  TpccConfig tcfg;
  tcfg.warehouses = 1;
  tcfg.districts_per_warehouse = 2;
  tcfg.items = 20;
  TpccBenchmark bench{stm, tcfg};
  util::Rng rng{18};
  (void)bench.new_order(0, 0, 1, rng);
  bench.payment(0, 0, 1, 250);
  EXPECT_TRUE(bench.verify_consistency());
  (void)bench.delivery(0);
  EXPECT_TRUE(bench.verify_consistency());
}

TEST(TpccWorkload, StockLevelCountsLowStock) {
  stm::Stm stm{cfg(1, 2)};
  TpccConfig tcfg;
  tcfg.warehouses = 1;
  tcfg.districts_per_warehouse = 1;
  tcfg.items = 10;
  TpccBenchmark bench{stm, tcfg};
  util::Rng rng{19};
  // No orders yet: nothing to count.
  EXPECT_EQ(bench.stock_level(0, 0, /*threshold=*/2000), 0);
  (void)bench.new_order(0, 0, 0, rng);
  // Threshold above the initial quantity: every ordered item counts.
  const int high = bench.stock_level(0, 0, /*threshold=*/2000);
  EXPECT_GT(high, 0);
  // Threshold of 0: no stock row can be below it.
  EXPECT_EQ(bench.stock_level(0, 0, /*threshold=*/0), 0);
}

TEST(TpccWorkload, ReadOnlyProfilesMatchAReferenceScan) {
  // Order-Status and Stock-Level run as read-only transactions; on a
  // quiescent benchmark they must agree with a scan of the committed state
  // for every (warehouse, district). Few items and a high remote fraction
  // make Stock-Level meet repeated items and remote stock rows.
  stm::Stm stm{cfg(2, 2)};
  TpccConfig tcfg;
  tcfg.warehouses = 2;
  tcfg.districts_per_warehouse = 4;
  tcfg.customers_per_district = 8;
  tcfg.items = 60;
  tcfg.remote_item_fraction = 0.3;
  TpccBenchmark bench{stm, tcfg};
  util::Rng rng{tcfg.seed};
  bench.run_many(800, rng);
  int low_total = 0;
  for (int w = 0; w < 2; ++w) {
    for (int d = 0; d < 4; ++d) {
      for (int c = 0; c < 8; ++c) {
        EXPECT_EQ(bench.order_status(w, d, c),
                  TpccReference::order_status(bench, w, d, c))
            << "w=" << w << " d=" << d << " c=" << c;
      }
      for (const int threshold : {0, 900, 950, 980, 1000, 2000}) {
        const int low = bench.stock_level(w, d, threshold);
        EXPECT_EQ(low, TpccReference::stock_level(bench, w, d, threshold))
            << "w=" << w << " d=" << d << " threshold=" << threshold;
        low_total += low;
      }
    }
  }
  EXPECT_GT(low_total, 0);
  EXPECT_TRUE(bench.verify_consistency());
}

TEST(TpccWorkload, FullMixWithDeliveriesStaysConsistent) {
  stm::Stm stm{cfg(3, 3)};
  TpccConfig tcfg;
  tcfg.warehouses = 2;
  tcfg.districts_per_warehouse = 3;
  tcfg.items = 30;
  tcfg.customers_per_district = 4;
  tcfg.new_order_fraction = 0.4;
  tcfg.payment_fraction = 0.3;
  tcfg.order_status_fraction = 0.1;
  tcfg.delivery_fraction = 0.15;
  TpccBenchmark bench{stm, tcfg};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&bench, t] {
      util::Rng rng{static_cast<std::uint64_t>(80 + t)};
      bench.run_many(40, rng);
    });
  }
  threads.clear();
  EXPECT_TRUE(bench.verify_consistency());
}

TEST(TpccWorkload, ConcurrentMixedLoadStaysConsistent) {
  stm::Stm stm{cfg(4, 2)};
  TpccConfig tcfg;
  tcfg.warehouses = 2;
  tcfg.items = 40;
  tcfg.customers_per_district = 5;
  tcfg.districts_per_warehouse = 3;
  TpccBenchmark bench{stm, tcfg};
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&bench, t] {
      util::Rng rng{static_cast<std::uint64_t>(60 + t)};
      bench.run_many(30, rng);
    });
  }
  threads.clear();
  EXPECT_TRUE(bench.verify_consistency());
  EXPECT_GT(bench.new_orders_committed(), 0);
}

TEST(TpccWorkload, SingleWarehouseIsHighContention) {
  // One warehouse, one district: every new-order serializes on the district
  // row; concurrent execution must produce aborts yet keep order ids dense.
  if (!util::FailpointRegistry::compiled_in()) GTEST_SKIP();
  stm::Stm stm{cfg(4, 2)};
  TpccConfig tcfg;
  tcfg.warehouses = 1;
  tcfg.districts_per_warehouse = 1;
  tcfg.items = 30;
  tcfg.new_order_fraction = 1.0;
  tcfg.payment_fraction = 0.0;
  TpccBenchmark bench{stm, tcfg};
  EXPECT_TRUE(force_top_level_conflicts(stm, 4, [&](int t) {
    util::Rng rng{static_cast<std::uint64_t>(70 + t)};
    for (int i = 0; i < 25; ++i) (void)bench.new_order(0, 0, 0, rng);
  }));
  EXPECT_EQ(bench.new_orders_committed(), 100);
  EXPECT_TRUE(bench.verify_consistency());
  EXPECT_GT(stm.stats().top_aborts, 0u);
}

TEST(TpccWorkload, OrderIdsPastSixteenBitsStayInTheirDistrict) {
  // Order ids have no width limit per district: order 65,536 of district 0
  // belongs to district 0, not to district 1 as order 0.
  stm::Stm stm{cfg(1, 1)};
  TpccConfig tcfg;
  tcfg.warehouses = 1;
  tcfg.districts_per_warehouse = 2;
  tcfg.items = 50;
  TpccBenchmark bench{stm, tcfg};
  util::Rng rng{23};
  constexpr int kOrders = 65'600;
  for (int i = 0; i < kOrders; ++i) {
    (void)bench.new_order(0, 0, i % static_cast<int>(tcfg.customers_per_district), rng);
  }
  EXPECT_EQ(bench.new_orders_committed(), kOrders);
  EXPECT_TRUE(bench.verify_consistency());
  // District 1 still has zero orders: none to report, count or deliver.
  for (int c = 0; c < static_cast<int>(tcfg.customers_per_district); ++c) {
    EXPECT_EQ(bench.order_status(0, 1, c), 0);
  }
  EXPECT_EQ(bench.stock_level(0, 1, /*threshold=*/2000), 0);
  EXPECT_EQ(bench.delivery(0), 1);
  EXPECT_TRUE(bench.verify_consistency());
}

// Property sweep: invariants hold across (t, c) settings for all three
// workloads under the same concurrent drive.
struct TcParam {
  std::size_t t;
  std::size_t c;
};
class WorkloadInvariantSweep : public ::testing::TestWithParam<TcParam> {};

TEST_P(WorkloadInvariantSweep, AllBenchmarksStayConsistent) {
  const auto [top, children] = GetParam();
  stm::Stm stm{cfg(top, children)};

  ArrayConfig acfg;
  acfg.array_size = 48;
  acfg.update_fraction = 0.3;
  ArrayBenchmark array{stm, acfg};

  VacationConfig vcfg;
  vcfg.relations = 8;
  vcfg.customers = 8;
  VacationBenchmark vacation{stm, vcfg};

  TpccConfig tcfg;
  tcfg.warehouses = 1;
  tcfg.districts_per_warehouse = 2;
  tcfg.items = 20;
  tcfg.customers_per_district = 4;
  TpccBenchmark tpcc{stm, tcfg};

  std::vector<std::jthread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng{static_cast<std::uint64_t>(100 + t)};
      for (int i = 0; i < 8; ++i) {
        array.run_one(rng);
        vacation.run_one(rng);
        tpcc.run_one(rng);
      }
    });
  }
  threads.clear();
  EXPECT_EQ(array.checksum(), array.committed_updates());
  EXPECT_TRUE(vacation.verify_consistency());
  EXPECT_TRUE(tpcc.verify_consistency());
}

INSTANTIATE_TEST_SUITE_P(TcGrid, WorkloadInvariantSweep,
                         ::testing::Values(TcParam{1, 1}, TcParam{1, 4},
                                           TcParam{2, 2}, TcParam{4, 1},
                                           TcParam{4, 2}, TcParam{8, 1}));

}  // namespace
}  // namespace autopn::workloads
