#pragma once
// A TPC-C port for the PN-STM (paper §VII-A), modeled after the PN-TM
// adaptations used with JVSTM: the order-entry schema reduced to the
// transaction profiles that exercise transactional memory — New-Order
// (with per-order-line stock updates parallelized across nested children),
// Payment, and Order-Status — over warehouse/district/customer/stock/order
// relations. Contention is controlled by the warehouse count (TPC-C
// semantics: most traffic stays within one warehouse, so fewer warehouses
// means hotter districts and stock rows).
//
// Orders, the one relation that grows for as long as the benchmark runs, sit
// in one append-only log per district, one box per order, indexed by order
// id, so no transaction's cost grows with the number of orders: New-Order,
// Delivery and Stock-Level touch a fixed number of order boxes, and
// Order-Status scans back only to the customer's latest order.

#include <cstdint>
#include <vector>

#include "stm/containers.hpp"
#include "stm/stm.hpp"
#include "util/rng.hpp"

namespace autopn::workloads {

struct TpccConfig {
  std::size_t warehouses = 4;
  std::size_t districts_per_warehouse = 10;
  std::size_t customers_per_district = 30;
  std::size_t items = 1000;  ///< catalogue size (stock rows per warehouse)
  std::size_t min_order_lines = 5;
  std::size_t max_order_lines = 15;
  /// Probability that an order line hits a remote warehouse (TPC-C: 1%).
  double remote_item_fraction = 0.01;
  /// Operation mix (TPC-C-style); the remainder after the four write-heavy
  /// profiles is Stock-Level (read-only).
  double new_order_fraction = 0.45;
  double payment_fraction = 0.43;
  double order_status_fraction = 0.04;
  double delivery_fraction = 0.04;
  std::uint64_t seed = 3;
};

struct WarehouseRow {
  long long ytd = 0;
};
struct DistrictRow {
  int next_order_id = 1;
  int next_delivery_id = 1;  ///< orders with id below this are delivered
  long long ytd = 0;
};
struct CustomerRow {
  long long balance = 0;
  int payment_count = 0;
  int delivery_count = 0;
};
struct StockRow {
  int quantity = 0;
  long long ytd = 0;  ///< units sold
};
struct OrderLine {
  int item_id = 0;
  int supply_warehouse = 0;
  int quantity = 0;
  long long amount = 0;
};
struct OrderRow {
  int customer_id = 0;
  bool delivered = false;
  std::vector<OrderLine> lines;
};

class TpccBenchmark {
 public:
  TpccBenchmark(stm::Stm& stm, TpccConfig config);

  /// Executes one transaction from the configured mix.
  void run_one(util::Rng& rng);
  void run_many(std::size_t count, util::Rng& rng);

  /// New-Order: allocate an order id from the district, then process each
  /// order line (stock read-modify-write + amount computation) in parallel
  /// child transactions, and insert the order. Returns the order's total.
  long long new_order(int warehouse, int district, int customer, util::Rng& rng);

  /// Payment: update warehouse/district YTD and the customer's balance.
  void payment(int warehouse, int district, int customer, long long amount);

  /// Order-Status (read-only): total amount of a customer's latest order.
  [[nodiscard]] long long order_status(int warehouse, int district, int customer);

  /// Delivery: delivers the oldest undelivered order of *every* district of
  /// a warehouse — the per-district work (find order, credit the customer,
  /// mark delivered) runs in parallel child transactions, one per district.
  /// Returns the number of orders delivered.
  int delivery(int warehouse);

  /// Stock-Level (read-only): number of distinct items among the district's
  /// most recent `recent_orders` orders whose stock is below `threshold`.
  [[nodiscard]] int stock_level(int warehouse, int district, int threshold,
                                int recent_orders = 20);

  // ---- verification -------------------------------------------------------

  /// Consistency checks over the committed state:
  ///  * each district's orders have exactly the ids 1 .. next_order_id - 1;
  ///  * every stock row's ytd equals the units ordered from it across all
  ///    order lines, and no quantity is negative;
  ///  * warehouse ytd equals the sum of its districts' ytd;
  ///  * an order is delivered iff its id is below the district's delivery
  ///    watermark, and the customers' balances sum to the delivered order
  ///    totals minus all payments.
  [[nodiscard]] bool verify_consistency();

  [[nodiscard]] const TpccConfig& config() const noexcept { return config_; }

  /// Committed new-order transactions (for throughput accounting).
  [[nodiscard]] long long new_orders_committed() const {
    return new_orders_.peek();
  }

 private:
  /// Reference scans over peek() in the workload tests.
  friend struct TpccReference;

  // Flat integer keys for the composite relations.
  [[nodiscard]] int district_key(int warehouse, int district) const;
  [[nodiscard]] int customer_key(int warehouse, int district, int customer) const;
  [[nodiscard]] int stock_key(int warehouse, int item) const;
  [[nodiscard]] const stm::TLog<OrderRow>& orders(int warehouse, int district) const;

  stm::Stm* stm_;
  TpccConfig config_;
  stm::TMap<int, WarehouseRow> warehouses_;
  stm::TMap<int, DistrictRow> districts_;
  stm::TMap<int, CustomerRow> customers_;
  stm::TMap<int, StockRow> stock_;
  std::vector<stm::TLog<OrderRow>> orders_;  ///< one log per district_key
  stm::VBox<long long> new_orders_;
  stm::VBox<long long> total_payments_;  ///< sum of all payment amounts
  int initial_stock_quantity_ = 1000;
};

}  // namespace autopn::workloads
