#include "workloads/tpcc.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace autopn::workloads {

namespace {
std::size_t buckets_for(std::size_t entries) {
  return std::max<std::size_t>(16, entries / 2);
}
}  // namespace

TpccBenchmark::TpccBenchmark(stm::Stm& stm, TpccConfig config)
    : stm_(&stm),
      config_(config),
      warehouses_(buckets_for(config.warehouses), "warehouse"),
      districts_(buckets_for(config.warehouses * config.districts_per_warehouse),
                 "district"),
      customers_(buckets_for(config.warehouses * config.districts_per_warehouse *
                             config.customers_per_district),
                 "customer"),
      stock_(buckets_for(config.warehouses * config.items), "stock"),
      orders_(config.warehouses * config.districts_per_warehouse),
      new_orders_(0LL),
      total_payments_(0LL) {
  new_orders_.set_label("new_orders_counter");
  total_payments_.set_label("total_payments_counter");
  stm_->run_top([&](stm::Tx& tx) {
    for (std::size_t w = 0; w < config_.warehouses; ++w) {
      warehouses_.put(tx, static_cast<int>(w), WarehouseRow{});
      for (std::size_t d = 0; d < config_.districts_per_warehouse; ++d) {
        districts_.put(tx, district_key(static_cast<int>(w), static_cast<int>(d)),
                       DistrictRow{});
        for (std::size_t c = 0; c < config_.customers_per_district; ++c) {
          customers_.put(tx,
                         customer_key(static_cast<int>(w), static_cast<int>(d),
                                      static_cast<int>(c)),
                         CustomerRow{});
        }
      }
      for (std::size_t i = 0; i < config_.items; ++i) {
        stock_.put(tx, stock_key(static_cast<int>(w), static_cast<int>(i)),
                   StockRow{initial_stock_quantity_, 0});
      }
    }
  });
}

int TpccBenchmark::district_key(int warehouse, int district) const {
  return warehouse * static_cast<int>(config_.districts_per_warehouse) + district;
}

int TpccBenchmark::customer_key(int warehouse, int district, int customer) const {
  return district_key(warehouse, district) *
             static_cast<int>(config_.customers_per_district) +
         customer;
}

int TpccBenchmark::stock_key(int warehouse, int item) const {
  return warehouse * static_cast<int>(config_.items) + item;
}

const stm::TLog<OrderRow>& TpccBenchmark::orders(int warehouse, int district) const {
  return orders_[static_cast<std::size_t>(district_key(warehouse, district))];
}

long long TpccBenchmark::new_order(int warehouse, int district, int customer,
                                   util::Rng& rng) {
  const std::uint64_t tx_seed = rng();
  long long order_total = 0;
  stm_->run_top([&](stm::Tx& tx) {
    util::Rng order_rng{tx_seed};
    const std::size_t line_count =
        config_.min_order_lines +
        order_rng.uniform_index(config_.max_order_lines - config_.min_order_lines + 1);

    // Allocate the order id from the district row (the classic TPC-C
    // district hotspot).
    const int dkey = district_key(warehouse, district);
    DistrictRow drow = districts_.get(tx, dkey).value();
    const int order_id = drow.next_order_id;
    drow.next_order_id += 1;
    districts_.put(tx, dkey, drow);

    // Draw the order lines up front so every attempt of every child works on
    // a stable picture.
    struct LinePick {
      int item;
      int supply_warehouse;
      int quantity;
    };
    std::vector<LinePick> picks(line_count);
    for (std::size_t l = 0; l < line_count; ++l) {
      picks[l].item = static_cast<int>(order_rng.uniform_index(config_.items));
      picks[l].supply_warehouse =
          order_rng.bernoulli(config_.remote_item_fraction) && config_.warehouses > 1
              ? static_cast<int>(order_rng.uniform_index(config_.warehouses))
              : warehouse;
      picks[l].quantity = 1 + static_cast<int>(order_rng.uniform_index(10));
    }

    // Process order lines in parallel child transactions: each line updates
    // its stock row and computes its amount.
    std::vector<OrderLine> lines(line_count);
    tx.run_children(line_count, [&](stm::Tx& child, std::size_t l) {
      const LinePick& pick = picks[l];
      const int skey = stock_key(pick.supply_warehouse, pick.item);
      StockRow srow = stock_.get(child, skey).value();
      if (srow.quantity >= pick.quantity + 10) {
        srow.quantity -= pick.quantity;
      } else {
        srow.quantity = srow.quantity - pick.quantity + 91;  // TPC-C restock
      }
      srow.ytd += pick.quantity;
      stock_.put(child, skey, srow);
      lines[l] = OrderLine{pick.item, pick.supply_warehouse, pick.quantity,
                           static_cast<long long>(pick.quantity) *
                               (1 + pick.item % 100)};
    });

    order_total = 0;
    for (const OrderLine& line : lines) order_total += line.amount;
    orders(warehouse, district)
        .write(tx, order_id, OrderRow{customer, false, std::move(lines)});
    new_orders_.write(tx, new_orders_.read(tx) + 1);
  });
  return order_total;
}

void TpccBenchmark::payment(int warehouse, int district, int customer,
                            long long amount) {
  stm_->run_top([&](stm::Tx& tx) {
    WarehouseRow wrow = warehouses_.get(tx, warehouse).value();
    wrow.ytd += amount;
    warehouses_.put(tx, warehouse, wrow);

    const int dkey = district_key(warehouse, district);
    DistrictRow drow = districts_.get(tx, dkey).value();
    drow.ytd += amount;
    districts_.put(tx, dkey, drow);

    const int ckey = customer_key(warehouse, district, customer);
    CustomerRow crow = customers_.get(tx, ckey).value();
    crow.balance -= amount;
    crow.payment_count += 1;
    customers_.put(tx, ckey, crow);

    total_payments_.write(tx, total_payments_.read(tx) + amount);
  });
}

long long TpccBenchmark::order_status(int warehouse, int district, int customer) {
  return stm_->read_only<long long>([&](stm::Tx& tx) {
    const int dkey = district_key(warehouse, district);
    const DistrictRow drow = districts_.get(tx, dkey).value();
    const stm::TLog<OrderRow>& log = orders(warehouse, district);
    // Scan back for the customer's most recent order.
    for (int oid = drow.next_order_id - 1; oid >= 1; --oid) {
      const OrderRow order = log.read(tx, oid);
      if (order.customer_id == customer) {
        long long total = 0;
        for (const OrderLine& line : order.lines) total += line.amount;
        return total;
      }
    }
    return 0LL;
  });
}

int TpccBenchmark::delivery(int warehouse) {
  int delivered_total = 0;
  stm_->run_top([&](stm::Tx& tx) {
    const std::size_t districts = config_.districts_per_warehouse;
    std::vector<int> delivered(districts, 0);
    tx.run_children(districts, [&](stm::Tx& child, std::size_t d) {
      const int dkey = district_key(warehouse, static_cast<int>(d));
      DistrictRow drow = districts_.get(child, dkey).value();
      if (drow.next_delivery_id >= drow.next_order_id) {
        delivered[d] = 0;
        return;  // nothing undelivered in this district
      }
      const int oid = drow.next_delivery_id;
      const stm::TLog<OrderRow>& log = orders(warehouse, static_cast<int>(d));
      OrderRow order = log.read(child, oid);
      order.delivered = true;
      long long total = 0;
      for (const OrderLine& line : order.lines) total += line.amount;
      const int ckey = customer_key(warehouse, static_cast<int>(d), order.customer_id);
      log.write(child, oid, std::move(order));

      CustomerRow crow = customers_.get(child, ckey).value();
      crow.balance += total;
      crow.delivery_count += 1;
      customers_.put(child, ckey, crow);

      drow.next_delivery_id += 1;
      districts_.put(child, dkey, drow);
      delivered[d] = 1;
    });
    delivered_total = 0;
    for (int d : delivered) delivered_total += d;
  });
  return delivered_total;
}

int TpccBenchmark::stock_level(int warehouse, int district, int threshold,
                               int recent_orders) {
  return stm_->read_only<int>([&](stm::Tx& tx) {
    const int dkey = district_key(warehouse, district);
    const DistrictRow drow = districts_.get(tx, dkey).value();
    std::vector<char> seen(config_.items, 0);  // by item_id
    int low = 0;
    const int newest = drow.next_order_id - 1;
    const int oldest = std::max(1, newest - recent_orders + 1);
    const stm::TLog<OrderRow>& log = orders(warehouse, district);
    for (int oid = newest; oid >= oldest; --oid) {
      const OrderRow order = log.read(tx, oid);
      for (const OrderLine& line : order.lines) {
        char& item_seen = seen[static_cast<std::size_t>(line.item_id)];
        if (item_seen != 0) continue;
        item_seen = 1;
        const StockRow srow =
            stock_.get(tx, stock_key(line.supply_warehouse, line.item_id)).value();
        if (srow.quantity < threshold) ++low;
      }
    }
    return low;
  });
}

void TpccBenchmark::run_one(util::Rng& rng) {
  const int warehouse = static_cast<int>(rng.uniform_index(config_.warehouses));
  const int district =
      static_cast<int>(rng.uniform_index(config_.districts_per_warehouse));
  const int customer =
      static_cast<int>(rng.uniform_index(config_.customers_per_district));
  const double op = rng.uniform();
  double cut = config_.new_order_fraction;
  if (op < cut) {
    (void)new_order(warehouse, district, customer, rng);
    return;
  }
  cut += config_.payment_fraction;
  if (op < cut) {
    payment(warehouse, district, customer,
            1 + static_cast<long long>(rng.uniform_index(5000)));
    return;
  }
  cut += config_.order_status_fraction;
  if (op < cut) {
    (void)order_status(warehouse, district, customer);
    return;
  }
  cut += config_.delivery_fraction;
  if (op < cut) {
    (void)delivery(warehouse);
    return;
  }
  (void)stock_level(warehouse, district, /*threshold=*/900);
}

void TpccBenchmark::run_many(std::size_t count, util::Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) run_one(rng);
}

bool TpccBenchmark::verify_consistency() {
  return stm_->read_only<bool>([&](stm::Tx& tx) {
    bool ok = true;

    // Walk every district's orders by id. The ids are dense: each id below
    // the district's next_order_id holds an order and that id itself holds
    // none (an order nothing committed reads as an uninitialized box). Each
    // order is delivered iff its id is below the delivery watermark, and its
    // lines account for the stock sold.
    const auto order_at = [&tx](const stm::TLog<OrderRow>& log,
                                int oid) -> std::optional<OrderRow> {
      try {
        return log.read(tx, oid);
      } catch (const std::logic_error&) {
        return std::nullopt;
      }
    };
    std::vector<long long> stock_ordered(config_.warehouses * config_.items, 0);
    long long delivered_total = 0;
    for (std::size_t w = 0; w < config_.warehouses; ++w) {
      for (std::size_t d = 0; d < config_.districts_per_warehouse; ++d) {
        const int wi = static_cast<int>(w);
        const int di = static_cast<int>(d);
        const DistrictRow drow = districts_.get(tx, district_key(wi, di)).value();
        const stm::TLog<OrderRow>& log = orders(wi, di);
        if (order_at(log, drow.next_order_id).has_value()) ok = false;
        for (int oid = 1; oid < drow.next_order_id; ++oid) {
          const std::optional<OrderRow> order = order_at(log, oid);
          if (!order.has_value()) {
            ok = false;
            continue;
          }
          if (order->delivered != (oid < drow.next_delivery_id)) ok = false;
          for (const OrderLine& line : order->lines) {
            stock_ordered[static_cast<std::size_t>(
                stock_key(line.supply_warehouse, line.item_id))] += line.quantity;
            if (order->delivered) delivered_total += line.amount;
          }
        }
      }
    }
    // Remote order lines cross warehouses, so stock is checked once every
    // order has been counted.
    for (std::size_t skey = 0; skey < stock_ordered.size(); ++skey) {
      const StockRow srow = stock_.get(tx, static_cast<int>(skey)).value();
      if (srow.ytd != stock_ordered[skey]) ok = false;
      // quantity is restocked in units of 91, so track only ytd linkage
      // and non-negativity.
      if (srow.quantity < 0) ok = false;
    }

    // Warehouse YTD equals the sum of its districts' YTD.
    for (std::size_t w = 0; w < config_.warehouses; ++w) {
      long long district_sum = 0;
      for (std::size_t d = 0; d < config_.districts_per_warehouse; ++d) {
        district_sum +=
            districts_.get(tx, district_key(static_cast<int>(w), static_cast<int>(d)))
                .value()
                .ytd;
      }
      if (warehouses_.get(tx, static_cast<int>(w)).value().ytd != district_sum) {
        ok = false;
      }
    }

    // Money is conserved: the sum of all customer balances equals delivered
    // order totals minus payments.
    long long balance_total = 0;
    customers_.for_each(tx, [&](const int&, const CustomerRow& crow) {
      balance_total += crow.balance;
    });
    if (balance_total != delivered_total - total_payments_.read(tx)) ok = false;

    return ok;
  });
}

}  // namespace autopn::workloads
