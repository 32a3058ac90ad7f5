#include "workloads/vacation.hpp"

namespace autopn::workloads {

namespace {
constexpr int kKinds = 3;

std::size_t buckets_for(std::size_t entries) {
  // ~2 entries per bucket keeps bucket conflicts representative without
  // making every access collide.
  return std::max<std::size_t>(8, entries / 2);
}
}  // namespace

VacationBenchmark::VacationBenchmark(stm::Stm& stm, VacationConfig config)
    : stm_(&stm),
      config_(config),
      cars_(buckets_for(config.relations), "cars"),
      flights_(buckets_for(config.relations), "flights"),
      rooms_(buckets_for(config.relations), "rooms"),
      customers_(buckets_for(config.customers), "customers") {
  util::Rng rng{config.seed};
  stm_->run_top([&](stm::Tx& tx) {
    for (std::size_t id = 0; id < config_.relations; ++id) {
      const Resource row{config_.initial_capacity, 0,
                         50 + static_cast<int>(rng.uniform_index(100))};
      cars_.put(tx, static_cast<int>(id), row);
      flights_.put(tx, static_cast<int>(id),
                   Resource{config_.initial_capacity, 0,
                            100 + static_cast<int>(rng.uniform_index(400))});
      rooms_.put(tx, static_cast<int>(id),
                 Resource{config_.initial_capacity, 0,
                          30 + static_cast<int>(rng.uniform_index(70))});
    }
    for (std::size_t id = 0; id < config_.customers; ++id) {
      customers_.put(tx, static_cast<int>(id), {});
    }
  });
}

const stm::TMap<int, Resource>& VacationBenchmark::table(ResourceKind kind) const {
  switch (kind) {
    case ResourceKind::kCar: return cars_;
    case ResourceKind::kFlight: return flights_;
    case ResourceKind::kRoom: return rooms_;
  }
  return cars_;
}

int VacationBenchmark::make_reservation(int customer_id, util::Rng& rng) {
  const std::uint64_t tx_seed = rng();
  int reserved_total = 0;
  stm_->run_top([&](stm::Tx& tx) {
    const std::size_t items = config_.items_per_reservation;
    std::vector<ReservationItem> picked(items);
    std::vector<int> success(items, 0);

    // Phase 1 (parallel children): reserve each item on its resource table.
    tx.run_children(items, [&](stm::Tx& child, std::size_t i) {
      util::Rng item_rng{tx_seed ^ (0xda942042e4dd58b5ULL * (i + 1))};
      const auto kind = static_cast<ResourceKind>(item_rng.uniform_index(kKinds));
      const int resource_id =
          static_cast<int>(item_rng.uniform_index(config_.relations));
      const auto& tbl = table(kind);
      auto row = tbl.get(child, resource_id);
      if (!row.has_value() || row->used >= row->capacity) {
        success[i] = 0;
        return;
      }
      Resource updated = *row;
      updated.used += 1;
      tbl.put(child, resource_id, updated);
      picked[i] = ReservationItem{kind, resource_id, updated.price};
      success[i] = 1;
    });

    // Phase 2 (parent): attach the successfully reserved items to the
    // customer record.
    reserved_total = 0;
    auto record = customers_.get(tx, customer_id).value_or(std::vector<ReservationItem>{});
    for (std::size_t i = 0; i < items; ++i) {
      if (success[i] != 0) {
        record.push_back(picked[i]);
        ++reserved_total;
      }
    }
    customers_.put(tx, customer_id, std::move(record));
  });
  return reserved_total;
}

void VacationBenchmark::delete_customer_reservations(int customer_id) {
  stm_->run_top([&](stm::Tx& tx) {
    auto record = customers_.get(tx, customer_id);
    if (!record.has_value() || record->empty()) return;
    for (const ReservationItem& item : *record) {
      const auto& tbl = table(item.kind);
      auto row = tbl.get(tx, item.resource_id);
      if (row.has_value()) {
        Resource updated = *row;
        updated.used -= 1;
        tbl.put(tx, item.resource_id, updated);
      }
    }
    customers_.put(tx, customer_id, {});
  });
}

void VacationBenchmark::update_tables(util::Rng& rng) {
  const std::uint64_t tx_seed = rng();
  stm_->run_top([&](stm::Tx& tx) {
    util::Rng op_rng{tx_seed};
    const auto kind = static_cast<ResourceKind>(op_rng.uniform_index(kKinds));
    const int resource_id = static_cast<int>(op_rng.uniform_index(config_.relations));
    const int delta = op_rng.bernoulli(0.5) ? 10 : -10;
    const auto& tbl = table(kind);
    auto row = tbl.get(tx, resource_id);
    if (!row.has_value()) return;
    Resource updated = *row;
    // Capacity never drops below what is currently reserved.
    updated.capacity = std::max(updated.used, updated.capacity + delta);
    tbl.put(tx, resource_id, updated);
  });
}

int VacationBenchmark::query_customer_total(int customer_id) {
  return stm_->read_only<int>([&](stm::Tx& tx) {
    auto record = customers_.get(tx, customer_id);
    int total = 0;
    if (record.has_value()) {
      for (const ReservationItem& item : *record) total += item.price;
    }
    return total;
  });
}

void VacationBenchmark::run_one(util::Rng& rng) {
  const double op = rng.uniform();
  const int customer = static_cast<int>(rng.uniform_index(config_.customers));
  if (op < config_.make_fraction) {
    (void)make_reservation(customer, rng);
  } else if (op < config_.make_fraction + config_.delete_fraction) {
    delete_customer_reservations(customer);
  } else if (op <
             config_.make_fraction + config_.delete_fraction + config_.update_fraction) {
    update_tables(rng);
  } else {
    (void)query_customer_total(customer);
  }
}

void VacationBenchmark::run_many(std::size_t count, util::Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) run_one(rng);
}

bool VacationBenchmark::verify_consistency() {
  return stm_->read_only<bool>([&](stm::Tx& tx) {
    // Tally reservations held by customers per (kind, resource).
    std::vector<std::vector<int>> held(
        kKinds, std::vector<int>(config_.relations, 0));
    bool ok = true;
    customers_.for_each(tx, [&](const int&, const std::vector<ReservationItem>& items) {
      for (const ReservationItem& item : items) {
        held[static_cast<int>(item.kind)][static_cast<std::size_t>(item.resource_id)]++;
      }
    });
    for (int kind = 0; kind < kKinds; ++kind) {
      const auto& tbl = table(static_cast<ResourceKind>(kind));
      for (std::size_t id = 0; id < config_.relations; ++id) {
        const auto row = tbl.get(tx, static_cast<int>(id));
        if (!row.has_value()) {
          ok = false;
          continue;
        }
        if (row->used != held[kind][id] || row->used < 0 ||
            row->used > row->capacity) {
          ok = false;
        }
      }
    }
    return ok;
  });
}

}  // namespace autopn::workloads
