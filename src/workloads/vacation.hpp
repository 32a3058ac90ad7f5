#pragma once
// Port of STAMP's Vacation benchmark (paper §VII-A) to the PN-STM: a travel
// reservation system with three resource tables (cars, flights, rooms) and a
// customer table. Client transactions make multi-item reservations, cancel
// customers, and the manager updates resource capacity. The PN adaptation
// (as in the JVSTM port) parallelizes the per-item work of a reservation
// across nested child transactions.
//
// Contention is controlled by the relation size: fewer distinct resources
// make concurrent reservations collide more often.

#include <cstdint>
#include <optional>
#include <vector>

#include "stm/containers.hpp"
#include "stm/stm.hpp"
#include "util/rng.hpp"

namespace autopn::workloads {

enum class ResourceKind : int { kCar = 0, kFlight = 1, kRoom = 2 };

struct VacationConfig {
  std::size_t relations = 64;       ///< resources per table (smaller = hotter)
  std::size_t customers = 64;
  int initial_capacity = 100;
  std::size_t items_per_reservation = 4;  ///< nested fan-out of a reservation
  /// Operation mix (fractions of make/delete/update; must sum to <= 1, the
  /// remainder are read-only queries).
  double make_fraction = 0.8;
  double delete_fraction = 0.1;
  double update_fraction = 0.1;
  std::uint64_t seed = 2;
};

/// One resource row.
struct Resource {
  int capacity = 0;
  int used = 0;
  int price = 0;
};

/// A customer's reservation of one resource.
struct ReservationItem {
  ResourceKind kind = ResourceKind::kCar;
  int resource_id = 0;
  int price = 0;

  friend bool operator==(const ReservationItem&, const ReservationItem&) = default;
};

class VacationBenchmark {
 public:
  VacationBenchmark(stm::Stm& stm, VacationConfig config);

  /// Executes one client transaction according to the configured mix.
  void run_one(util::Rng& rng);
  void run_many(std::size_t count, util::Rng& rng);

  // Individual operations (also used directly by tests/examples).

  /// Reserves `items_per_reservation` random resources for a customer; the
  /// per-item reservation work runs in parallel child transactions. Returns
  /// the number of items successfully reserved (capacity permitting).
  int make_reservation(int customer_id, util::Rng& rng);

  /// Releases all of a customer's reservations.
  void delete_customer_reservations(int customer_id);

  /// Manager operation: add or remove capacity on a random resource.
  void update_tables(util::Rng& rng);

  /// Read-only query: total price of a customer's reservations.
  [[nodiscard]] int query_customer_total(int customer_id);

  // ---- verification -------------------------------------------------------

  /// Checks conservation: for every resource, used == total reservations
  /// held by customers, and 0 <= used <= capacity. Runs transactionally.
  [[nodiscard]] bool verify_consistency();

  [[nodiscard]] const VacationConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] const stm::TMap<int, Resource>& table(ResourceKind kind) const;

  stm::Stm* stm_;
  VacationConfig config_;
  stm::TMap<int, Resource> cars_;
  stm::TMap<int, Resource> flights_;
  stm::TMap<int, Resource> rooms_;
  stm::TMap<int, std::vector<ReservationItem>> customers_;
};

}  // namespace autopn::workloads
