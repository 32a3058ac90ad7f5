#include "workloads/array_bench.hpp"

#include <atomic>
#include <vector>

namespace autopn::workloads {

ArrayBenchmark::ArrayBenchmark(stm::Stm& stm, ArrayConfig config)
    : stm_(&stm),
      config_(config),
      data_(config.array_size, 0LL),
      update_counter_(0LL) {}

void ArrayBenchmark::run_one(util::Rng& rng) {
  // Children derive independent RNG streams so retries re-draw decisions
  // deterministically per attempt without sharing mutable state.
  const std::uint64_t tx_seed = rng();
  stm_->run_top([&](stm::Tx& tx) {
    const std::size_t segments = stm_->child_limit();
    const std::size_t n = data_.size();
    const std::size_t chunk = (n + segments - 1) / segments;

    std::vector<long long> segment_sums(segments, 0);
    std::vector<long long> segment_updates(segments, 0);
    tx.run_children(segments, [&](stm::Tx& child, std::size_t s) {
      util::Rng child_rng{tx_seed ^ (0x9e3779b97f4a7c15ULL * (s + 1))};
      long long sum = 0;
      long long updates = 0;
      const std::size_t lo = s * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        const long long value = data_.read(child, i);
        sum += value;
        if (child_rng.bernoulli(config_.update_fraction)) {
          data_.write(child, i, value + 1);
          ++updates;
        }
      }
      segment_sums[s] = sum;
      segment_updates[s] = updates;
    });

    long long total_updates = 0;
    for (std::size_t s = 0; s < segments; ++s) total_updates += segment_updates[s];
    if (total_updates > 0) {
      update_counter_.write(tx, update_counter_.read(tx) + total_updates);
    }
  });
}

void ArrayBenchmark::run_many(std::size_t count, util::Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) run_one(rng);
}

long long ArrayBenchmark::checksum() const {
  long long sum = 0;
  for (std::size_t i = 0; i < data_.size(); ++i) sum += data_.peek(i);
  return sum;
}

long long ArrayBenchmark::committed_updates() const { return update_counter_.peek(); }

}  // namespace autopn::workloads
