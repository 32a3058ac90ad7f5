// Quickstart: the smallest complete AutoPN program.
//
//  1. create a PN-STM runtime and some transactional state;
//  2. run top-level transactions that fan work out to parallel nested
//     children;
//  3. let AutoPN tune the inter-/intra-transaction parallelism degree (t, c)
//     online while the workload runs.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart

#include <atomic>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "opt/autopn_optimizer.hpp"
#include "runtime/controller.hpp"
#include "runtime/monitor.hpp"
#include "stm/containers.hpp"
#include "stm/stm.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

using namespace autopn;

int main() {
  // --- 1. the PN-STM runtime and shared transactional state ---------------
  stm::StmConfig config;
  config.max_cores = 4;        // the machine we tune for
  config.pool_threads = 2;     // worker threads shared by nested transactions
  config.initial_top = 1;      // start sequential; AutoPN will adjust
  config.initial_children = 1;
  stm::Stm stm{config};

  stm::TArray<long long> account_balances{64, 1000LL};
  stm::VBox<long long> total_transfers{0LL};

  // --- 2. the application: transfers with nested parallel auditing --------
  auto run_one_transaction = [&](util::Rng& rng) {
    const std::size_t from = rng.uniform_index(account_balances.size());
    const std::size_t to = rng.uniform_index(account_balances.size());
    stm.run_top([&](stm::Tx& tx) {
      // Move money between two accounts...
      const long long amount = 1 + static_cast<long long>(rng.uniform_index(10));
      account_balances.write(tx, from, account_balances.read(tx, from) - amount);
      account_balances.write(tx, to, account_balances.read(tx, to) + amount);
      total_transfers.write(tx, total_transfers.read(tx) + 1);

      // ...and audit the books in parallel nested transactions, each child
      // summing a disjoint segment. The per-tree child concurrency is capped
      // by the tuned value of c.
      const std::size_t segments = stm.child_limit();
      const std::size_t chunk =
          (account_balances.size() + segments - 1) / segments;
      std::vector<long long> partial(segments, 0);
      tx.run_children(segments, [&](stm::Tx& child, std::size_t s) {
        const std::size_t lo = s * chunk;
        const std::size_t hi = std::min(account_balances.size(), lo + chunk);
        long long sum = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          sum += account_balances.read(child, i);
        }
        partial[s] = sum;
      });

      long long grand_total = 0;
      for (long long p : partial) grand_total += p;
      if (grand_total != static_cast<long long>(account_balances.size()) * 1000) {
        // Snapshot reads make this impossible; retry defensively if it ever
        // tripped (it cannot — see tests/stm_concurrency_test.cpp).
        tx.retry();
      }
    });
  };

  // Application threads drive transactions while tuning happens.
  std::atomic<bool> stop{false};
  std::vector<std::jthread> app_threads;
  for (int i = 0; i < 2; ++i) {
    app_threads.emplace_back([&, i] {
      util::Rng rng{static_cast<std::uint64_t>(42 + i)};
      while (!stop.load()) run_one_transaction(rng);
    });
  }

  // --- 3. online self-tuning ----------------------------------------------
  util::WallClock clock;
  opt::ConfigSpace space{static_cast<int>(config.max_cores)};
  runtime::ControllerParams params;
  params.max_window_seconds = 1.0;
  runtime::TuningController controller{
      stm,
      std::make_unique<opt::AutoPnOptimizer>(space, opt::AutoPnParams{}, /*seed=*/1),
      std::make_unique<runtime::CvAdaptivePolicy>(/*cv_threshold=*/0.20,
                                                  /*min_commits=*/5),
      clock, params};

  std::cout << "tuning the parallelism degree over " << space.size()
            << " configurations...\n";
  const runtime::TuningReport report = controller.tune();

  std::cout << "explored " << report.explorations << " configurations in "
            << report.tuning_seconds << "s\n";
  std::cout << "chosen configuration: t=" << report.chosen.t
            << " top-level transactions, c=" << report.chosen.c
            << " nested transactions per tree\n";

  // Let the tuned system run briefly, then report.
  stm.reset_stats();
  std::this_thread::sleep_for(std::chrono::milliseconds{500});
  stop.store(true);
  app_threads.clear();

  const auto stats = stm.stats();
  std::cout << "tuned throughput: " << stats.top_commits * 2 << " tx/s ("
            << stats.top_aborts << " aborts, " << stats.child_commits
            << " nested commits)\n";
  std::cout << "final transfer count: " << total_transfers.peek() << "\n";
  return 0;
}
