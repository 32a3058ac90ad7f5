// STM core scaling bench: begin/commit throughput vs thread count,
// demonstrating that the runtime's coordination structures (snapshot
// registry, commit serialization, sharded stats) do not serialize top-level
// transactions that touch disjoint data beyond the commit mutex itself.
//
// Three workloads per thread count:
//  * disjoint — each thread read-modify-writes its own private box: zero
//    logical conflicts, so any slowdown vs 1 thread is pure runtime
//    coordination overhead (the quantity the paper's actuator sits on top of);
//  * read-only — snapshot reads through the read_only fast path (no commit);
//  * shared — all threads increment one box: the worst-case serialization
//    anchor, dominated by aborts/retries by design.
//
// Usage: stm_scaling [--quick]   (--quick: fewer transactions per cell)

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <deque>
#include <thread>
#include <vector>

#include "stm/stm.hpp"
#include "util/table.hpp"

namespace {

using namespace autopn;

struct CellResult {
  double txn_per_sec = 0.0;
  std::uint64_t aborts = 0;
};

/// Runs `threads` workers, each executing `txns_per_thread` transactions via
/// `run_one(stm, thread_index)`, and returns aggregate throughput.
CellResult run_cell(std::size_t threads, std::size_t txns_per_thread,
                    const std::function<void(stm::Stm&, std::size_t)>& setup,
                    const std::function<void(stm::Stm&, std::size_t)>& run_one) {
  stm::StmConfig cfg;
  cfg.initial_top = threads;
  cfg.initial_children = 1;
  cfg.pool_threads = 1;
  stm::Stm stm{cfg};
  setup(stm, threads);
  stm.reset_stats();

  std::atomic<bool> go{false};
  std::vector<std::jthread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0; i < txns_per_thread; ++i) run_one(stm, t);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  workers.clear();  // join
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  CellResult result;
  const double total = static_cast<double>(threads * txns_per_thread);
  result.txn_per_sec = elapsed > 0 ? total / elapsed : 0.0;
  result.aborts = stm.stats().top_aborts;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc == 2 && std::string_view{argv[1]} == "--quick";
  if (argc > 2 || (argc == 2 && !quick)) {
    std::cerr << "usage: stm_scaling [--quick]\n";
    return 2;
  }
  const std::size_t txns = quick ? 2000 : 20000;

  std::cout << "== stm_scaling: begin/commit throughput vs thread count ==\n\n";

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hw >= 4) thread_counts.push_back(8);

  util::TextTable table{{"workload", "threads", "txn/s", "aborts",
                         "vs 1-thread"}};

  for (const char* workload : {"disjoint", "read-only", "shared"}) {
    double base = 0.0;
    for (std::size_t threads : thread_counts) {
      // One private box per worker; the shared workload uses box 0 only.
      auto boxes = std::make_shared<std::deque<stm::VBox<std::uint64_t>>>();
      auto setup = [boxes](stm::Stm&, std::size_t n) {
        boxes->resize(n);
        for (auto& box : *boxes) box.put_initial(0);
      };
      std::function<void(stm::Stm&, std::size_t)> run_one;
      if (std::string_view{workload} == "disjoint") {
        run_one = [boxes](stm::Stm& s, std::size_t t) {
          s.run_top([&](stm::Tx& tx) {
            auto& box = (*boxes)[t];
            box.write(tx, box.read(tx) + 1);
          });
        };
      } else if (std::string_view{workload} == "read-only") {
        run_one = [boxes](stm::Stm& s, std::size_t t) {
          (void)s.read_only<std::uint64_t>(
              [&](stm::Tx& tx) { return (*boxes)[t].read(tx); });
        };
      } else {
        run_one = [boxes](stm::Stm& s, std::size_t) {
          s.run_top([&](stm::Tx& tx) {
            auto& box = (*boxes)[0];
            box.write(tx, box.read(tx) + 1);
          });
        };
      }
      const CellResult cell = run_cell(threads, txns, setup, run_one);
      if (threads == 1) base = cell.txn_per_sec;
      table.add_row({workload, std::to_string(threads),
                     util::fmt_double(cell.txn_per_sec, 0),
                     std::to_string(cell.aborts),
                     base > 0 ? util::fmt_double(cell.txn_per_sec / base, 2)
                              : "-"});
    }
  }

  table.print(std::cout);
  std::cout << "\nmachine: " << hw << " hardware thread(s); "
            << (quick ? "quick" : "full") << " mode, " << txns
            << " txns/thread/cell\n";
  return 0;
}
