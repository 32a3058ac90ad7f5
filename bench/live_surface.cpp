// Records a real performance surface from the live PN-STM on this machine
// (the n=4 analogue of the paper's exhaustive offline measurement campaign),
// prints it, and runs AutoPN trace-driven against it — demonstrating that
// the whole optimizer pipeline works end-to-end on surfaces measured from
// the real system, not only on the analytical model.

#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "opt/autopn_optimizer.hpp"
#include "opt/runner.hpp"
#include "runtime/live_trace.hpp"
#include "util/table.hpp"
#include "workloads/array_bench.hpp"

using namespace autopn;

int main() {
  stm::StmConfig cfg;
  cfg.max_cores = 4;
  cfg.pool_threads = 2;
  cfg.initial_top = 1;
  cfg.initial_children = 1;
  stm::Stm stm{cfg};

  workloads::ArrayConfig acfg;
  acfg.array_size = 256;
  acfg.update_fraction = 0.3;
  workloads::ArrayBenchmark bench{stm, acfg};

  std::atomic<bool> stop{false};
  std::vector<std::jthread> drivers;
  for (int d = 0; d < 3; ++d) {
    drivers.emplace_back([&, d] {
      util::Rng rng{static_cast<std::uint64_t>(77 + d)};
      while (!stop.load(std::memory_order_relaxed)) bench.run_one(rng);
    });
  }

  const opt::ConfigSpace space{static_cast<int>(cfg.max_cores)};
  util::WallClock clock;
  runtime::LiveTraceParams params;
  params.runs = 3;
  params.window_seconds = 0.15;
  std::cout << "recording the live surface (" << space.size() << " configs x "
            << params.runs << " runs x " << params.window_seconds << "s)...\n";
  const sim::SurfaceTrace trace =
      runtime::record_live_surface(stm, space, "array-30%-live", clock, params);
  stop.store(true, std::memory_order_relaxed);
  drivers.clear();

  util::TextTable table{{"(t,c)", "mean thr (tx/s)", "stddev"}};
  for (const opt::Config& c : space.all()) {
    table.add_row({c.to_string(), util::fmt_double(trace.mean(c), 0),
                   util::fmt_double(trace.at(c).stddev, 0)});
  }
  table.print(std::cout);
  const auto optimum = trace.optimum();
  std::cout << "\nlive optimum: " << optimum.config.to_string() << " @ "
            << util::fmt_double(optimum.throughput, 0) << " tx/s\n";

  // Trace-driven AutoPN on the recorded (real!) surface.
  util::Rng noise{1};
  opt::AutoPnOptimizer autopn{space, {}, 2};
  const auto result = opt::run_to_convergence(
      autopn, [&](const opt::Config& c) { return trace.sample(c, noise); });
  std::cout << "autopn on the recorded surface chose "
            << result.final_best.to_string() << " (DFO "
            << util::fmt_percent(trace.distance_from_optimum(result.final_best))
            << ") after " << result.explorations() << " explorations\n";
  std::cout << "(the shape of this surface reflects this machine, not the "
               "paper's 48-core box)\n";
  return 0;
}
