#include "serve/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "util/wait_group.hpp"

namespace autopn::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

SteadyClock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(std::max(seconds, 0.0)));
}

double elapsed_seconds(SteadyClock::time_point since) {
  return std::chrono::duration<double>(SteadyClock::now() - since).count();
}

}  // namespace

OpenLoopResult run_open_loop(ServeEngine& engine, const OpenLoopParams& params) {
  PoissonArrivals arrivals{params.rate, params.seed};
  OpenLoopResult result;
  const auto start = SteadyClock::now();
  const auto deadline = start + to_duration(params.duration);
  auto next_arrival = start;
  double depth_sum = 0.0;
  for (;;) {
    next_arrival += to_duration(arrivals.next_gap());
    if (next_arrival >= deadline) break;
    // When the generator falls behind schedule (offered rate above what one
    // thread can submit), sleep_until returns immediately and arrivals
    // degrade to back-to-back — still an open loop, just rate-capped.
    std::this_thread::sleep_until(next_arrival);
    const SubmitResult r = engine.submit();
    ++result.offered;
    if (r.admitted) {
      ++result.admitted;
    } else {
      ++result.shed;
    }
    depth_sum += static_cast<double>(r.queue_depth);
    result.max_queue_depth = std::max(result.max_queue_depth, r.queue_depth);
  }
  result.duration = elapsed_seconds(start);
  result.mean_queue_depth =
      result.offered > 0 ? depth_sum / static_cast<double>(result.offered) : 0.0;
  return result;
}

ClosedLoopResult run_closed_loop(ServeEngine& engine,
                                 const ClosedLoopParams& params) {
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> shed{0};
  const auto start = SteadyClock::now();
  const auto deadline = start + to_duration(params.duration);
  {
    std::vector<std::jthread> clients;
    clients.reserve(params.clients);
    for (std::size_t i = 0; i < params.clients; ++i) {
      clients.emplace_back([&, i] {
        util::Rng rng{params.seed + 7919 * (i + 1)};
        while (SteadyClock::now() < deadline) {
          util::WaitGroup done;
          done.add(1);
          const SubmitResult r =
              engine.submit({}, [&done](const RequestResult&) { done.done(); });
          issued.fetch_add(1, std::memory_order_relaxed);
          if (r.admitted) {
            done.wait();
            completed.fetch_add(1, std::memory_order_relaxed);
          } else {
            shed.fetch_add(1, std::memory_order_relaxed);
            // Honor the engine's backoff hint, bounded so a client never
            // sleeps past the end of the run by much.
            std::this_thread::sleep_for(
                to_duration(std::min(r.retry_after, 0.050)));
          }
          if (params.think_time > 0.0) {
            std::this_thread::sleep_for(
                to_duration(rng.exponential(1.0 / params.think_time)));
          }
        }
      });
    }
  }  // join
  ClosedLoopResult result;
  result.issued = issued.load(std::memory_order_relaxed);
  result.completed = completed.load(std::memory_order_relaxed);
  result.shed = shed.load(std::memory_order_relaxed);
  result.duration = elapsed_seconds(start);
  return result;
}

}  // namespace autopn::serve
