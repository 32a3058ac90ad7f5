#pragma once
// ServeEngine — the request-serving front of the PN-STM. Producers submit
// requests through the bounded admission queue (backpressure + load-shedding
// with a retry-after hint); a pool of worker threads executes each admitted
// request as a top-level parallel-nesting transaction — the workload handler
// calls Stm::run_top internally, so every request passes through the
// actuator's t/c gates and the AutoPN tuner shapes live service parallelism.
// Only the first t workers (t = Stm::top_limit()) dequeue: the rest park
// before they take a request, so a waiting request stays in the queue
// instead of on a worker asleep at the top gate, and its service time holds
// no gate wait (unless t just shrank, or callers outside the engine hold
// permits: the gate still bounds them all).
// Per-request latency (enqueue→commit) lands in the ServiceKpiSource, which
// feeds the TuningController real latency KPIs and the engine's SLO report.
//
// Dataflow:
//   loadgen/clients → submit() → RequestQueue → min(workers, t) workers
//        → Stm.run_top
//        → commit → ServiceKpiSource → TuningController → Actuator → gates

#include <atomic>
#include <cstdint>
#include <functional>
#include <stop_token>
#include <thread>
#include <vector>

#include "serve/kpi_source.hpp"
#include "serve/request_queue.hpp"
#include "stm/stm.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace autopn::serve {

/// A request handler: executes one unit of application work, typically one
/// or more top-level transactions on the engine's Stm.
using RequestHandler = std::function<void(util::Rng&)>;

struct ServeConfig {
  /// Upper bound on the worker threads. Active workers = min(workers, t):
  /// worker i dequeues only while i < Stm::top_limit(), and the surplus
  /// workers park before they dequeue until t rises.
  std::size_t workers = 4;
  std::size_t queue_capacity = 256;
  /// Depth at which admission starts shedding; 0 derives 3/4 of capacity.
  std::size_t shed_watermark = 0;
  std::uint64_t seed = 7;
  /// Per-request deadline, seconds from submit; 0 = none. An expired request
  /// is dropped at dequeue without executing, and a request whose deadline
  /// passes mid-retry gives up through the transaction layer's ambient
  /// ScopedDeadline — either way it counts as `expired`, never `completed`.
  double request_timeout = 0.0;
};

/// Outcome of one submit().
struct SubmitResult {
  bool admitted = false;
  /// Backoff hint (seconds) when shed: expected time for the backlog above
  /// the watermark to drain at the observed service rate.
  double retry_after = 0.0;
  std::size_t queue_depth = 0;
};

/// Cumulative service statistics. Accounting invariant (exact after
/// drain_and_stop): offered == admitted + shed and
/// admitted == completed + expired + failed — no request is ever lost.
struct ServeReport {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;  ///< deadline passed before/during execution
  std::uint64_t failed = 0;  ///< handler threw (request counted, no latency)
  std::size_t queue_depth = 0;
  double shed_fraction = 0.0;
  /// Backoff a request shed at the current depth would be told to wait —
  /// the same clamped [1 ms, 5 s] hint SubmitResult carries at shed time,
  /// surfaced continuously so SLO reports and the wire can see it.
  double retry_after_hint = 0.0;
  LatencyRecorder::Summary latency;  ///< enqueue→commit, seconds
  /// Per-stage breakdown of the end-to-end latency (completed requests):
  /// latency ≈ queue_wait + service. These are the production counters the
  /// compositional model fits its queue and service submodels from
  /// (DESIGN.md §14) — no bench run needed.
  LatencyRecorder::Summary queue_wait;  ///< enqueue→dequeue, seconds
  LatencyRecorder::Summary service;     ///< dequeue→commit, seconds

  /// Per-tenant latency (only slots that completed ≥ 1 request). `tenant`
  /// is the KPI source's slot index (tenant id modulo its slot count).
  struct TenantLatency {
    std::uint16_t tenant = 0;
    LatencyRecorder::Summary latency;
  };
  std::vector<TenantLatency> tenants;
};

class ServeEngine {
 public:
  /// The engine borrows the Stm and clock (both must outlive it) and spawns
  /// its workers immediately.
  ServeEngine(stm::Stm& stm, RequestHandler default_handler,
              const util::Clock& clock, ServeConfig config = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Submits a request for the default handler.
  SubmitResult submit() { return submit({}, {}); }

  /// Submits custom work (empty = default handler) with an optional
  /// completion hook (runs on the worker after execution — even when the
  /// handler throws — so closed-loop clients never hang) on behalf of
  /// `tenant_id` (0 = the anonymous/default tenant). `timeout_seconds`
  /// overrides the engine-wide request deadline for this request (the wire
  /// protocol carries client deadlines); 0 keeps the configured default,
  /// and the effective deadline is the tighter of the two.
  SubmitResult submit(RequestHandler work, CompletionFn on_complete,
                      std::uint16_t tenant_id = 0,
                      double timeout_seconds = 0.0);

  /// Stops admission, lets the workers drain the backlog, and joins them
  /// (parked ones included).
  /// After return no worker is running and every admitted request's
  /// on_complete has fired — a network front-end can rely on this to drain
  /// posted responses deterministically. Idempotent; the destructor calls
  /// it.
  void drain_and_stop();

  [[nodiscard]] ServeReport report() const;

  [[nodiscard]] ServiceKpiSource& kpi_source() noexcept { return kpi_; }
  [[nodiscard]] const RequestQueue& queue() const noexcept { return queue_; }
  [[nodiscard]] stm::Stm& stm() noexcept { return *stm_; }

 private:
  void worker_loop(std::size_t index, const std::stop_token& stop);
  [[nodiscard]] double retry_after_hint(std::size_t depth) const;

  stm::Stm* stm_;
  RequestHandler default_handler_;
  const util::Clock* clock_;
  ServeConfig config_;

  RequestQueue queue_;
  ServiceKpiSource kpi_;
  util::ShardedCounter failed_;
  util::ShardedCounter expired_;
  std::atomic<std::uint64_t> next_id_{0};

  std::mutex stop_mutex_;  ///< serializes drain_and_stop against itself
  std::vector<std::jthread> workers_ AUTOPN_GUARDED_BY(stop_mutex_);
};

}  // namespace autopn::serve
