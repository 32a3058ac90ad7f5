// Tests for the serving engine: transactional execution, overload shedding,
// drain-on-shutdown with in-flight transactions, KPI-source windows, and the
// open-/closed-loop load generators.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "serve/engine.hpp"
#include "serve/handlers.hpp"
#include "serve/loadgen.hpp"
#include "util/wait_group.hpp"

namespace autopn::serve {
namespace {

using namespace std::chrono_literals;

stm::StmConfig small_stm() {
  stm::StmConfig cfg;
  cfg.max_cores = 4;
  cfg.pool_threads = 2;
  cfg.initial_top = 2;
  cfg.initial_children = 1;
  return cfg;
}

/// Submits until `count` requests were admitted, waiting out shed periods.
void submit_admitted(ServeEngine& engine, std::size_t count,
                     RequestHandler work = {}) {
  std::size_t admitted = 0;
  while (admitted < count) {
    const auto r = engine.submit(work, {});
    if (r.admitted) {
      ++admitted;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
}

TEST(ServeEngine, ExecutesRequestsAsTransactions) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  auto workload = make_servable_workload("array", stm);
  ServeConfig cfg;
  cfg.workers = 2;
  ServeEngine engine{stm, workload.handler, clock, cfg};

  submit_admitted(engine, 50);
  engine.drain_and_stop();

  const ServeReport report = engine.report();
  EXPECT_EQ(report.admitted, 50u);
  EXPECT_EQ(report.completed, 50u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.queue_depth, 0u);
  // Every request ran at least one top-level transaction on the STM.
  EXPECT_GE(stm.stats().top_commits, 50u);
  EXPECT_TRUE(workload.verify());
}

TEST(ServeEngine, LatencyReportIsPopulatedAndOrdered) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  auto workload = make_servable_workload("array", stm);
  ServeEngine engine{stm, workload.handler, clock, {}};
  submit_admitted(engine, 100);
  engine.drain_and_stop();

  const auto latency = engine.report().latency;
  EXPECT_EQ(latency.count, 100u);
  EXPECT_GT(latency.mean, 0.0);
  EXPECT_LE(latency.p50, latency.p95);
  EXPECT_LE(latency.p95, latency.p99);
}

TEST(ServeEngine, StageBreakdownDecomposesLatencyExactly) {
  // Per-request stage stamps: latency = queue wait (enqueue→dequeue) +
  // service (dequeue→commit), so the exact means must add up and every
  // completed request contributes one sample to each stage histogram.
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  const RequestHandler busy = [](util::Rng&) {
    std::this_thread::sleep_for(1ms);
  };
  ServeConfig cfg;
  cfg.workers = 2;
  ServeEngine engine{stm, busy, clock, cfg};
  submit_admitted(engine, 60);
  engine.drain_and_stop();

  const ServeReport report = engine.report();
  ASSERT_EQ(report.completed, 60u);
  EXPECT_EQ(report.queue_wait.count, 60u);
  EXPECT_EQ(report.service.count, 60u);
  EXPECT_GE(report.service.mean, 0.001);  // the handler sleeps 1 ms
  // Exact up to floating-point cancellation on absolute clock timestamps.
  EXPECT_NEAR(report.latency.mean, report.queue_wait.mean + report.service.mean,
              1e-6);
  EXPECT_LE(report.queue_wait.p50, report.queue_wait.p99);
  EXPECT_LE(report.service.p50, report.service.p99);
}

TEST(ServeEngine, StageBreakdownSkipsFailedRequests) {
  // Failed requests contribute no latency sample — and no stage samples
  // either, keeping the three histograms in lockstep.
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  std::atomic<int> calls{0};
  const RequestHandler flaky = [&calls](util::Rng&) {
    if (calls.fetch_add(1) % 2 == 0) throw std::runtime_error{"boom"};
  };
  ServeEngine engine{stm, flaky, clock, {}};
  submit_admitted(engine, 20);
  engine.drain_and_stop();
  const ServeReport report = engine.report();
  EXPECT_EQ(report.queue_wait.count, report.completed);
  EXPECT_EQ(report.service.count, report.completed);
  EXPECT_EQ(report.latency.count, report.completed);
}

TEST(ServeEngine, ShedsUnderOverloadWithRetryAfterHint) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  // A deliberately slow handler so one worker cannot keep up.
  const RequestHandler slow = [](util::Rng&) {
    std::this_thread::sleep_for(5ms);
  };
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.shed_watermark = 4;
  ServeEngine engine{stm, slow, clock, cfg};

  bool saw_shed = false;
  double retry_after = 0.0;
  for (int i = 0; i < 200; ++i) {
    const auto r = engine.submit();
    if (!r.admitted) {
      saw_shed = true;
      retry_after = r.retry_after;
      break;
    }
  }
  EXPECT_TRUE(saw_shed);
  EXPECT_GT(retry_after, 0.0);
  EXPECT_LE(retry_after, 5.0);
  engine.drain_and_stop();
  const auto report = engine.report();
  EXPECT_GT(report.shed, 0u);
  EXPECT_GT(report.shed_fraction, 0.0);
}

TEST(ServeEngine, DrainOnShutdownCompletesInFlightRequests) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  std::atomic<int> executed{0};
  const RequestHandler slow = [&executed](util::Rng&) {
    std::this_thread::sleep_for(2ms);
    executed.fetch_add(1);
  };
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  cfg.shed_watermark = 64;
  ServeEngine engine{stm, slow, clock, cfg};

  std::size_t admitted = 0;
  for (int i = 0; i < 32; ++i) admitted += engine.submit().admitted;
  engine.drain_and_stop();  // must wait for the whole backlog
  EXPECT_EQ(executed.load(), static_cast<int>(admitted));
  EXPECT_EQ(engine.report().completed, admitted);
  // Stopped engines shed everything and drain_and_stop stays idempotent.
  EXPECT_FALSE(engine.submit().admitted);
  engine.drain_and_stop();
}

TEST(ServeEngine, FailingHandlerCountsFailureAndKeepsServing) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  std::atomic<int> calls{0};
  const RequestHandler flaky = [&calls](util::Rng&) {
    if (calls.fetch_add(1) % 2 == 0) throw std::runtime_error{"boom"};
  };
  ServeEngine engine{stm, flaky, clock, {}};
  submit_admitted(engine, 20);
  engine.drain_and_stop();
  const auto report = engine.report();
  EXPECT_EQ(report.completed + report.failed, 20u);
  EXPECT_GT(report.failed, 0u);
  EXPECT_GT(report.completed, 0u);
}

TEST(ServiceKpiSource, DrainReturnsWindowSamplesOnce) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  auto workload = make_servable_workload("array", stm);
  ServeEngine engine{stm, workload.handler, clock, {}};
  (void)engine.kpi_source().drain_latencies();  // discard pre-window noise
  submit_admitted(engine, 25);
  engine.drain_and_stop();

  const auto samples = engine.kpi_source().drain_latencies();
  EXPECT_EQ(samples.size(), 25u);
  for (double s : samples) EXPECT_GE(s, 0.0);
  EXPECT_TRUE(engine.kpi_source().drain_latencies().empty());  // drained
  // The cumulative histogram is unaffected by draining windows.
  EXPECT_EQ(engine.kpi_source().latency_summary().count, 25u);
}

TEST(Loadgen, OpenLoopOffersAtConfiguredRate) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  auto workload = make_servable_workload("array", stm);
  ServeEngine engine{stm, workload.handler, clock, {}};
  OpenLoopParams params;
  params.rate = 400.0;
  params.duration = 0.5;
  const OpenLoopResult result = run_open_loop(engine, params);
  engine.drain_and_stop();
  EXPECT_EQ(result.offered, result.admitted + result.shed);
  // Poisson(rate * duration) = 200 expected arrivals; allow wide slack for
  // slow CI machines (the generator degrades to back-to-back, never over).
  EXPECT_GT(result.offered, 50u);
  EXPECT_LT(result.offered, 400u);
  EXPECT_NEAR(result.duration, 0.5, 0.2);
}

TEST(Loadgen, OpenLoopOverloadGrowsQueueAndSheds) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  const RequestHandler slow = [](util::Rng&) {
    std::this_thread::sleep_for(2ms);
  };
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  cfg.shed_watermark = 8;
  ServeEngine engine{stm, slow, clock, cfg};
  OpenLoopParams params;
  params.rate = 2000.0;  // far beyond ~500/s service capacity
  params.duration = 0.4;
  const OpenLoopResult result = run_open_loop(engine, params);
  engine.drain_and_stop();
  EXPECT_GT(result.shed, 0u);
  EXPECT_GT(result.shed_fraction(), 0.3);
  EXPECT_GE(result.max_queue_depth, 8u);  // backlog reached the watermark
}

TEST(ServeEngine, RetryAfterHintTrustThresholdAndClamps) {
  // Virtual time pins the retry-after policy exactly: the completion-rate
  // estimate is trusted only from the 8th completion on, and the hint is
  // clamped to [1 ms, 5 s] on both sides.
  stm::Stm stm{small_stm()};
  util::VirtualClock clock;
  ServeConfig cfg;
  cfg.workers = 1;
  ServeEngine engine{stm, [](util::Rng&) {}, clock, cfg};

  const auto complete_one = [&] {
    util::WaitGroup done;
    done.add(1);
    ASSERT_TRUE(
        engine.submit({}, [&done](const RequestResult&) { done.done(); })
            .admitted);
    done.wait();
  };

  for (int i = 0; i < 7; ++i) complete_one();
  clock.set(1e-6);
  // 7 completions: the rate (here a huge 7e6/s) must NOT be trusted yet —
  // the hint is the 10 ms/request fallback (empty queue → excess = 1).
  EXPECT_DOUBLE_EQ(engine.report().retry_after_hint, 0.010);

  complete_one();  // 8th completion crosses the trust threshold
  // rate = 8 / 1e-6 s → raw hint ~1.25e-7 s → clamped up to the 1 ms floor.
  EXPECT_DOUBLE_EQ(engine.report().retry_after_hint, 0.001);

  clock.set(2.0);  // rate = 8 / 2 s = 4/s → hint = 1 / 4 = 0.25 s, unclamped
  EXPECT_NEAR(engine.report().retry_after_hint, 0.25, 1e-9);

  clock.set(1e9);  // rate ~8e-9/s → raw hint ~1.25e8 s → clamped to the 5 s cap
  EXPECT_DOUBLE_EQ(engine.report().retry_after_hint, 5.0);

  engine.drain_and_stop();
}

TEST(ServeEngine, ShedTimeRetryAfterMatchesReportedHint) {
  // The hint a shed submit() returns is the same one report() surfaces.
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  const RequestHandler slow = [](util::Rng&) {
    std::this_thread::sleep_for(5ms);
  };
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  cfg.shed_watermark = 2;
  ServeEngine engine{stm, slow, clock, cfg};
  double shed_hint = 0.0;
  for (int i = 0; i < 100 && shed_hint == 0.0; ++i) {
    const auto r = engine.submit();
    if (!r.admitted) shed_hint = r.retry_after;
  }
  ASSERT_GT(shed_hint, 0.0);
  EXPECT_GE(shed_hint, 0.001);
  EXPECT_LE(shed_hint, 5.0);
  EXPECT_GT(engine.report().retry_after_hint, 0.0);
  engine.drain_and_stop();
}

TEST(ServeEngine, PerTenantLatencyIsolatedBySlot) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  cfg.shed_watermark = 64;
  ServeEngine engine{stm, [](util::Rng&) {}, clock, cfg};

  const auto submit_for_tenant = [&](std::uint16_t tenant, int count) {
    for (int i = 0; i < count; ++i) {
      while (!engine.submit({}, {}, tenant).admitted) {
        std::this_thread::sleep_for(1ms);
      }
    }
  };
  submit_for_tenant(1, 10);
  submit_for_tenant(2, 5);
  submit_for_tenant(9, 3);  // 9 % kTenantSlots == 1: shares tenant 1's slot
  engine.drain_and_stop();

  static_assert(ServiceKpiSource::tenant_slot(9) == 1);
  const auto report = engine.report();
  EXPECT_EQ(report.latency.count, 18u);
  ASSERT_EQ(report.tenants.size(), 2u);  // slots 1 and 2 saw traffic
  EXPECT_EQ(report.tenants[0].tenant, 1u);
  EXPECT_EQ(report.tenants[0].latency.count, 13u);  // tenant 1 + tenant 9
  EXPECT_EQ(report.tenants[1].tenant, 2u);
  EXPECT_EQ(report.tenants[1].latency.count, 5u);
  for (const auto& t : report.tenants) {
    EXPECT_LE(t.latency.p50, t.latency.p99);
  }
}

TEST(ServeEngine, CompletionCallbackCarriesOutcomeAndTenant) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  ServeEngine engine{stm, [](util::Rng&) {}, clock, {}};

  util::WaitGroup done;
  done.add(2);
  RequestResult ok_result;
  RequestResult failed_result;
  ASSERT_TRUE(engine
                  .submit({}, [&](const RequestResult& r) {
                            ok_result = r;
                            done.done();
                          },
                          /*tenant_id=*/5)
                  .admitted);
  ASSERT_TRUE(engine
                  .submit([](util::Rng&) { throw std::runtime_error{"boom"}; },
                          [&](const RequestResult& r) {
                            failed_result = r;
                            done.done();
                          },
                          /*tenant_id=*/6)
                  .admitted);
  done.wait();
  engine.drain_and_stop();
  EXPECT_EQ(ok_result.outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(ok_result.tenant_id, 5u);
  EXPECT_GE(ok_result.latency, 0.0);
  EXPECT_EQ(failed_result.outcome, RequestOutcome::kFailed);
  EXPECT_EQ(failed_result.tenant_id, 6u);
  // A failed request contributes no latency sample, globally or per-tenant.
  const auto report = engine.report();
  EXPECT_EQ(report.latency.count, 1u);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].tenant, 5u);
}

TEST(Loadgen, ClosedLoopClientsCompleteTheirRequests) {
  stm::Stm stm{small_stm()};
  util::WallClock clock;
  auto workload = make_servable_workload("array", stm);
  ServeEngine engine{stm, workload.handler, clock, {}};
  ClosedLoopParams params;
  params.clients = 4;
  params.think_time = 0.0005;
  params.duration = 0.4;
  const ClosedLoopResult result = run_closed_loop(engine, params);
  engine.drain_and_stop();
  EXPECT_GT(result.issued, 0u);
  EXPECT_EQ(result.issued, result.completed + result.shed);
  EXPECT_GT(result.completed, 0u);
  EXPECT_GE(engine.report().completed, result.completed);
}

// ---- workers above the top-level limit park before they dequeue ----------

stm::StmConfig stm_with_top_limit(std::size_t t) {
  stm::StmConfig cfg = small_stm();
  cfg.initial_top = t;
  return cfg;
}

/// A queue deep enough that `n` requests are all admitted without shedding.
ServeConfig deep_queue(std::size_t workers, std::size_t n) {
  ServeConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = n;
  cfg.shed_watermark = n;
  return cfg;
}

/// Submits a request whose transaction holds the top-level permit until
/// `release` opens, and waits up to 2 s for it to start. On a timeout it
/// opens `release` itself, so that the engine can still drain. Both must
/// outlive the engine.
[[nodiscard]] bool hold_top_permit(ServeEngine& engine,
                                   util::WaitGroup& entered,
                                   std::latch& release) {
  stm::Stm& stm = engine.stm();
  entered.add(1);
  const bool admitted =
      engine
          .submit(
              [&stm, &entered, &release](util::Rng&) {
                // No reads or writes: the body cannot abort, so it runs
                // exactly once.
                stm.run_top([&](stm::Tx&) {
                  entered.done();
                  release.wait();
                });
              },
              {})
          .admitted;
  if (admitted && entered.wait_for(2s)) return true;
  release.count_down();
  return false;
}

TEST(ServeEngine, WaitingRequestsStayQueuedWhileTIsFull) {
  // t=1 with 3 workers: while the one permitted request holds the top gate,
  // the other two workers park instead of dequeuing a request each and then
  // sleeping on the gate with it.
  stm::Stm stm{stm_with_top_limit(1)};
  util::WallClock clock;
  util::WaitGroup entered;
  std::latch release{1};
  std::atomic<int> started{0};
  util::WaitGroup first_started;
  first_started.add(1);
  ServeEngine engine{stm, [](util::Rng&) {}, clock, deep_queue(3, 16)};
  ASSERT_TRUE(hold_top_permit(engine, entered, release));

  // A dequeued waiting request would start its handler before reaching the
  // gate; give a worker that wrongly dequeues the time to show it.
  const RequestHandler waiting = [&stm, &started, &first_started](util::Rng&) {
    if (started.fetch_add(1) == 0) first_started.done();
    stm.run_top([](stm::Tx&) {});
  };
  std::size_t admitted = 0;
  for (int i = 0; i < 5; ++i) admitted += engine.submit(waiting, {}).admitted;
  const bool dequeued_early = first_started.wait_for(200ms);
  const std::size_t depth = engine.report().queue_depth;

  release.count_down();
  engine.drain_and_stop();
  ASSERT_EQ(admitted, 5u);
  EXPECT_FALSE(dequeued_early);
  EXPECT_EQ(depth, 5u);
  EXPECT_EQ(started.load(), 5);
  EXPECT_EQ(engine.report().completed, 6u);
}

TEST(ServeEngine, WorkersAboveTopLimitNeverDequeue) {
  stm::Stm stm{stm_with_top_limit(1)};
  util::WallClock clock;
  std::mutex mutex;
  std::set<std::thread::id> servers;
  const RequestHandler record = [&](util::Rng&) {
    stm.run_top([](stm::Tx&) {});
    std::scoped_lock lock{mutex};
    servers.insert(std::this_thread::get_id());
  };
  ServeEngine engine{stm, record, clock, deep_queue(3, 256)};
  submit_admitted(engine, 200);
  engine.drain_and_stop();

  EXPECT_EQ(engine.report().completed, 200u);
  EXPECT_EQ(servers.size(), 1u);
}

TEST(ServeEngine, RaisingTopLimitWakesAParkedWorker) {
  // The parked worker must wake on set_capacity's notification: A holds
  // the only permit until after the bounded wait, so nothing else can start
  // B in time.
  stm::Stm stm{stm_with_top_limit(1)};
  util::WallClock clock;
  util::WaitGroup entered;
  std::latch release{1};
  util::WaitGroup b_started;
  b_started.add(1);
  ServeEngine engine{stm, [](util::Rng&) {}, clock, deep_queue(2, 16)};
  ASSERT_TRUE(hold_top_permit(engine, entered, release));

  const bool b_admitted =
      engine
          .submit(
              [&stm, &b_started](util::Rng&) {
                stm.run_top([&](stm::Tx&) { b_started.done(); });
              },
              {})
          .admitted;
  stm.set_top_limit(2);
  const bool started = b_admitted && b_started.wait_for(2s);

  release.count_down();
  engine.drain_and_stop();
  EXPECT_TRUE(started);
  EXPECT_EQ(engine.report().completed, 2u);
}

TEST(ServeEngine, DrainAndStopJoinsParkedWorkers) {
  // t=1 with 4 workers: three stay parked for the whole run, and shutdown
  // must still join them once the one serving worker drains the backlog.
  stm::Stm stm{stm_with_top_limit(1)};
  util::WallClock clock;
  auto workload = make_servable_workload("array", stm);
  util::WaitGroup entered;
  std::latch release{1};
  ServeEngine engine{stm, workload.handler, clock, deep_queue(4, 512)};
  ASSERT_TRUE(hold_top_permit(engine, entered, release));
  submit_admitted(engine, 499);
  const std::size_t backlog = engine.report().queue_depth;

  release.count_down();
  engine.drain_and_stop();
  EXPECT_EQ(backlog, 499u);
  const ServeReport report = engine.report();
  EXPECT_EQ(report.offered, 500u);
  EXPECT_EQ(report.admitted, 500u);
  EXPECT_EQ(report.offered, report.admitted + report.shed);
  EXPECT_EQ(report.completed, 500u);
  EXPECT_EQ(report.admitted,
            report.completed + report.expired + report.failed);
  EXPECT_EQ(report.queue_depth, 0u);
  EXPECT_TRUE(workload.verify());
}
}  // namespace
}  // namespace autopn::serve
