#include "serve/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "stm/exceptions.hpp"
#include "util/failpoint.hpp"

namespace autopn::serve {

ServeEngine::ServeEngine(stm::Stm& stm, RequestHandler default_handler,
                         const util::Clock& clock, ServeConfig config)
    : stm_(&stm),
      default_handler_(std::move(default_handler)),
      clock_(&clock),
      config_(config),
      queue_(config.queue_capacity, config.shed_watermark) {
  kpi_.mark_start(clock_->now());
  const std::size_t workers = std::max<std::size_t>(config_.workers, 1);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this, i](std::stop_token stop) { worker_loop(i, stop); });
  }
}

ServeEngine::~ServeEngine() { drain_and_stop(); }

SubmitResult ServeEngine::submit(RequestHandler work, CompletionFn on_complete,
                                 std::uint16_t tenant_id,
                                 double timeout_seconds) {
  Request request;
  request.work = std::move(work);
  request.on_complete = std::move(on_complete);
  request.tenant_id = tenant_id;
  request.enqueue_time = clock_->now();
  double timeout = config_.request_timeout;
  if (timeout_seconds > 0.0 && (timeout <= 0.0 || timeout_seconds < timeout)) {
    timeout = timeout_seconds;
  }
  if (timeout > 0.0) {
    request.deadline = request.enqueue_time + timeout;
  }
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const RequestQueue::Admit admit = queue_.try_push(std::move(request));

  SubmitResult result;
  result.queue_depth = queue_.depth();
  result.admitted = admit == RequestQueue::Admit::kAdmitted;
  if (!result.admitted) result.retry_after = retry_after_hint(result.queue_depth);
  return result;
}

double ServeEngine::retry_after_hint(std::size_t depth) const {
  // Backlog that must drain before admission reopens, served at the engine's
  // observed completion rate. The rate estimate is trusted only after enough
  // completions: right after start (or during a stall) a handful of commits
  // over a long elapsed time yields a near-zero rate whose excess/rate hint
  // explodes, and a burst over a tiny elapsed time yields a huge rate whose
  // hint collapses to ~0 and invites a thundering-herd resubmit. Until then,
  // fall back to a nominal 10 ms per excess request; either way the hint is
  // clamped to [1 ms, 5 s].
  constexpr std::uint64_t kMinCompletionsForRate = 8;
  constexpr double kFallbackSecondsPerRequest = 0.010;
  constexpr double kMinHint = 0.001;
  constexpr double kMaxHint = 5.0;
  const double excess = std::max(
      static_cast<double>(depth) - static_cast<double>(queue_.watermark()) + 1.0,
      1.0);
  const double rate = kpi_.completion_rate(clock_->now());
  const bool rate_trustworthy =
      kpi_.completed() >= kMinCompletionsForRate && rate > 0.0;
  const double hint = rate_trustworthy ? excess / rate
                                       : kFallbackSecondsPerRequest * excess;
  return std::clamp(hint, kMinHint, kMaxHint);
}

void ServeEngine::worker_loop(std::size_t index,
                              const std::stop_token& stop) {
  util::Rng rng{config_.seed + 0x9e3779b9ULL * (index + 1)};
  for (;;) {
    // Worker i serves only while i < t: a surplus worker parks before it
    // takes a request, so waiting requests stay queued instead of on a
    // worker asleep at the top gate. drain_and_stop's join requests stop,
    // which releases a parked worker to the (by then closed) queue.
    stm_->wait_top_limit_above(index, stop);
    auto request = queue_.pop();
    if (!request) break;
    // Chaos hook (delay mode): stall the worker between dequeue and
    // execution — queued deadlines keep ticking, driving requests expired.
    AUTOPN_FAILPOINT("serve.worker.begin");
    // Stage stamp: everything before this point is queue wait (an injected
    // pre-execution stall counts as wait — it delays service, it is not
    // service), everything after is execution.
    const double dequeued = clock_->now();
    const double deadline = request->deadline;
    RequestResult result;
    result.tenant_id = request->tenant_id;
    if (deadline > 0.0 && clock_->now() >= deadline) {
      // Expired while queued: never execute it (running doomed work only
      // steals service capacity from requests that can still make it).
      expired_.add(1);
      result.outcome = RequestOutcome::kExpired;
      result.latency = clock_->now() - request->enqueue_time;
      if (request->on_complete) request->on_complete(result);
      continue;
    }
    RequestOutcome outcome = RequestOutcome::kCompleted;
    try {
      // Propagate the deadline into every Stm::run_top retry loop the
      // handler enters on this thread; an expired predicate surfaces here as
      // DeadlineExceeded between attempts.
      stm::ScopedDeadline scoped{
          deadline > 0.0 ? std::function<bool()>{[this, deadline] {
            return clock_->now() >= deadline;
          }}
                         : std::function<bool()>{}};
      // Chaos hook: make the handler itself throw.
      AUTOPN_FAILPOINT("serve.worker.fail",
                       throw std::runtime_error{"injected handler failure"});
      if (request->work) {
        request->work(rng);
      } else {
        default_handler_(rng);
      }
    } catch (const stm::DeadlineExceeded&) {
      outcome = RequestOutcome::kExpired;
      expired_.add(1);
    } catch (...) {
      // A failing handler must not take down the engine; the request counts
      // as failed and contributes no latency sample.
      outcome = RequestOutcome::kFailed;
      failed_.add(1);
    }
    result.outcome = outcome;
    const double finished = clock_->now();
    result.latency = finished - request->enqueue_time;
    if (outcome == RequestOutcome::kCompleted) {
      kpi_.record(result.latency, request->tenant_id);
      kpi_.record_stages(dequeued - request->enqueue_time, finished - dequeued);
    }
    if (request->on_complete) request->on_complete(result);
  }
}

void ServeEngine::drain_and_stop() {
  std::scoped_lock lock{stop_mutex_};
  if (workers_.empty()) return;
  queue_.close();
  workers_.clear();  // joins; workers exit once the backlog is drained
}

ServeReport ServeEngine::report() const {
  ServeReport r;
  r.offered = queue_.offered();
  r.admitted = queue_.admitted();
  r.shed = queue_.shed();
  r.completed = kpi_.completed();
  r.expired = expired_.load();
  r.failed = failed_.load();
  r.queue_depth = queue_.depth();
  r.shed_fraction =
      r.offered > 0 ? static_cast<double>(r.shed) / static_cast<double>(r.offered)
                    : 0.0;
  r.retry_after_hint = retry_after_hint(r.queue_depth);
  r.latency = kpi_.latency_summary();
  r.queue_wait = kpi_.queue_wait_summary();
  r.service = kpi_.service_summary();
  for (std::size_t slot = 0; slot < ServiceKpiSource::kTenantSlots; ++slot) {
    auto summary = kpi_.tenant_summary(slot);
    if (summary.count == 0) continue;
    r.tenants.push_back({static_cast<std::uint16_t>(slot), summary});
  }
  return r;
}

}  // namespace autopn::serve
