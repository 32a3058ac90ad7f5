#include "stm/stm.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "stm/exceptions.hpp"
#include "util/rng.hpp"

namespace autopn::stm {

namespace {

/// Thread-ambient give-up predicate; see ScopedDeadline.
thread_local const std::function<bool()>* ambient_deadline = nullptr;

/// RAII share of the normal commit phase. Construction waits out any
/// announced escalation (rare path: yield/sleep); the share is held across
/// one attempt's body + commit and dropped before any backoff sleep, so a
/// retrier never blocks an escalator while sleeping.
class NormalPhaseShare {
 public:
  explicit NormalPhaseShare(std::atomic<int>& normal_phase,
                           std::atomic<int>& escalated_waiting)
      : normal_phase_(normal_phase) {
    using namespace std::chrono_literals;
    for (;;) {
      // seq_cst: ordered against the announce
      normal_phase_.fetch_add(1, std::memory_order_seq_cst);
      if (escalated_waiting.load(std::memory_order_seq_cst) == 0) return;
      // An escalated attempt is draining the phase; step aside until it has
      // finished (it holds exclusivity only briefly — one serialized tx).
      normal_phase_.fetch_sub(1, std::memory_order_seq_cst);
      std::this_thread::sleep_for(20us);
    }
  }
  ~NormalPhaseShare() { normal_phase_.fetch_sub(1, std::memory_order_seq_cst); }

  NormalPhaseShare(const NormalPhaseShare&) = delete;
  NormalPhaseShare& operator=(const NormalPhaseShare&) = delete;

 private:
  std::atomic<int>& normal_phase_;
};

bool give_up_expired(const std::function<bool()>* give_up) {
  if (give_up != nullptr && *give_up) return (*give_up)();
  return ScopedDeadline::expired_now();
}

}  // namespace

// ---- ScopedDeadline --------------------------------------------------------

ScopedDeadline::ScopedDeadline(std::function<bool()> expired)
    : expired_(std::move(expired)), previous_(ambient_deadline) {
  ambient_deadline = expired_ ? &expired_ : nullptr;
}

ScopedDeadline::~ScopedDeadline() { ambient_deadline = previous_; }

bool ScopedDeadline::expired_now() {
  return ambient_deadline != nullptr && (*ambient_deadline)();
}

// ---- backoff ---------------------------------------------------------------

std::chrono::microseconds backoff_delay(unsigned attempt,
                                        util::Rng& rng) noexcept {
  const unsigned capped = std::min(attempt, kBackoffCapAttempt);
  const auto ceiling = kBackoffBase * (1u << capped);
  // Multiplicative jitter in [0.5, 1.0): colliding transactions that aborted
  // together spread over half the ceiling instead of retrying in lockstep.
  return std::chrono::duration_cast<std::chrono::microseconds>(
      ceiling * rng.uniform(0.5, 1.0));
}

// ---- Stm -------------------------------------------------------------------

Stm::Stm(StmConfig config)
    : config_(config),
      snapshots_(clock_, config.snapshot_slots),
      commit_manager_(clock_, snapshots_, profiler_),
      top_gate_(std::max<std::size_t>(1, config.initial_top)),
      child_limit_(std::max<std::size_t>(1, config.initial_children)),
      pool_(std::max<std::size_t>(1, config.pool_threads)) {}

Stm::~Stm() = default;

void Stm::run_top(const std::function<void(Tx&)>& body,
                  const RunOptions& options) {
  util::SemaphoreGuard top_permit{top_gate_};
  const unsigned budget =
      options.retry_budget != 0 ? options.retry_budget : config_.retry_budget;
  const std::function<bool()>* give_up =
      options.give_up ? &options.give_up : nullptr;
  unsigned attempt = 0;
  for (;;) {
    if (budget != 0 && attempt >= budget) {
      // Retry budget exhausted: this transaction is starving. Run the next
      // attempt serialized against every other commit — guaranteed to
      // validate, so it finishes.
      run_top_escalated(body, give_up);
      return;
    }
    std::optional<NormalPhaseShare> phase;
    phase.emplace(normal_phase_, escalated_waiting_);
    SnapshotRegistry::Handle snapshot = snapshots_.acquire();
    Tx root{*this, nullptr, snapshot.snapshot(),
            child_limit_.load(std::memory_order_relaxed)};
    try {
      body(root);
      root.commit_top_level();
    } catch (const ConflictError& conflict) {
      stats_.bump_top_abort(conflict.kind());
      // Release the snapshot registration and the phase share before
      // sleeping: the registry gates version pruning, and a pending
      // escalation must never wait on a retrier's backoff.
      snapshot.release();
      phase.reset();
      if (give_up_expired(give_up)) throw DeadlineExceeded{};
      backoff(attempt++);
      continue;
    }
    stats_.bump_top_commit();
    notify_commit();
    return;
  }
}

void Stm::run_top_escalated(const std::function<void(Tx&)>& body,
                            const std::function<bool()>* give_up) {
  using namespace std::chrono_literals;
  std::scoped_lock serialize{escalation_mutex_};
  // seq_cst announce (Dekker, see header)
  escalated_waiting_.fetch_add(1, std::memory_order_seq_cst);
  struct Withdraw {
    std::atomic<int>& waiting;
    ~Withdraw() { waiting.fetch_sub(1, std::memory_order_seq_cst); }
  } withdraw{escalated_waiting_};
  // Drain in-flight normal attempts; new ones step aside once they observe
  // the announcement, so this wait is bounded by one attempt's duration.
  while (normal_phase_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::sleep_for(20us);

  stats_.bump_top_escalation();
  for (;;) {
    SnapshotRegistry::Handle snapshot = snapshots_.acquire();
    Tx root{*this, nullptr, snapshot.snapshot(),
            child_limit_.load(std::memory_order_relaxed)};
    root.escalated_ = true;
    try {
      body(root);
      root.commit_top_level();
    } catch (const ConflictError& conflict) {
      // Under exclusivity validation cannot fail; only an explicit user
      // retry() (or a child-level conflict surfacing through the body)
      // lands here. Keep the exclusive slot and retry serialized.
      stats_.bump_top_abort(conflict.kind());
      snapshot.release();
      if (give_up_expired(give_up)) throw DeadlineExceeded{};
      continue;
    }
    break;
  }
  stats_.bump_top_commit();
  notify_commit();
}

void Stm::run_read_only_impl(const std::function<void(Tx&)>& body) {
  util::SemaphoreGuard top_permit{top_gate_};
  SnapshotRegistry::Handle snapshot = snapshots_.acquire();
  Tx root{*this, nullptr, snapshot.snapshot(),
          child_limit_.load(std::memory_order_relaxed)};
  root.read_only_ = true;
  body(root);  // snapshot reads cannot conflict: no retry loop, no validation
  stats_.bump_top_commit();
  notify_commit();
}

void Stm::notify_commit() {
  if (!has_commit_cb_.load(std::memory_order_acquire)) return;
  // seq_cst RMW: orders against set_commit_callback's nullptr store, so a
  // committer that increments after the removal necessarily reloads null
  // below, and one that loaded a live callback is visible to the remover's
  // quiescence spin.
  commit_cb_inflight_.fetch_add(1, std::memory_order_seq_cst);
  if (const auto* cb = commit_cb_.load(std::memory_order_seq_cst); cb && *cb)
    (*cb)();
  commit_cb_inflight_.fetch_sub(1, std::memory_order_seq_cst);
}

void Stm::set_top_limit(std::size_t t) {
  top_gate_.set_capacity(std::max<std::size_t>(1, t));
}

void Stm::set_child_limit(std::size_t c) {
  child_limit_.store(std::max<std::size_t>(1, c), std::memory_order_relaxed);
}

void Stm::set_commit_callback(std::shared_ptr<const std::function<void()>> cb) {
  // Retire whatever is currently installed first: committers that already
  // loaded the raw pointer may still be inside the callback, so quiesce
  // before dropping the owning reference. Only then install the replacement
  // (pointer before flag, so a committer that observes the flag always finds
  // it). A commit racing with installation may miss one notification; the
  // monitor's windows tolerate that.
  has_commit_cb_.store(false, std::memory_order_seq_cst);
  commit_cb_.store(nullptr, std::memory_order_seq_cst);
  while (commit_cb_inflight_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  commit_cb_owner_ = std::move(cb);
  if (commit_cb_owner_) {
    commit_cb_.store(commit_cb_owner_.get(), std::memory_order_seq_cst);
    has_commit_cb_.store(true, std::memory_order_release);
  }
}

void Stm::backoff(unsigned attempt) {
  thread_local util::Rng rng{0x5bd1e995u ^
                             std::hash<std::thread::id>{}(std::this_thread::get_id())};
  std::this_thread::sleep_for(backoff_delay(attempt, rng));
}

}  // namespace autopn::stm
