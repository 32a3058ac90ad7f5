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

void Stm::run_top(util::FunctionRef<void(Tx&)> body) {
  util::SemaphoreGuard top_permit{top_gate_};
  const unsigned budget = config_.retry_budget;
  // Engaged once the retry budget is exhausted: the commit mutex, held from
  // before the snapshot through the install, so no commit can land between
  // them and the starving transaction's validation cannot fail.
  std::optional<CommitManager::Exclusive> exclusive;
  for (unsigned attempt = 0;; ++attempt) {
    if (budget != 0 && attempt >= budget && !exclusive) {
      exclusive.emplace(commit_manager_.lock_exclusive());
      stats_.bump_top_escalation();
    }
    SnapshotRegistry::Handle snapshot = snapshots_.acquire();
    Tx root{*this, nullptr, snapshot.snapshot(),
            child_limit_.load(std::memory_order_relaxed)};
    root.escalated_ = exclusive.has_value();
    try {
      body(root);
      root.commit_top_level(exclusive ? &*exclusive : nullptr);
    } catch (const ConflictError& conflict) {
      stats_.bump_top_abort(conflict.kind());
      // Release the snapshot registration before sleeping: the registry
      // gates version pruning.
      snapshot.release();
      if (ScopedDeadline::expired_now()) throw DeadlineExceeded{};
      // An escalated attempt aborts only on an explicit retry() or a child
      // conflict surfacing through its body; it keeps the mutex and retries
      // at once.
      if (!exclusive) backoff(attempt);
      continue;
    }
    break;
  }
  exclusive.reset();  // the callback runs outside the commit serialization
  stats_.bump_top_commit();
  notify_commit();
}

void Stm::run_read_only_impl(util::FunctionRef<void(Tx&)> body) {
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
