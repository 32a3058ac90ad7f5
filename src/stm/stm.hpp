#pragma once
// The PN-STM runtime, composed from independently testable components: a
// global version clock, a CommitManager (the commit serialization point), a
// lock-free SnapshotRegistry (active snapshots for version pruning), sharded
// StmStats/ContentionProfiler (statistics and hotspot profiling), the shared
// nested-transaction thread pool (set P of paper §III-A), and the actuator
// gates bounding top-level (t) and per-tree nested (c) concurrency.
//
// This is the C++ counterpart of JVSTM, with a global-lock commit in place of
// JVSTM's lock-free one (DESIGN.md §9.5), extended with the paper's actuator
// hooks: begin/commit of top-level transactions pass through a resizable
// semaphore of capacity t; children run help-first within a per-tree budget
// of c threads (sized per top-level attempt from the current setting, so
// reconfigurations drain naturally and never interrupt running transactions).
//
// Stm itself owns no serialization state: commit ordering lives in the
// CommitManager (whose mutex is also the starvation-escalation path),
// snapshot tracking in the SnapshotRegistry, and statistics in sharded
// per-thread counters, so nothing here globally serializes run_top beyond
// the actuator's own t-gate.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stop_token>
#include <utility>
#include <vector>

#include "stm/commit_manager.hpp"
#include "stm/snapshot_registry.hpp"
#include "stm/stats.hpp"
#include "stm/tx.hpp"
#include "util/function_ref.hpp"
#include "util/semaphore.hpp"
#include "util/thread_pool.hpp"

namespace autopn::util {
class Rng;
}  // namespace autopn::util

namespace autopn::stm {

/// Construction-time parameters of the runtime.
struct StmConfig {
  /// n: total cores of the (possibly simulated) machine; bounds t*c in the
  /// admissible configuration space but is not enforced by the runtime
  /// itself — enforcing it is the optimizer's job.
  std::size_t max_cores = 48;
  /// |P|: worker threads shared by all nested transactions.
  std::size_t pool_threads = 4;
  /// Initial actuator settings (t, c).
  std::size_t initial_top = 1;
  std::size_t initial_children = 1;
  /// Slots in the lock-free active-snapshot registry; transactions beyond
  /// this many simultaneously active fall back to a mutex-protected overflow
  /// path (see SnapshotRegistry).
  std::size_t snapshot_slots = SnapshotRegistry::kDefaultSlots;
  /// Self-healing guardrail: conflict-aborts a top-level transaction may
  /// suffer before its next attempt runs escalated — holding the commit
  /// mutex from before its snapshot through its install, so validation
  /// cannot fail and the starved transaction is guaranteed to finish. 0
  /// disables escalation (retry forever).
  unsigned retry_budget = 16;
};

/// Installs a thread-ambient give-up predicate consulted by every
/// Stm::run_top retry loop on this thread while the scope is alive — how the
/// serving layer propagates a request's deadline into transaction retry
/// loops without threading options through handler signatures. Scopes nest;
/// the innermost wins and the previous predicate is restored on destruction.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(std::function<bool()> expired);
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

  /// The calling thread's current predicate result (false when none).
  [[nodiscard]] static bool expired_now();

 private:
  std::function<bool()> expired_;
  const std::function<bool()>* previous_;
};

/// Backoff schedule between top-level retry attempts: exponential in the
/// attempt number with the growth capped (kBackoffCapAttempt doublings of
/// kBackoffBase) and multiplicative per-call jitter in [0.5, 1.0) so
/// colliding transactions do not retry in lockstep. Pure — unit-testable.
inline constexpr std::chrono::microseconds kBackoffBase{20};
inline constexpr unsigned kBackoffCapAttempt = 6;
[[nodiscard]] std::chrono::microseconds backoff_delay(unsigned attempt,
                                                      util::Rng& rng) noexcept;

class Stm {
 public:
  explicit Stm(StmConfig config);
  ~Stm();

  Stm(const Stm&) = delete;
  Stm& operator=(const Stm&) = delete;

  /// Executes `body` as a top-level transaction, retrying on conflicts with
  /// capped+jittered backoff. After the retry budget is exhausted the next
  /// attempt runs escalated: it holds the commit mutex from before its
  /// snapshot through its install, so no commit lands in between and a
  /// starved transaction is guaranteed to finish; other writers keep running
  /// their bodies and wait only at commit. Blocks at the actuator's t-gate
  /// while the configured number of concurrent top-level transactions is
  /// reached. User exceptions abort the transaction and propagate; an
  /// expired ambient ScopedDeadline throws DeadlineExceeded between
  /// attempts. `body` is borrowed for the call, not copied.
  void run_top(util::FunctionRef<void(Tx&)> body);

  /// Convenience wrapper returning a value computed inside the transaction.
  /// T needs no default constructor; the result of the committed attempt is
  /// moved out (earlier aborted attempts overwrite theirs).
  template <typename T>
  [[nodiscard]] T run_top_returning(util::FunctionRef<T(Tx&)> body) {
    std::optional<T> result;
    run_top([&](Tx& tx) { result.emplace(body(tx)); });
    return std::move(*result);
  }

  /// Read-only transaction fast path: in a multi-version STM a snapshot read
  /// can never conflict, so there is no retry loop and no commit validation.
  /// The body MUST NOT write (enforced: a write throws std::logic_error).
  template <typename T>
  [[nodiscard]] T read_only(util::FunctionRef<T(Tx&)> body) {
    std::optional<T> result;
    run_read_only_impl([&](Tx& tx) { result.emplace(body(tx)); });
    return std::move(*result);
  }

  // ---- actuator interface ---------------------------------------------

  /// Sets the maximum number of concurrent top-level transactions (t >= 1).
  void set_top_limit(std::size_t t);
  /// Sets the maximum number of concurrent nested transactions per tree
  /// (c >= 1); applies to trees started after the call.
  void set_child_limit(std::size_t c);
  /// Lock-free.
  [[nodiscard]] std::size_t top_limit() const { return top_gate_.capacity(); }
  /// Blocks until top_limit() > n or `stop` is requested; returns at once
  /// when it already holds. A pool of more than t threads parks thread n
  /// here before taking work, so that only the first t threads serve and
  /// none sleeps on the top gate holding a request.
  void wait_top_limit_above(std::size_t n, const std::stop_token& stop) {
    top_gate_.wait_capacity_above(n, stop);
  }
  [[nodiscard]] std::size_t child_limit() const {
    return child_limit_.load(std::memory_order_relaxed);
  }

  // ---- monitoring interface -------------------------------------------

  /// Installs a callback invoked after every successful top-level commit
  /// (outside the commit serialization). Pass nullptr to remove. The KPI
  /// monitor uses this to timestamp commit events (paper §VI).
  /// Removal quiesces: when the call returns, no invocation of the previous
  /// callback is still running, so the caller may destroy state the
  /// callback captured (the controller's condition variable, for one).
  void set_commit_callback(std::shared_ptr<const std::function<void()>> cb);

  [[nodiscard]] StmStatsSnapshot stats() const { return stats_.snapshot(); }
  void reset_stats() { stats_.reset(); }

  // ---- contention profiling -------------------------------------------

  using Hotspot = ContentionProfiler::Hotspot;

  /// Enables/disables recording of which box failed validation on each
  /// top-level abort (off by default; the check is one relaxed atomic load
  /// on the abort path only).
  void set_contention_profiling(bool enabled) {
    profiler_.set_enabled(enabled);
  }
  [[nodiscard]] bool contention_profiling() const {
    return profiler_.enabled();
  }

  /// The `top_n` most conflict-prone boxes observed since profiling was
  /// enabled (descending).
  [[nodiscard]] std::vector<Hotspot> contention_hotspots(
      std::size_t top_n = 10) const {
    return profiler_.hotspots(top_n);
  }
  void reset_contention_profile() { profiler_.reset(); }

  // ---- component access -----------------------------------------------

  /// Current global version clock value.
  [[nodiscard]] std::uint64_t clock() const {
    return clock_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const StmConfig& config() const noexcept { return config_; }
  [[nodiscard]] util::ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] CommitManager& commit_manager() noexcept {
    return commit_manager_;
  }
  [[nodiscard]] SnapshotRegistry& snapshots() noexcept { return snapshots_; }
  [[nodiscard]] StmStats& counters() noexcept { return stats_; }
  [[nodiscard]] ContentionProfiler& profiler() noexcept { return profiler_; }

 private:
  friend class Tx;

  /// Exponential backoff with jitter between transaction retries
  /// (backoff_delay applied to a per-thread Rng).
  void backoff(unsigned attempt);

  /// Non-template body of read_only().
  void run_read_only_impl(util::FunctionRef<void(Tx&)> body);

  /// Fires the commit callback if one is installed. The common no-callback
  /// case is a single acquire load of a plain bool; the callback pointer
  /// itself is a raw-pointer atomic (atomic<shared_ptr> is lock-based on
  /// libstdc++ and opaque to TSan), with ownership pinned in
  /// commit_cb_owner_ until set_commit_callback quiesces in-flight callers.
  void notify_commit();

  StmConfig config_;
  sync::Atomic<std::uint64_t> clock_{0};
  SnapshotRegistry snapshots_;
  StmStats stats_;
  ContentionProfiler profiler_;
  CommitManager commit_manager_;

  util::ResizableSemaphore top_gate_;
  std::atomic<std::size_t> child_limit_;
  util::ThreadPool pool_;

  std::atomic<bool> has_commit_cb_{false};
  std::atomic<const std::function<void()>*> commit_cb_{nullptr};
  std::atomic<int> commit_cb_inflight_{0};
  /// Keeps the installed callback alive while committers may hold the raw
  /// pointer. Written only by set_commit_callback (single installer — the
  /// tuning controller), after quiescing the previous callback.
  std::shared_ptr<const std::function<void()>> commit_cb_owner_;
};

}  // namespace autopn::stm
