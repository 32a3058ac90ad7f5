// autopn_e2e: one workload of the end-to-end benchmark, run in this process.
//
// The program builds the serving stack of one named workload from public APIs
// only (ServeEngine::submit, net::Client, net::NetServer, router::Router,
// TuningController::tune_and_watch, the opt::Optimizer interface,
// Stm::run_top / read_only / Tx::run_children and the report structs),
// offers it load from this process, and measures every layer from the
// outside: by timing those calls and by reading those reports.
//
// Load comes from one generator thread, plus one receiver thread per wire
// connection. An open-loop request is timed from the moment it was *due*, not
// from when it was sent, so a stall of the generator or of the system counts
// against every request queued behind it; how late the generator ran is
// reported (and checked) separately. Client latencies are exact samples.
//
// Serving workloads run three phases: warm-up (open loop, unmeasured), open
// loop (latency) and closed loop (capacity). autotune-shift runs one closed
// loop while the AutoPN controller tunes (t, c) live and the workload
// switches between TPC-C and Vacation at fixed intervals.
//
// Output: one JSON object per workload on stdout with the raw per-process
// measurements; run.py aggregates processes into the benchmark's metrics.
// With --trace 1 the program also records spans at each layer boundary (kept
// in memory, written as Chrome trace-event JSON at exit) and reports the
// per-layer numbers. The exit code is nonzero when any check fails.
//
// Usage: autopn_e2e --workload NAME|all --seed N [--warmup S] [--open S]
//                   [--closed S] [--duration S] [--trace 0|1]
//                   [--trace-out FILE] [--setup-only] [--smoke]

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/dispatcher.hpp"
#include "net/server.hpp"
#include "opt/autopn_optimizer.hpp"
#include "opt/config_space.hpp"
#include "router/router.hpp"
#include "runtime/controller.hpp"
#include "runtime/monitor.hpp"
#include "serve/engine.hpp"
#include "serve/handlers.hpp"
#include "stm/stm.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "workloads/vacation.hpp"

namespace {

using namespace autopn;

// ---- time ---------------------------------------------------------------------

/// Process-wide time origin, first touched at the top of main(): every
/// timestamp here, and the engines' own stamps, is seconds since then.
const util::WallClock& process_clock() {
  static const util::WallClock clock;
  return clock;
}

double now() { return process_clock().now(); }

/// Sleeps until `when`. The generator sleeps rather than spins: on a small
/// VM a spinning generator takes a vCPU from the system under test and makes
/// the latency of whole processes flip between two modes, depending on
/// where the scheduler puts the threads. Its wake-up delay is measured as
/// lateness.
void wait_until(double when) {
  const double remaining = when - now();
  if (remaining > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
  }
}

/// Runs the calling load thread (the generator, a wire receiver) at
/// real-time priority for the scope's lifetime, when the platform allows it.
/// The load must keep its schedule rather than queue for a vCPU behind the
/// workers it drives; that wait would pad every measured latency. Threads
/// created meanwhile would inherit the policy, so open the scope only after
/// the stack's threads exist.
class RealtimeScope {
 public:
  RealtimeScope() {
    sched_param param{};
    param.sched_priority = 1;
    ok_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
  }
  ~RealtimeScope() {
    if (!ok_) return;
    sched_param param{};
    pthread_setschedparam(pthread_self(), SCHED_OTHER, &param);
  }
  RealtimeScope(const RealtimeScope&) = delete;
  RealtimeScope& operator=(const RealtimeScope&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

// ---- statistics -----------------------------------------------------------------

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Exact nearest-rank quantile; 0 for an empty set.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Minimal JSON object writer; numbers keep all their digits.
class Json {
 public:
  Json& num(const std::string& key, double value) {
    return raw(key, number(std::isfinite(value) ? value : 0.0));
  }
  Json& nums(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i > 0 ? "," : "") + number(values[i]);
    }
    return raw(key, out + "]");
  }
  Json& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char ch : value) {
      if (ch == '"' || ch == '\\') quoted += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) quoted += ch;
    }
    return raw(key, quoted + "\"");
  }
  Json& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string number(double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
  }

  std::string body_;
};

/// Per-layer metrics of one process, grouped by the `src/` module (or
/// benchmark part) they measure; run.py names each "<layer>.<metric>".
class Layers {
 public:
  Json& operator[](const std::string& layer) { return groups_[layer]; }
  [[nodiscard]] std::string text() const {
    Json out;
    for (const auto& [layer, metrics] : groups_) out.raw(layer, metrics.text());
    return out.text();
  }

 private:
  std::map<std::string, Json> groups_;
};

// ---- tracing --------------------------------------------------------------------

/// In-memory span recorder, on only in --trace runs. Each thread appends to
/// its own buffer (registered once under the mutex), so recording a span is
/// a vector push. Spans are read only after every recording thread stopped
/// or joined. Names are string literals.
class Tracer {
 public:
  struct Span {
    const char* layer;  ///< the src/ module whose call the span times
    const char* name;
    double start;
    double end;
  };

  void enable() { enabled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }

  void span(const char* layer, const char* name, double start, double end) {
    if (enabled()) local().push_back({layer, name, start, end});
  }

  /// A counter snapshot (Chrome "C" event), taken at phase boundaries.
  void counter(const char* name, double at,
               std::vector<std::pair<std::string, double>> values) {
    if (!enabled()) return;
    std::scoped_lock lock{mutex_};
    counters_.push_back({name, at, std::move(values)});
  }

  /// Durations (seconds) of every `layer`/`name` span that started in
  /// [from, to).
  [[nodiscard]] std::vector<double> durations(const std::string& layer,
                                              const std::string& name, double from,
                                              double to) const {
    std::vector<double> out;
    std::scoped_lock lock{mutex_};
    for (const auto& spans : buffers_) {
      for (const Span& s : *spans) {
        if (s.start >= from && s.start < to && layer == s.layer && name == s.name) {
          out.push_back(s.end - s.start);
        }
      }
    }
    return out;
  }

  /// Writes Chrome trace-event JSON (load it in chrome://tracing or
  /// Perfetto). Only every `sample_every`-th span of a thread is written,
  /// which bounds the file; metrics are computed from all spans.
  void write_chrome_json(const std::string& path, std::size_t sample_every) const {
    std::ofstream out{path};
    out << "{\"traceEvents\":[";
    const char* sep = "";
    std::scoped_lock lock{mutex_};
    for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
      const auto& spans = *buffers_[tid];
      for (std::size_t i = 0; i < spans.size(); i += sample_every) {
        out << sep << "\n{\"cat\":\"" << spans[i].layer << "\",\"name\":\""
            << spans[i].layer << '.' << spans[i].name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
            << ",\"ts\":" << spans[i].start * 1e6
            << ",\"dur\":" << (spans[i].end - spans[i].start) * 1e6 << "}";
        sep = ",";
      }
    }
    for (const Counter& c : counters_) {
      Json args;
      for (const auto& [key, value] : c.values) args.num(key, value);
      out << sep << "\n{\"name\":\"" << c.name << "\",\"ph\":\"C\",\"pid\":1,\"ts\":"
          << c.at * 1e6 << ",\"args\":" << args.text() << "}";
      sep = ",";
    }
    out << "]}\n";
  }

 private:
  struct Counter {
    const char* name;
    double at;
    std::vector<std::pair<std::string, double>> values;
  };

  std::vector<Span>& local() {
    thread_local std::vector<Span>* spans = nullptr;
    if (spans == nullptr) {
      std::scoped_lock lock{mutex_};
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      spans = buffers_.back().get();
    }
    return *spans;
  }

  std::atomic<bool> enabled_{false};  ///< set in main() before other threads
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_ AUTOPN_GUARDED_BY(mutex_);
  std::vector<Counter> counters_ AUTOPN_GUARDED_BY(mutex_);
};

Tracer g_tracer;

/// Times every handler call as a workloads/handler span (trace runs only).
serve::RequestHandler traced(serve::RequestHandler inner) {
  if (!g_tracer.enabled()) return inner;
  return [inner = std::move(inner)](util::Rng& rng) {
    const double start = now();
    inner(rng);
    g_tracer.span("workloads", "handler", start, now());
  };
}

void note_max(std::atomic<std::size_t>& target, std::size_t value) {
  std::size_t seen = target.load(std::memory_order_acquire);
  while (value > seen &&
         !target.compare_exchange_weak(seen, value, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
  }
}

// ---- requests -------------------------------------------------------------------

enum class Outcome : std::uint8_t {
  kPending,
  kOk,
  kShed,
  kExpired,
  kFailed,
  kRejected,
  kUnanswered,
  kIoError,
};

Outcome outcome_of(serve::RequestOutcome outcome) {
  switch (outcome) {
    case serve::RequestOutcome::kCompleted: return Outcome::kOk;
    case serve::RequestOutcome::kExpired: return Outcome::kExpired;
    case serve::RequestOutcome::kFailed: return Outcome::kFailed;
  }
  return Outcome::kFailed;
}

Outcome outcome_of(net::Status status) {
  switch (status) {
    case net::Status::kOk: return Outcome::kOk;
    case net::Status::kShed:
    case net::Status::kClosing: return Outcome::kShed;
    case net::Status::kExpired: return Outcome::kExpired;
    case net::Status::kFailed: return Outcome::kFailed;
    case net::Status::kRejected: return Outcome::kRejected;
  }
  return Outcome::kFailed;
}

class Phase;

/// One request. The generator writes due/sent/client/tenant before issuing
/// it; exactly one completer writes done/outcome afterwards.
struct Slot {
  Phase* phase = nullptr;
  double due = 0.0;   ///< open loop: scheduled arrival; closed: client freed
  double sent = 0.0;  ///< when the generator issued it
  double done = 0.0;
  std::uint32_t client = 0;
  std::uint16_t tenant = 0;
  Outcome outcome = Outcome::kPending;
};

/// Closed-loop clients freed by completions: (client, completion time).
class FreeClients {
 public:
  void push(std::uint32_t client, double at) {
    {
      std::scoped_lock lock{mutex_};
      free_.emplace_back(client, at);
    }
    cv_.notify_one();
  }

  std::optional<std::pair<std::uint32_t, double>> pop_until(double deadline) {
    std::unique_lock lock{mutex_};
    const std::chrono::duration<double> wait{std::max(deadline - now(), 0.0)};
    if (!cv_.wait_for(lock, wait, [&] { return !free_.empty(); })) {
      return std::nullopt;
    }
    auto front = free_.front();
    free_.pop_front();
    return front;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::uint32_t, double>> free_ AUTOPN_GUARDED_BY(mutex_);
};

/// The requests of one load phase. Slots live in a deque, whose push_back
/// never moves existing elements, so completers hold Slot references while
/// the generator keeps appending.
class Phase {
 public:
  explicit Phase(FreeClients* free_clients = nullptr) : free_(free_clients) {}

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  Slot& add(double due, std::uint32_t client, std::uint16_t tenant) {
    Slot& slot = slots_.emplace_back();
    slot.phase = this;
    slot.due = due;
    slot.client = client;
    slot.tenant = tenant;
    return slot;
  }

  /// Called exactly once per issued slot, from any thread. The count is
  /// bumped last: once wait_all() sees every slot answered, no completer
  /// touches this phase (or its FreeClients) again.
  void complete(Slot& slot, Outcome outcome) {
    const double at = now();
    slot.done = at;
    slot.outcome = outcome;
    if (free_ != nullptr) free_->push(slot.client, at);
    answered_.fetch_add(1, std::memory_order_release);
  }

  /// Waits until every issued slot completed or `timeout` passes.
  bool wait_all(double timeout) const {
    const double deadline = now() + timeout;
    while (answered_.load(std::memory_order_acquire) < slots_.size()) {
      if (now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds{200});
    }
    return true;
  }

  [[nodiscard]] std::size_t issued() const { return slots_.size(); }
  [[nodiscard]] bool closed_loop() const { return free_ != nullptr; }
  /// Read only after wait_all() succeeded or every completer stopped.
  [[nodiscard]] const std::deque<Slot>& slots() const { return slots_; }

 private:
  FreeClients* free_;
  std::deque<Slot> slots_;
  std::atomic<std::size_t> answered_{0};
};

// ---- targets: where the generator's requests go ---------------------------------

class Target {
 public:
  virtual ~Target() = default;
  /// Issues one request; its completion reaches slot.phase->complete().
  virtual void issue(Slot& slot) = 0;
};

/// Straight into ServeEngine::submit (the in-process workloads).
class EngineTarget final : public Target {
 public:
  explicit EngineTarget(serve::ServeEngine& engine) : engine_(&engine) {}

  void issue(Slot& slot) override {
    slot.sent = now();
    const serve::SubmitResult result = engine_->submit(
        {},
        [&slot](const serve::RequestResult& r) {
          slot.phase->complete(slot, outcome_of(r.outcome));
        },
        slot.tenant);
    if (g_tracer.enabled()) {
      g_tracer.span("serve", "submit", slot.sent, now());
      note_max(max_depth, result.queue_depth);
    }
    if (!result.admitted) slot.phase->complete(slot, Outcome::kShed);
  }

  std::atomic<std::size_t> max_depth{0};

 private:
  serve::ServeEngine* engine_;
};

/// Over the wire through net::Client connections. The generator thread is
/// the only sender on every connection; one receiver thread per connection
/// maps response ids back to slots.
class WireTarget final : public Target {
 public:
  WireTarget(std::uint16_t port, std::size_t connections) {
    for (std::size_t i = 0; i < connections; ++i) {
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->client = net::Client::connect("127.0.0.1", port);
    }
    for (auto& conn : conns_) {
      conn->rx = std::thread{[this, c = conn.get()] {
        const RealtimeScope realtime;
        receive(*c);
      }};
    }
  }

  ~WireTarget() override { stop(); }

  WireTarget(const WireTarget&) = delete;
  WireTarget& operator=(const WireTarget&) = delete;

  void issue(Slot& slot) override {
    Conn& conn = *conns_[slot.client % conns_.size()];
    // Held across send + insert so a fast response cannot overtake the
    // bookkeeping of its own request.
    std::scoped_lock lock{conn.flights.mutex};
    slot.sent = now();
    const auto id = conn.client.send(0, slot.tenant);
    if (!id) {
      slot.phase->complete(slot, Outcome::kIoError);
      return;
    }
    ++conn.flights.ledger.sent;
    conn.flights.slots.emplace(*id, &slot);
  }

  /// Stops the receivers; requests still in flight complete as unanswered.
  void stop() {
    stopping_.store(true, std::memory_order_release);
    for (auto& conn : conns_) {
      if (conn->rx.joinable()) conn->rx.join();
    }
    for (auto& conn : conns_) {
      std::scoped_lock lock{conn->flights.mutex};
      for (auto& [id, slot] : conn->flights.slots) {
        ++conn->flights.ledger.unanswered;
        slot->phase->complete(*slot, Outcome::kUnanswered);
      }
      conn->flights.slots.clear();
    }
  }

  /// The client side's ledger over every connection; final after stop():
  /// sent == answered + unanswered.
  struct Ledger {
    std::uint64_t sent = 0;
    std::uint64_t answered = 0;
    std::uint64_t unanswered = 0;
    std::uint64_t unknown_ids = 0;  ///< responses matching no request
  };
  [[nodiscard]] Ledger ledger() {
    Ledger total;
    for (auto& conn : conns_) {
      std::scoped_lock lock{conn->flights.mutex};
      const Ledger& l = conn->flights.ledger;
      total.sent += l.sent;
      total.answered += l.answered;
      total.unanswered += l.unanswered;
      total.unknown_ids += l.unknown_ids;
    }
    return total;
  }

 private:
  /// One connection's requests in flight and its ledger, shared by the
  /// generator (sender) and the connection's receiver.
  struct Flights {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, Slot*> slots AUTOPN_GUARDED_BY(mutex);
    Ledger ledger AUTOPN_GUARDED_BY(mutex);
  };
  struct Conn {
    net::Client client;  ///< one sender (the generator), one receiver (rx)
    Flights flights;
    std::thread rx;
  };

  void receive(Conn& conn) {
    while (!stopping_.load(std::memory_order_acquire)) {
      auto response = conn.client.recv(0.02);
      if (!response) {
        if (conn.client.closed()) return;
        continue;
      }
      Slot* slot = nullptr;
      {
        std::scoped_lock lock{conn.flights.mutex};
        auto it = conn.flights.slots.find(response->request_id);
        if (it == conn.flights.slots.end()) {
          ++conn.flights.ledger.unknown_ids;
          continue;
        }
        slot = it->second;
        conn.flights.slots.erase(it);
        ++conn.flights.ledger.answered;
      }
      slot->phase->complete(*slot, outcome_of(response->status));
    }
  }

  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<bool> stopping_{false};
};

// ---- generator ------------------------------------------------------------------

class Generator {
 public:
  Generator(Target& target, std::uint64_t seed, std::uint16_t tenants)
      : target_(&target), rng_(seed), tenants_(tenants) {}

  /// Poisson arrivals at `rate` over [start, end). Behind schedule, the
  /// generator issues at once; the lateness counts in the latency.
  void open_loop(Phase& phase, double rate, double start, double end) {
    double due = start;
    for (;;) {
      due += rng_.exponential(rate);
      if (due >= end) return;
      wait_until(due);
      target_->issue(phase.add(due, static_cast<std::uint32_t>(phase.issued()),
                               next_tenant()));
    }
  }

  /// `clients` clients, each issuing its next request as soon as the
  /// previous one completed, until `done()`. A request is due when its
  /// client became free.
  void closed_loop(Phase& phase, FreeClients& free, std::size_t clients,
                   const std::function<bool()>& done) {
    for (std::size_t c = 0; c < clients; ++c) {
      target_->issue(phase.add(now(), static_cast<std::uint32_t>(c), next_tenant()));
    }
    while (!done()) {
      const auto freed = free.pop_until(now() + 0.1);
      if (freed && !done()) {
        target_->issue(phase.add(freed->second, freed->first, next_tenant()));
      }
    }
  }

 private:
  std::uint16_t next_tenant() {
    return tenants_ > 1 ? static_cast<std::uint16_t>(rng_.uniform_index(tenants_))
                        : 0;
  }

  Target* target_;
  util::Rng rng_;
  std::uint16_t tenants_;
};

struct LatencySummary {
  /// Ok requests, seconds: from the due time in an open loop, from the send
  /// in a closed loop (which has no schedule to fall behind).
  std::vector<double> latencies;
  std::vector<double> lateness;  ///< sent − due, every request
  bool from_due = true;
};

/// Requests due in [from, to).
LatencySummary summarize(const Phase& phase, double from, double to) {
  LatencySummary s;
  s.from_due = !phase.closed_loop();
  for (const Slot& slot : phase.slots()) {
    if (slot.due < from || slot.due >= to) continue;
    s.lateness.push_back(slot.sent - slot.due);
    if (slot.outcome == Outcome::kOk) {
      s.latencies.push_back(slot.done - (s.from_due ? slot.due : slot.sent));
    }
  }
  return s;
}

/// p99 of each of `intervals` equal slices of [start, end), by due time.
std::vector<double> interval_p99s(const Phase& phase, double start, double end,
                                  std::size_t intervals) {
  std::vector<double> out;
  const double width = (end - start) / static_cast<double>(intervals);
  for (std::size_t i = 0; i < intervals; ++i) {
    const double from = start + width * static_cast<double>(i);
    auto latencies = summarize(phase, from, from + width).latencies;
    if (!latencies.empty()) out.push_back(quantile(std::move(latencies), 0.99));
  }
  return out;
}

/// Outcome tallies over every request the process issued.
struct Tally {
  std::uint64_t sent = 0;
  std::map<std::string, std::uint64_t> failures;

  void add(const Phase& phase) {
    for (const Slot& slot : phase.slots()) {
      ++sent;
      switch (slot.outcome) {
        case Outcome::kOk: break;
        case Outcome::kShed: ++failures["shed"]; break;
        case Outcome::kExpired: ++failures["expired"]; break;
        case Outcome::kFailed: ++failures["failed"]; break;
        case Outcome::kRejected: ++failures["rejected"]; break;
        case Outcome::kPending:
        case Outcome::kUnanswered: ++failures["unanswered"]; break;
        case Outcome::kIoError: ++failures["io_errors"]; break;
      }
    }
  }
  void write(Json& out) const {
    std::uint64_t failed = 0;
    Json detail;
    for (const auto& [name, count] : failures) {
      failed += count;
      detail.num(name, static_cast<double>(count));
    }
    out.num("sent", static_cast<double>(sent))
        .num("failed", static_cast<double>(failed))
        .raw("failures", detail.text());
  }
};

// ---- checks -----------------------------------------------------------------------

struct Checks {
  std::vector<std::pair<std::string, bool>> items;

  void add(const std::string& name, bool ok) {
    items.emplace_back(name, ok);
    if (!ok) std::cerr << "autopn_e2e: check failed: " << name << "\n";
  }
  [[nodiscard]] bool all_ok() const {
    return std::all_of(items.begin(), items.end(),
                       [](const auto& item) { return item.second; });
  }
  void write(Json& out) const {
    Json detail;
    for (const auto& [name, ok] : items) detail.boolean(name, ok);
    out.raw("checks", detail.text()).boolean("correct", all_ok());
  }
};

void check_serve_ledger(Checks& checks, const std::string& engine,
                        const serve::ServeReport& r) {
  checks.add(engine + " ledger: offered == admitted + shed",
             r.offered == r.admitted + r.shed);
  checks.add(engine + " ledger: admitted == completed + expired + failed",
             r.admitted == r.completed + r.expired + r.failed);
}

void check_net_ledger(Checks& checks, const std::string& server,
                      const net::NetServerReport& r) {
  checks.add(server + " ledger: decoded == enqueued",
             r.requests_decoded == r.responses_enqueued);
  checks.add(server + " ledger: enqueued == written + dropped",
             r.responses_enqueued == r.responses_written + r.responses_dropped);
}

/// The generator must have kept its schedule for the latencies to mean
/// anything; a process where it did not is reported invalid (a stall of the
/// host, not an error of the program).
constexpr double kMaxLateP99 = 2e-3;

/// Engine settings shared by every workload. The admission queue is deep
/// (shedding starts at 3072 queued requests, a quarter second of the
/// highest open-loop rate) so that a stall of the host shows up as latency
/// rather than as shed requests: the benchmark measures latency and
/// capacity, not admission control, and its workloads must not fail.
serve::ServeConfig engine_config(std::size_t workers, std::uint64_t seed) {
  serve::ServeConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 4096;
  cfg.seed = seed;
  return cfg;
}

/// Peak RSS of this process image, from VmHWM. Not getrusage(): Linux carries
/// ru_maxrss across execve(), so it would report the launching process's
/// peak whenever that is larger.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // KiB → MiB
  }
  return 0.0;
}

// ---- layer snapshots ----------------------------------------------------------------

/// Count and sum of a stage's samples: two snapshots give the mean of the
/// samples between them.
struct Agg {
  double count = 0.0;
  double sum = 0.0;

  static Agg of(const serve::LatencyRecorder::Summary& s) {
    return {static_cast<double>(s.count), s.mean * static_cast<double>(s.count)};
  }
  Agg& operator+=(const Agg& o) {
    count += o.count;
    sum += o.sum;
    return *this;
  }
  [[nodiscard]] double mean_since(const Agg& before) const {
    return ratio(sum - before.sum, count - before.count);
  }
};

/// Cumulative counters of every layer, read at a phase boundary.
struct Snapshot {
  double at = 0.0;
  stm::StmStatsSnapshot stm;
  std::vector<double> completed;  ///< per engine
  Agg queue_wait;
  Agg service;
  // Wire path (cluster only).
  Agg shard_accept;
  Agg shard_reply;
  Agg router_accept;
  Agg router_reply;
  double backpressure_pauses = 0.0;
  double router_shed_local = 0.0;

  void add_engine(const stm::Stm& s, const serve::ServeEngine& engine) {
    const stm::StmStatsSnapshot x = s.stats();
    stm.top_commits += x.top_commits;
    stm.top_aborts += x.top_aborts;
    stm.child_commits += x.child_commits;
    stm.child_aborts += x.child_aborts;
    stm.reads += x.reads;
    stm.writes += x.writes;
    stm.aborts_validation += x.aborts_validation;
    stm.aborts_sibling += x.aborts_sibling;
    stm.aborts_predicate += x.aborts_predicate;
    stm.top_escalations += x.top_escalations;
    const serve::ServeReport r = engine.report();
    completed.push_back(static_cast<double>(r.completed));
    queue_wait += Agg::of(r.queue_wait);
    service += Agg::of(r.service);
  }

  [[nodiscard]] double completed_total() const {
    double total = 0.0;
    for (double c : completed) total += c;
    return total;
  }

  /// Chrome counter event with the STM totals.
  void trace(const char* name) const {
    g_tracer.counter(name, at,
                     {{"top_commits", static_cast<double>(stm.top_commits)},
                      {"top_aborts", static_cast<double>(stm.top_aborts)},
                      {"child_commits", static_cast<double>(stm.child_commits)},
                      {"completed", completed_total()}});
  }
};

/// STM counter deltas per request (and per 1k requests).
void add_stm_layers(Layers& out, const Snapshot& from, const Snapshot& to) {
  const double requests = to.completed_total() - from.completed_total();
  auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const auto& a = from.stm;
  const auto& b = to.stm;
  out["stm"]
      .num("child_commits_per_req",
           ratio(delta(a.child_commits, b.child_commits), requests))
      .num("child_aborts_per_req", ratio(delta(a.child_aborts, b.child_aborts), requests))
      .num("top_aborts_per_commit",
           ratio(delta(a.top_aborts, b.top_aborts), delta(a.top_commits, b.top_commits)))
      .num("aborts_validation_per_1k",
           1e3 * ratio(delta(a.aborts_validation, b.aborts_validation), requests))
      .num("aborts_sibling_per_1k",
           1e3 * ratio(delta(a.aborts_sibling, b.aborts_sibling), requests))
      .num("aborts_predicate_per_1k",
           1e3 * ratio(delta(a.aborts_predicate, b.aborts_predicate), requests))
      .num("escalations_per_1k",
           1e3 * ratio(delta(a.top_escalations, b.top_escalations), requests))
      .num("reads_per_req", ratio(delta(a.reads, b.reads), requests))
      .num("writes_per_req", ratio(delta(a.writes, b.writes), requests));
}

/// Post-load probes of single STM operations on the workload's own Stm at
/// its final (t, c): the median of batch means, so clock reads stay out of
/// the nanosecond-scale results.
void add_stm_probes(Layers& out, stm::Stm& stm) {
  stm::VBox<long> box{0L};
  stm::VBox<long> left{0L};
  stm::VBox<long> right{0L};
  auto probe = [](std::size_t batches, std::size_t per_batch, const auto& op) {
    std::vector<double> means;
    for (std::size_t b = 0; b < batches; ++b) {
      const double start = now();
      for (std::size_t i = 0; i < per_batch; ++i) op();
      means.push_back((now() - start) / static_cast<double>(per_batch));
    }
    return quantile(std::move(means), 0.5);
  };
  long value = 0;
  const double commit = probe(64, 64, [&] {
    stm.run_top([&](stm::Tx& tx) { box.write(tx, ++value); });
  });
  const double read_only = probe(64, 64, [&] {
    value += stm.read_only<long>([&](stm::Tx& tx) { return box.read(tx); });
  });
  const double spawn_merge = probe(32, 8, [&] {
    stm.run_top([&](stm::Tx& tx) {
      std::vector<std::function<void(stm::Tx&)>> children;
      children.emplace_back([&](stm::Tx& child) { left.write(child, 1L); });
      children.emplace_back([&](stm::Tx& child) { right.write(child, 2L); });
      tx.run_children(std::move(children));
    });
  });
  out["stm"]
      .num("probe_commit_ns", commit * 1e9)
      .num("probe_read_only_ns", read_only * 1e9)
      .num("probe_spawn_merge_us", spawn_merge * 1e6);
}

/// Serve-layer metrics and the stack residual over [from, to]: spans for the
/// timed calls, engine reports for the stages. `queue_p99`/`service_p99`
/// come from the engines' histograms, reset at `from`.
void add_serve_layers(Layers& out, const Snapshot& from, const Snapshot& to,
                      const LatencySummary& lat, double queue_p99,
                      double service_p99, std::size_t max_depth) {
  const double submit =
      mean_of(g_tracer.durations("serve", "submit", from.at, to.at));
  const auto handler = g_tracer.durations("workloads", "handler", from.at, to.at);
  const double queue_wait = to.queue_wait.mean_since(from.queue_wait);
  const double service = to.service.mean_since(from.service);
  const double client = mean_of(lat.latencies);
  const double late = lat.from_due ? mean_of(lat.lateness) : 0.0;
  out["serve"]
      .num("submit_mean_us", submit * 1e6)
      .num("queue_wait_mean_us", queue_wait * 1e6)
      .num("queue_wait_p99_us", queue_p99 * 1e6)
      .num("max_depth", static_cast<double>(max_depth))
      .num("service_mean_us", service * 1e6)
      .num("service_p99_us", service_p99 * 1e6)
      .num("worker_overhead_us", (service - mean_of(handler)) * 1e6);
  out["workloads"]
      .num("handler_mean_us", mean_of(handler) * 1e6)
      .num("handler_p99_us", quantile(handler, 0.99) * 1e6);
  out["gen"].num("late_p99_us", quantile(lat.lateness, 0.99) * 1e6);
  out["stack"].num("residual_frac",
                   ratio(client - (late + submit + queue_wait + service), client));
}

// ---- workload stacks ----------------------------------------------------------------

/// One serving workload's stack. Constructed = set up; stop() drains it so
/// every ledger is final.
class Stack {
 public:
  virtual ~Stack() = default;
  virtual Target& target() = 0;
  [[nodiscard]] virtual std::uint16_t tenants() const = 0;
  [[nodiscard]] virtual std::size_t closed_clients() const = 0;
  [[nodiscard]] virtual Snapshot snapshot() = 0;
  /// Clears the engines' stage histograms, so their p99s cover what follows.
  virtual void reset_stage_histograms() = 0;
  /// Highest stage p99s (queue wait, service) over the engines.
  [[nodiscard]] virtual std::pair<double, double> stage_p99s() = 0;
  [[nodiscard]] virtual std::size_t max_depth() const = 0;
  virtual void stop() = 0;
  virtual void check(Checks& checks) = 0;
  virtual stm::Stm& probe_stm() = 0;
  /// Wire-path per-layer metrics; in-process stacks have none.
  virtual void add_wire_layers(Layers& /*out*/, const Snapshot& /*from*/,
                               const Snapshot& /*to*/, const LatencySummary& /*lat*/) {}
};

/// tpcc-nested and vacation-contended: an engine over one servable workload
/// on its own Stm, driven through ServeEngine::submit.
class InProcessStack final : public Stack {
 public:
  struct Shape {
    const char* workload;  ///< make_servable_workload name
    std::size_t top;
    std::size_t children;
    std::size_t workers;
    std::size_t pool;
  };

  InProcessStack(const Shape& shape, std::uint64_t seed)
      : stm_(stm_config(shape)),
        workload_(serve::make_servable_workload(shape.workload, stm_, seed)),
        engine_(stm_, traced(workload_.handler), process_clock(),
                engine_config(shape.workers, seed)),
        target_(engine_) {}

  Target& target() override { return target_; }
  [[nodiscard]] std::uint16_t tenants() const override { return 1; }
  [[nodiscard]] std::size_t closed_clients() const override { return 4; }

  Snapshot snapshot() override {
    Snapshot s;
    s.at = now();
    s.add_engine(stm_, engine_);
    return s;
  }
  void reset_stage_histograms() override {
    engine_.kpi_source().reset_latency_histogram();
  }
  std::pair<double, double> stage_p99s() override {
    const serve::ServeReport r = engine_.report();
    return {r.queue_wait.p99, r.service.p99};
  }
  [[nodiscard]] std::size_t max_depth() const override {
    return target_.max_depth.load(std::memory_order_acquire);
  }
  void stop() override { engine_.drain_and_stop(); }
  void check(Checks& checks) override {
    check_serve_ledger(checks, "engine", engine_.report());
    checks.add(workload_.name + " consistency", workload_.verify());
  }
  stm::Stm& probe_stm() override { return stm_; }

 private:
  static stm::StmConfig stm_config(const Shape& shape) {
    stm::StmConfig cfg;
    cfg.max_cores = 8;
    cfg.pool_threads = shape.pool;
    cfg.initial_top = shape.top;
    cfg.initial_children = shape.children;
    return cfg;
  }
  stm::Stm stm_;
  serve::ServableWorkload workload_;
  serve::ServeEngine engine_;
  EngineTarget target_;
};

/// Shard-side dispatcher of trace runs: times each dispatch (decode →
/// admission verdict, i.e. ServeEngine::submit behind the wire) as a
/// serve/submit span and samples the queue depth.
class TimedDispatcher final : public net::RequestDispatcher {
 public:
  explicit TimedDispatcher(serve::ServeEngine& engine)
      : inner_(engine, {}), engine_(&engine) {}

  void dispatch(net::RequestFrame frame, RespondFn respond) override {
    const double start = now();
    inner_.dispatch(std::move(frame), std::move(respond));
    g_tracer.span("serve", "submit", start, now());
    note_max(max_depth, engine_->queue().depth());
  }
  void drain() override { inner_.drain(); }
  net::StatsFrame stats() override { return inner_.stats(); }

  std::atomic<std::size_t> max_depth{0};

 private:
  net::EngineDispatcher inner_;
  serve::ServeEngine* engine_;
};

/// cluster-readmostly: one Router (rebalancing off) over 2 in-process
/// shards, each a NetServer + engine (2 workers, pool 1, (t, c) = (2, 1))
/// over a 90%-read-only Vacation. The generator reaches the router over 2
/// connections with 64 tenants.
class ClusterStack final : public Stack {
 public:
  static constexpr std::size_t kShards = 2;
  static constexpr std::size_t kConnections = 2;

  explicit ClusterStack(std::uint64_t seed) {
    std::vector<router::ShardAddress> addresses;
    for (std::size_t i = 0; i < kShards; ++i) {
      shards_.push_back(std::make_unique<Shard>(seed * kShards + i));
      addresses.push_back({static_cast<std::uint32_t>(i), "127.0.0.1",
                           shards_.back()->server->port()});
    }
    router::RouterConfig cfg;
    cfg.rebalance_enabled = false;
    router_ = std::make_unique<router::Router>(addresses, cfg);
    const double deadline = now() + 10.0;
    for (;;) {
      const auto health = router_->shard_health();
      if (health.size() == kShards &&
          std::all_of(health.begin(), health.end(),
                      [](const auto& h) { return h.second; })) {
        break;
      }
      if (now() > deadline) throw std::runtime_error{"router links never connected"};
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    target_ = std::make_unique<WireTarget>(router_->port(), kConnections);
  }

  ~ClusterStack() override { stop(); }

  Target& target() override { return *target_; }
  [[nodiscard]] std::uint16_t tenants() const override { return 64; }
  /// Closed loop: a window of 16 requests per connection.
  [[nodiscard]] std::size_t closed_clients() const override {
    return 16 * kConnections;
  }

  Snapshot snapshot() override {
    Snapshot s;
    s.at = now();
    for (auto& shard : shards_) {
      s.add_engine(shard->stm, shard->engine);
      const net::NetServerReport w = shard->server->report();
      s.shard_accept += Agg::of(w.accept);
      s.shard_reply += Agg::of(w.reply);
      s.backpressure_pauses += static_cast<double>(w.backpressure_pauses);
    }
    const net::NetServerReport w = router_->server_report();
    s.router_accept = Agg::of(w.accept);
    s.router_reply = Agg::of(w.reply);
    s.backpressure_pauses += static_cast<double>(w.backpressure_pauses);
    s.router_shed_local = static_cast<double>(router_->report().shed_local);
    return s;
  }
  void reset_stage_histograms() override {
    for (auto& shard : shards_) shard->engine.kpi_source().reset_latency_histogram();
  }
  std::pair<double, double> stage_p99s() override {
    std::pair<double, double> p99s{0.0, 0.0};
    for (auto& shard : shards_) {
      const serve::ServeReport r = shard->engine.report();
      p99s.first = std::max(p99s.first, r.queue_wait.p99);
      p99s.second = std::max(p99s.second, r.service.p99);
    }
    return p99s;
  }
  [[nodiscard]] std::size_t max_depth() const override {
    std::size_t depth = 0;
    for (const auto& shard : shards_) {
      if (shard->dispatcher) {
        depth = std::max(depth, shard->dispatcher->max_depth.load(std::memory_order_acquire));
      }
    }
    return depth;
  }

  void stop() override {
    if (stopped_) return;
    stopped_ = true;
    // Outermost first: the router answers everything it accepted before
    // the client receivers stop, and the shards close last.
    router_->shutdown();
    target_->stop();
    for (auto& shard : shards_) shard->server->shutdown();
  }

  void check(Checks& checks) override {
    const router::RouterReport r = router_->report();
    checks.add("router ledger: dispatched == forwarded + shed_local",
               r.dispatched == r.forwarded + r.shed_local);
    checks.add("router ledger: forwarded == returned", r.forwarded == r.returned);
    check_net_ledger(checks, "router server", router_->server_report());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::string name = "shard" + std::to_string(i);
      check_net_ledger(checks, name + " server", shards_[i]->server->report());
      check_serve_ledger(checks, name + " engine", shards_[i]->engine.report());
      checks.add(name + " vacation consistency", shards_[i]->bench.verify_consistency());
    }
    const WireTarget::Ledger client = target_->ledger();
    checks.add("client ledger: sent == answered + unanswered",
               client.sent == client.answered + client.unanswered);
    checks.add("client ledger: no response with an unknown id",
               client.unknown_ids == 0);
  }

  stm::Stm& probe_stm() override { return shards_.front()->stm; }

  void add_wire_layers(Layers& out, const Snapshot& from, const Snapshot& to,
                       const LatencySummary& lat) override {
    const double shard_accept = to.shard_accept.mean_since(from.shard_accept);
    const double shard_reply = to.shard_reply.mean_since(from.shard_reply);
    const double router_accept = to.router_accept.mean_since(from.router_accept);
    const double router_reply = to.router_reply.mean_since(from.router_reply);
    // Every stage a request crosses that something measured; what is left of
    // the client's mean is the hop itself: sockets, framing, loop wake-ups.
    const double staged = mean_of(lat.lateness) + router_accept + router_reply +
                          shard_accept + shard_reply +
                          to.queue_wait.mean_since(from.queue_wait) +
                          to.service.mean_since(from.service);
    std::vector<double> served;
    for (std::size_t i = 0; i < to.completed.size(); ++i) {
      served.push_back(to.completed[i] - from.completed[i]);
    }
    const auto [lo, hi] = std::minmax_element(served.begin(), served.end());
    out["net"]
        .num("shard_accept_mean_us", shard_accept * 1e6)
        .num("shard_reply_mean_us", shard_reply * 1e6)
        .num("router_accept_mean_us", router_accept * 1e6)
        .num("router_reply_mean_us", router_reply * 1e6)
        .num("backpressure_pauses", to.backpressure_pauses - from.backpressure_pauses);
    out["router"]
        .num("hop_residual_mean_us", (mean_of(lat.latencies) - staged) * 1e6)
        .num("balance", ratio(*hi, *lo))
        .num("shed_local", to.router_shed_local);
  }

 private:
  struct Shard {
    explicit Shard(std::uint64_t seed)
        : stm(stm_config()),
          bench(stm, vacation_config(seed)),
          engine(stm, traced([b = &bench](util::Rng& rng) { b->run_one(rng); }),
                 process_clock(), engine_config(2, seed)) {
      if (g_tracer.enabled()) {
        dispatcher = std::make_unique<TimedDispatcher>(engine);
        server = std::make_unique<net::NetServer>(*dispatcher);
      } else {
        server = std::make_unique<net::NetServer>(engine, net::NetServer::HandlerTable{});
      }
    }

    static stm::StmConfig stm_config() {
      stm::StmConfig cfg;
      cfg.max_cores = 8;
      cfg.pool_threads = 1;
      cfg.initial_top = 2;
      cfg.initial_children = 1;
      return cfg;
    }
    static workloads::VacationConfig vacation_config(std::uint64_t seed) {
      workloads::VacationConfig cfg;
      cfg.make_fraction = 0.08;
      cfg.delete_fraction = 0.01;
      cfg.update_fraction = 0.01;  // the other 90% are read-only queries
      cfg.seed = seed;
      return cfg;
    }

    stm::Stm stm;
    workloads::VacationBenchmark bench;
    serve::ServeEngine engine;
    std::unique_ptr<TimedDispatcher> dispatcher;  ///< trace runs only
    std::unique_ptr<net::NetServer> server;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<router::Router> router_;
  std::unique_ptr<WireTarget> target_;
  bool stopped_ = false;
};

// ---- options ------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double warmup = 2.0;
  double open = 9.0;
  double closed = 4.0;
  double duration = 24.0;  ///< autotune-shift run length
  bool trace = false;
  std::string trace_out;
  bool setup_only = false;
  bool smoke = false;
};

/// Open-loop rates, fixed so that runs on different commits offer the same
/// load; each leaves the workload well below its capacity on 4 vCPUs.
double default_rate(const std::string& workload) {
  if (workload == "tpcc-nested") return 5000.0;
  if (workload == "vacation-contended") return 12000.0;
  return 8000.0;  // cluster-readmostly
}

/// The p99 is taken per slice of the open-loop phase and the median of the
/// slices reported, so one burst does not decide a process's p99.
constexpr std::size_t kP99Slices = 3;

// ---- serving workloads --------------------------------------------------------------

std::unique_ptr<Stack> make_stack(const std::string& workload, std::uint64_t seed) {
  if (workload == "tpcc-nested") {
    return std::make_unique<InProcessStack>(
        InProcessStack::Shape{"tpcc", 1, 4, 2, 3}, seed);
  }
  if (workload == "vacation-contended") {
    return std::make_unique<InProcessStack>(
        InProcessStack::Shape{"vacation", 4, 1, 4, 1}, seed);
  }
  if (workload == "cluster-readmostly") return std::make_unique<ClusterStack>(seed);
  throw std::invalid_argument{"unknown workload " + workload};
}

/// tpcc-nested, vacation-contended, cluster-readmostly: warm-up, open loop,
/// closed loop.
void run_serving(const Options& opts, Json& out, Checks& checks) {
  std::unique_ptr<Stack> stack = make_stack(opts.workload, opts.seed);
  Generator gen{stack->target(), opts.seed * 0x9e3779b97f4a7c15ULL + 1,
                stack->tenants()};
  const double rate = default_rate(opts.workload);
  Tally tally;
  out.num("setup_s", now()).num("rate", rate);
  const RealtimeScope realtime;
  out.boolean("realtime", realtime.ok());

  if (opts.setup_only) {
    Phase one;
    stack->target().issue(one.add(now(), 0, 0));
    one.wait_all(10.0);
    stack->stop();
    out.num("rss_mb", peak_rss_mb());
    tally.add(one);
    tally.write(out);
    stack->check(checks);
    return;
  }

  Phase warm;
  gen.open_loop(warm, rate, now(), now() + opts.warmup);
  warm.wait_all(10.0);

  stack->reset_stage_histograms();
  const Snapshot from = stack->snapshot();
  from.trace("open.start");
  const double open_end = from.at + opts.open;
  Phase open;
  gen.open_loop(open, rate, from.at, open_end);
  open.wait_all(10.0);
  const Snapshot to = stack->snapshot();
  to.trace("open.end");
  const auto [queue_p99, service_p99] = stack->stage_p99s();
  // The open loop is a fixed amount of work; what the closed loop adds
  // (TPC-C keeps every order) would scale with capacity.
  out.num("rss_mb", peak_rss_mb());

  FreeClients free;
  Phase closed{&free};
  const double closed_end = now() + opts.closed;
  gen.closed_loop(closed, free, stack->closed_clients(),
                  [&] { return now() >= closed_end; });
  closed.wait_all(10.0);
  stack->snapshot().trace("closed.end");
  stack->stop();

  const LatencySummary lat = summarize(open, from.at, open_end);
  double closed_ok = 0.0;
  for (const Slot& slot : closed.slots()) {
    if (slot.outcome == Outcome::kOk && slot.done <= closed_end) closed_ok += 1.0;
  }
  std::vector<double> p99s = interval_p99s(open, from.at, open_end, kP99Slices);
  for (double& p99 : p99s) p99 *= 1e3;
  const double late_p99 = quantile(lat.lateness, 0.99);
  out.num("p50_ms", quantile(lat.latencies, 0.5) * 1e3)
      .nums("p99_ms_slices", p99s)
      .num("latency_samples", static_cast<double>(lat.latencies.size()))
      .num("capacity_rps", closed_ok / opts.closed)
      .num("late_p99_us", late_p99 * 1e6)
      .boolean("valid", late_p99 <= kMaxLateP99);
  if (g_tracer.enabled()) {
    Layers layers;
    add_stm_layers(layers, from, to);
    add_serve_layers(layers, from, to, lat, queue_p99, service_p99,
                     stack->max_depth());
    stack->add_wire_layers(layers, from, to, lat);
    add_stm_probes(layers, stack->probe_stm());
    out.raw("layers", layers.text());
  }

  tally.add(warm);
  tally.add(open);
  tally.add(closed);
  tally.write(out);
  stack->check(checks);
}

// ---- autotune-shift -----------------------------------------------------------------

/// What the tuner did, recorded from outside the controller: by the
/// optimizer factory handed to tune_and_watch and the decorator below.
/// Written on the tuner thread and read after it joined, except `settled`.
struct TunerLog {
  std::vector<double> round_starts;
  std::vector<double> propose_s;
  std::vector<double> observe_s;
  std::atomic<bool> settled{false};  ///< the current round has converged
};

/// opt::Optimizer decorator of trace runs: times propose()/observe() and
/// marks when a round converges.
class TimedOptimizer final : public opt::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<opt::Optimizer> inner, TunerLog& log)
      : inner_(std::move(inner)), log_(&log) {}

  std::optional<opt::Config> propose() override {
    const double start = now();
    auto config = inner_->propose();
    const double end = now();
    g_tracer.span("opt", "propose", start, end);
    log_->propose_s.push_back(end - start);
    if (!config) log_->settled.store(true, std::memory_order_release);
    return config;
  }
  void observe(const opt::Config& config, double kpi) override {
    const double start = now();
    inner_->observe(config, kpi);
    const double end = now();
    g_tracer.span("opt", "observe", start, end);
    log_->observe_s.push_back(end - start);
  }
  [[nodiscard]] opt::Config best() const override { return inner_->best(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<opt::Optimizer> inner_;
  TunerLog* log_;
};

/// Mean delay from each workload switch to the first tuning round started
/// after it; a switch no round answered before the next one (or the end)
/// counts the whole interval.
double mean_retune_lag(const std::vector<double>& switches,
                       const std::vector<double>& round_starts, double end) {
  std::vector<double> lags;
  for (std::size_t i = 0; i < switches.size(); ++i) {
    const double limit = i + 1 < switches.size() ? switches[i + 1] : end;
    double lag = limit - switches[i];
    for (double start : round_starts) {
      if (start >= switches[i] && start < limit) {
        lag = start - switches[i];
        break;
      }
    }
    lags.push_back(lag);
  }
  return mean_of(lags);
}

/// autotune-shift: one Stm hosting TPC-C and Vacation; the handler switches
/// between them every quarter of the run while tune_and_watch tunes (t, c)
/// exactly as `autopn serve` does, under a 4-client closed loop.
void run_autotune(const Options& opts, Json& out, Checks& checks) {
  constexpr int kCores = 8;
  constexpr std::size_t kPhases = 4;
  stm::StmConfig stm_cfg;
  stm_cfg.max_cores = kCores;
  stm_cfg.pool_threads = 4;
  stm_cfg.initial_top = 1;
  stm_cfg.initial_children = 1;
  stm::Stm stm{stm_cfg};
  auto tpcc = serve::make_servable_workload("tpcc", stm, opts.seed);
  auto vacation = serve::make_servable_workload("vacation", stm, opts.seed);
  std::atomic<std::size_t> phase{0};
  serve::ServeEngine engine{stm,
                            traced([&](util::Rng& rng) {
                              if (phase.load(std::memory_order_acquire) % 2 == 0) {
                                tpcc.handler(rng);
                              } else {
                                vacation.handler(rng);
                              }
                            }),
                            process_clock(), engine_config(4, opts.seed)};
  EngineTarget target{engine};

  const opt::ConfigSpace space{kCores};
  TunerLog log;
  auto make_optimizer = [&]() -> std::unique_ptr<opt::Optimizer> {
    auto inner =
        std::make_unique<opt::AutoPnOptimizer>(space, opt::AutoPnParams{}, opts.seed);
    if (!g_tracer.enabled()) return inner;
    log.round_starts.push_back(now());
    log.settled.store(false, std::memory_order_release);
    return std::make_unique<TimedOptimizer>(std::move(inner), log);
  };
  runtime::ControllerParams params;
  params.max_window_seconds = 0.5;
  runtime::TuningController controller{
      stm, std::make_unique<opt::AutoPnOptimizer>(space, opt::AutoPnParams{}, opts.seed),
      std::make_unique<runtime::FixedTimePolicy>(0.05), process_clock(), params};
  controller.set_latency_source(&engine.kpi_source());

  Generator gen{target, opts.seed * 0x9e3779b97f4a7c15ULL + 1, 1};
  const double start = now();
  out.num("setup_s", start);
  const double end = start + (opts.setup_only ? 0.0 : opts.duration);
  const double phase_len = opts.duration / static_cast<double>(kPhases);

  Snapshot from;
  from.at = start;
  from.add_engine(stm, engine);
  from.trace("phase.0");
  std::size_t rounds = 0;
  std::vector<double> switches;
  std::size_t samples = 0;
  std::size_t settled_samples = 0;
  std::atomic<bool> done{false};
  std::atomic<bool> tuned{opts.setup_only};
  FreeClients free;
  Phase run{&free};
  {
    std::jthread tuner;
    if (!opts.setup_only) {
      tuner = std::jthread{[&] {
        rounds = controller.tune_and_watch(make_optimizer, opts.duration);
        tuned.store(true, std::memory_order_release);
      }};
    }
    // Switches the workload on schedule and samples the tuner every 5 ms.
    std::jthread poller{[&] {
      opt::Config last{0, 0};
      while (!done.load(std::memory_order_acquire)) {
        const double t = now();
        const auto p = std::min<std::size_t>(
            kPhases - 1, static_cast<std::size_t>((t - start) / phase_len));
        if (p != phase.load(std::memory_order_acquire)) {
          phase.store(p, std::memory_order_release);
          switches.push_back(t);
          Snapshot s;
          s.at = t;
          s.add_engine(stm, engine);
          s.trace("phase.switch");
        }
        ++samples;
        if (log.settled.load(std::memory_order_acquire)) ++settled_samples;
        const opt::Config tc{static_cast<int>(stm.top_limit()),
                             static_cast<int>(stm.child_limit())};
        if (!(tc == last)) {
          g_tracer.counter("tc", t, {{"t", tc.t}, {"c", tc.c}});
          last = tc;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{5});
      }
    }};
    const RealtimeScope realtime;
    out.boolean("realtime", realtime.ok());
    if (opts.setup_only) {
      target.issue(run.add(now(), 0, 0));
    } else {
      // A round the tuner began before `end` still runs to completion; the
      // load continues until then so its windows never measure an idle
      // system (which the watchdog would read as a stall). Only requests
      // completed by `end` count.
      gen.closed_loop(run, free, 4, [&] {
        return now() >= end && tuned.load(std::memory_order_acquire);
      });
    }
    run.wait_all(10.0);
    done.store(true, std::memory_order_release);
  }  // joins the poller and the tuner
  Snapshot to;
  to.at = now();
  to.add_engine(stm, engine);
  to.trace("end");
  engine.drain_and_stop();
  out.num("rss_mb", peak_rss_mb());

  const LatencySummary lat = summarize(run, start, end);
  double ok = 0.0;
  for (const Slot& slot : run.slots()) {
    if (slot.outcome == Outcome::kOk && slot.done <= end) ok += 1.0;
  }
  if (!opts.setup_only) {
    std::vector<double> p99s = interval_p99s(run, start, end, kP99Slices);
    for (double& p99 : p99s) p99 *= 1e3;
    out.num("p50_ms", quantile(lat.latencies, 0.5) * 1e3)
        .nums("p99_ms_slices", p99s)
        .num("latency_samples", static_cast<double>(lat.latencies.size()))
        .num("capacity_rps", ok / opts.duration)
        .num("late_p99_us", quantile(lat.lateness, 0.99) * 1e6)
        .num("final_t", static_cast<double>(stm.top_limit()))
        .num("final_c", static_cast<double>(stm.child_limit()));
  }
  if (g_tracer.enabled() && !opts.setup_only) {
    Layers layers;
    add_stm_layers(layers, from, to);
    const serve::ServeReport r = engine.report();
    add_serve_layers(layers, from, to, lat, r.queue_wait.p99, r.service.p99,
                     target.max_depth.load(std::memory_order_acquire));
    layers["runtime"]
        .num("tuning_rounds", static_cast<double>(rounds))
        .num("windows", static_cast<double>(log.observe_s.size()))
        .num("retune_lag_s", mean_retune_lag(switches, log.round_starts, end))
        .num("settled_frac",
             ratio(static_cast<double>(settled_samples), static_cast<double>(samples)))
        .num("watchdog_reverts", static_cast<double>(controller.watchdog().reverts));
    layers["opt"]
        .num("propose_mean_us", mean_of(log.propose_s) * 1e6)
        .num("propose_max_us", quantile(log.propose_s, 1.0) * 1e6)
        .num("observe_mean_us", mean_of(log.observe_s) * 1e6);
    add_stm_probes(layers, stm);
    out.raw("layers", layers.text());
  }

  Tally tally;
  tally.add(run);
  tally.write(out);
  check_serve_ledger(checks, "engine", engine.report());
  checks.add("tpcc consistency", tpcc.verify());
  checks.add("vacation consistency", vacation.verify());
}

// ---- main ---------------------------------------------------------------------------

constexpr const char* kWorkloads[] = {"tpcc-nested", "vacation-contended",
                                      "cluster-readmostly", "autotune-shift"};

int usage(const std::string& error) {
  std::cerr << "autopn_e2e: " << error
            << "\nusage: autopn_e2e --workload NAME|all --seed N [--warmup S]"
               " [--open S] [--closed S] [--duration S] [--trace 0|1]"
               " [--trace-out FILE] [--setup-only] [--smoke]\n";
  return 2;
}

std::optional<Options> parse(int argc, char** argv, std::string& error) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      opts.setup_only = true;
      continue;
    }
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + arg;
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") opts.workload = value;
      else if (arg == "--seed") opts.seed = std::stoull(value);
      else if (arg == "--warmup") opts.warmup = std::stod(value);
      else if (arg == "--open") opts.open = std::stod(value);
      else if (arg == "--closed") opts.closed = std::stod(value);
      else if (arg == "--duration") opts.duration = std::stod(value);
      else if (arg == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument{value};
        opts.trace = value == "1";
      }
      else if (arg == "--trace-out") opts.trace_out = value;
      else {
        error = "unknown option " + arg;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      error = "bad value for " + arg + ": " + value;
      return std::nullopt;
    }
  }
  const bool known = opts.workload == "all" ||
                     std::find(std::begin(kWorkloads), std::end(kWorkloads),
                               opts.workload) != std::end(kWorkloads);
  if (!known) {
    error = "unknown workload '" + opts.workload + "'";
    return std::nullopt;
  }
  if (opts.open <= 0.0 || opts.closed <= 0.0 || opts.duration <= 0.0 ||
      opts.warmup < 0.0) {
    error = "phase lengths must be positive";
    return std::nullopt;
  }
  if (opts.smoke) {
    opts.warmup = 0.2;
    opts.open = 1.0;
    opts.closed = 1.0;
    opts.duration = 2.0;
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  (void)process_clock();
  // The generator's sleeps should end when asked, not up to 50 µs later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::string error;
  const std::optional<Options> parsed = parse(argc, argv, error);
  if (!parsed) return usage(error);
  if (parsed->trace) g_tracer.enable();

  std::vector<std::string> names;
  if (parsed->workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    names.push_back(parsed->workload);
  }
  bool all_ok = true;
  for (const std::string& name : names) {
    Options opts = *parsed;
    opts.workload = name;
    Json out;
    out.str("workload", name)
        .num("seed", static_cast<double>(opts.seed))
        .boolean("traced", opts.trace)
        .str("compiler", __VERSION__)
        .str("build_type", AUTOPN_E2E_BUILD_TYPE);
    Checks checks;
    try {
      if (name == "autotune-shift") {
        run_autotune(opts, out, checks);
      } else {
        run_serving(opts, out, checks);
      }
    } catch (const std::exception& e) {
      checks.add(std::string{"no exception: "} + e.what(), false);
    }
    checks.write(out);
    all_ok = all_ok && checks.all_ok();
    std::cout << out.text() << std::endl;
  }
  if (parsed->trace && !parsed->trace_out.empty()) {
    g_tracer.write_chrome_json(parsed->trace_out, 8);
  }
  return all_ok ? 0 : 1;
}
