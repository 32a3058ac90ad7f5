#pragma once
// NetServer — the socket acceptor that puts the serving engine on the wire.
// A single epoll EventLoop (own thread) owns the listening socket and every
// connection; decoded Request frames are bridged into the existing
// ServeEngine admission path, and the engine's completion callback hands the
// response to the loop through the outbox so engine workers never block on a
// socket.
//
// Dataflow (one request):
//   client ──frame──▸ Connection::on_readable ─▸ FrameDecoder
//        ─▸ ServeEngine::submit            (admission: shed ⇒ kShed + hint)
//        ─▸ worker runs the PN transaction ─▸ on_complete(RequestResult)
//        ─▸ respond: append to the outbox  (worker returns immediately)
//        ─▸ loop: drain_outbox             (every queued response)
//        ─▸ Connection's BufferedWriter ──one send/EPOLLOUT──▸ client
//
// Batching: only the respond that finds the outbox empty posts a drain
// task, and the drain appends every queued response to its connection's
// buffer before flushing each touched connection once — k responses that
// complete while the loop is busy cost one loop task and one send per
// connection, not k of each.
//
// Backpressure: each connection's outbound bytes sit in a BufferedWriter
// (buffered_writer.hpp), the same one ShardLink uses. While it holds more
// than `max_outbound_bytes` the server stops reading that connection (EPOLLIN
// dropped) — a slow reader throttles its own request stream instead of
// ballooning server memory — and resumes once the buffer drains below half
// the cap. EPOLLOUT is armed only while there are bytes to flush.
//
// Dead connections: completions address connections by id, never by pointer.
// A response whose connection has gone (mid-request disconnect) is counted
// `responses_dropped` and freed — it cannot crash the loop or leak.
//
// Shutdown is deterministic (see shutdown()): after it returns,
//   requests_decoded == responses_enqueued and
//   responses_enqueued == responses_written + responses_dropped —
// the drain-on-close invariant extended from the queue to the socket.
//
// Failpoint sites: net.accept (reject/stall incoming connections), net.read
// (fail/stall connection reads), net.write (fail/stall response writes).

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/buffered_writer.hpp"
#include "net/dispatcher.hpp"
#include "net/event_loop.hpp"
#include "net/wire.hpp"
#include "serve/engine.hpp"
#include "util/thread_annotations.hpp"

namespace autopn::net {

struct NetServerConfig {
  std::string bind_address = "127.0.0.1";  ///< IPv4 dotted quad
  std::uint16_t port = 0;                  ///< 0 = kernel-assigned, see port()
  std::size_t max_connections = 1024;
  /// Outbound bytes per connection above which the server stops reading it.
  std::size_t max_outbound_bytes = 256 * 1024;
  /// Kernel send-buffer size per accepted connection; 0 keeps the system
  /// default. Shrinking it makes write backpressure observable at loopback
  /// speeds (tests, benches) — the kernel otherwise absorbs hundreds of KB
  /// before the user-space outbound buffer ever fills.
  int so_sndbuf = 0;
  /// Seconds a fresh connection gets to complete the Hello handshake.
  double handshake_timeout = 5.0;
  /// Seconds shutdown() spends flushing buffered responses before it closes
  /// lingering connections and counts the leftovers as dropped.
  double drain_timeout = 2.0;
};

/// Wire-level accounting. After shutdown() the response ledger is exact:
/// requests_decoded == responses_enqueued == responses_written +
/// responses_dropped.
struct NetServerReport {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_accepts = 0;  ///< over limit / injected accept fault
  std::uint64_t disconnects = 0;       ///< peer closed or I/O error
  std::uint64_t protocol_errors = 0;   ///< bad handshake/framing (closed)
  std::uint64_t requests_decoded = 0;
  std::uint64_t responses_enqueued = 0;
  std::uint64_t responses_written = 0;  ///< fully flushed to the socket
  std::uint64_t responses_dropped = 0;  ///< connection died first
  std::uint64_t shed_responses = 0;     ///< kShed/kClosing sent
  std::uint64_t backpressure_pauses = 0;  ///< reads paused on a full outbuf
  std::uint64_t socket_writes = 0;  ///< send() calls that moved bytes
  std::size_t open_connections = 0;
  /// Wire-stage latency breakdown (the model's WireCosts inputs): accept is
  /// decode→admission verdict (loop-thread dispatch cost per request), reply
  /// is completion→last byte flushed (loop queueing + socket writes).
  serve::LatencyRecorder::Summary accept;
  serve::LatencyRecorder::Summary reply;

  /// The response ledger above; holds after shutdown().
  [[nodiscard]] bool ledger_exact() const noexcept {
    return requests_decoded == responses_enqueued &&
           responses_enqueued == responses_written + responses_dropped;
  }
};

class NetServer {
 public:
  /// Request frames select a handler by index; ids outside the table get a
  /// kRejected response without touching the engine. Empty handlers fall
  /// back to the engine's default handler.
  using HandlerTable = EngineDispatcher::HandlerTable;

  /// Binds, listens, and starts the loop thread. The engine must outlive
  /// this server; destroy (or shutdown()) the server before stopping the
  /// engine yourself — shutdown() drains the engine as part of its ordered
  /// close. Throws std::system_error when the socket cannot be bound.
  /// (Convenience form: wraps the engine in an owned EngineDispatcher.)
  NetServer(serve::ServeEngine& engine, HandlerTable handlers,
            NetServerConfig config = {});

  /// Serves an arbitrary dispatcher (the router tier uses this). The
  /// dispatcher must outlive the server; its drain() is invoked during
  /// shutdown after reads have stopped.
  NetServer(RequestDispatcher& dispatcher, NetServerConfig config = {});

  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The actually-bound port (resolves config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The server's reactor — for dispatchers that want to share its thread
  /// for their own timers/fds (register via post(); loop-thread-only APIs
  /// apply). Valid for the server's lifetime.
  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }

  /// Ordered deterministic drain; idempotent. Steps: stop accepting and
  /// reading (no new requests), drain the dispatcher (every in-flight
  /// completion fires), drain the loop (every posted response reaches its
  /// connection's buffer), flush buffers until empty or drain_timeout, then
  /// close everything. Safe from any thread except the loop thread.
  void shutdown();

  [[nodiscard]] NetServerReport report() const;

 private:
  /// One unflushed response in a connection's outbound buffer.
  struct PendingResponse {
    /// The writer's queued() mark at which the response ends — how
    /// responses_written distinguishes fully-sent responses from bytes
    /// parked in the buffer when the connection dies.
    std::uint64_t end = 0;
    /// Monotonic time respond() took it — the reply-stage stamp
    /// (completion→flushed).
    double posted_at = 0.0;
  };

  struct Connection {
    Connection(EventLoop& loop, std::size_t max_outbound_bytes)
        : out(loop, max_outbound_bytes) {}
    int fd = -1;
    std::uint64_t id = 0;
    bool handshaken = false;
    bool reading_paused = false;
    bool draining = false;  ///< shutdown: no further reads, flush only
    FrameDecoder decoder;
    BufferedWriter out;
    std::deque<PendingResponse> pending;  ///< oldest first
    EventLoop::TimerId handshake_timer = 0;
  };

  enum class CloseReason { kPeer, kProtocol, kShutdown };

  void setup_listener();
  void on_acceptable();
  void on_connection_event(std::uint64_t conn_id, std::uint32_t events);
  // Close-capable paths address connections by id and report liveness, so a
  // handler that lost its connection mid-call cannot touch freed state.
  [[nodiscard]] bool on_readable(std::uint64_t conn_id);
  [[nodiscard]] bool process_frames(std::uint64_t conn_id);
  void handle_request(Connection& conn, RequestFrame frame);
  /// Dispatcher-side respond path: encodes on the caller's thread (worker,
  /// router io, or the loop itself) and appends the bytes to the outbox,
  /// posting drain_outbox only when the outbox was empty.
  void respond(std::uint64_t conn_id, std::uint64_t request_id,
               ResponseFrame response);
  /// Loop side: appends every queued response to its connection (if alive;
  /// otherwise counts it dropped), then flushes each touched connection.
  void drain_outbox();
  /// Appends a control frame (handshake, stats, membership) and flushes.
  /// Returns false if the write path closed (and freed) the connection —
  /// the caller's `conn` reference is dangling and must not be touched.
  bool send_bytes(Connection& conn, const std::vector<std::uint8_t>& bytes);
  bool flush(std::uint64_t conn_id);
  void update_interest(Connection& conn);
  void close_connection(std::uint64_t conn_id, CloseReason reason);
  [[nodiscard]] bool flushed_everything() const;

  /// Owned only by the engine-convenience constructor; dispatcher_ is the
  /// seam every request goes through either way.
  std::unique_ptr<EngineDispatcher> owned_dispatcher_;
  RequestDispatcher* dispatcher_;
  NetServerConfig config_;

  EventLoop loop_;

  /// A response on its way from respond() to its connection's buffer.
  struct Outgoing {
    std::uint64_t conn_id = 0;
    std::vector<std::uint8_t> bytes;
    double posted_at = 0.0;  ///< the reply-stage stamp
  };
  std::mutex outbox_mutex_;
  std::vector<Outgoing> outbox_ AUTOPN_GUARDED_BY(outbox_mutex_);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t next_conn_id_ = 1;  ///< loop thread only
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;

  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_accepts_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> requests_decoded_{0};
  std::atomic<std::uint64_t> responses_enqueued_{0};
  std::atomic<std::uint64_t> responses_written_{0};
  std::atomic<std::uint64_t> responses_dropped_{0};
  std::atomic<std::uint64_t> shed_responses_{0};
  std::atomic<std::uint64_t> backpressure_pauses_{0};
  std::atomic<std::uint64_t> socket_writes_{0};
  std::atomic<std::size_t> open_connections_{0};
  /// Wire-stage histograms: accept_ records on the loop thread only, reply_
  /// on the loop thread at flush time (both recorders are thread-safe).
  serve::LatencyRecorder accept_latency_{4};
  serve::LatencyRecorder reply_latency_{4};

  std::mutex shutdown_mutex_;
  bool shut_down_ AUTOPN_GUARDED_BY(shutdown_mutex_) = false;
  std::thread loop_thread_ AUTOPN_GUARDED_BY(shutdown_mutex_);
};

}  // namespace autopn::net
