#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <system_error>
#include <utility>

#include "util/failpoint.hpp"

namespace autopn::net {

namespace {

constexpr std::uint32_t kEpollIn = EPOLLIN;

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error{errno, std::generic_category(), what};
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Monotonic seconds for wire-stage stamps (only ever differenced).
double mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

NetServer::NetServer(serve::ServeEngine& engine, HandlerTable handlers,
                     NetServerConfig config)
    : owned_dispatcher_(
          std::make_unique<EngineDispatcher>(engine, std::move(handlers))),
      dispatcher_(owned_dispatcher_.get()),
      config_(std::move(config)) {
  setup_listener();  // before the loop thread exists — registration is safe
  loop_thread_ = std::thread{[this] { loop_.run(); }};
}

NetServer::NetServer(RequestDispatcher& dispatcher, NetServerConfig config)
    : dispatcher_(&dispatcher), config_(std::move(config)) {
  setup_listener();
  loop_thread_ = std::thread{[this] { loop_.run(); }};
}

NetServer::~NetServer() { shutdown(); }

void NetServer::setup_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = EINVAL;
    throw_errno("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind/listen");
  }
  set_nonblocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  loop_.add_fd(listen_fd_, kEpollIn, [this](std::uint32_t) { on_acceptable(); });
}

void NetServer::on_acceptable() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept error; the listener stays armed
    }
    // Chaos hook: reject (error mode) or stall (delay mode) fresh
    // connections — connection-churn chaos at the very first step.
    bool injected_reject = false;
    AUTOPN_FAILPOINT("net.accept", injected_reject = true);
    if (injected_reject || connections_.size() >= config_.max_connections ||
        draining_.load(std::memory_order_relaxed)) {
      ::close(fd);
      rejected_accepts_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    set_nodelay(fd);
    if (config_.so_sndbuf > 0) {
      const int size = config_.so_sndbuf;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof size);
    }

    auto conn = std::make_unique<Connection>(loop_, config_.max_outbound_bytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    const std::uint64_t id = conn->id;
    conn->handshake_timer = loop_.add_timer(config_.handshake_timeout, [this, id] {
      auto it = connections_.find(id);
      if (it != connections_.end() && !it->second->handshaken) {
        close_connection(id, CloseReason::kProtocol);
      }
    });
    conn->out.attach(fd, kEpollIn);
    connections_.emplace(id, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.store(connections_.size(), std::memory_order_relaxed);
    loop_.add_fd(fd, kEpollIn,
                 [this, id](std::uint32_t events) { on_connection_event(id, events); });
  }
}

void NetServer::on_connection_event(std::uint64_t conn_id, std::uint32_t events) {
  if (events & (EPOLLHUP | EPOLLERR)) {
    // Drain whatever the peer managed to send, then close; EPOLLHUP with
    // readable data still delivers the data first under level triggering.
    if ((events & EPOLLIN) == 0 || !on_readable(conn_id)) {
      auto it = connections_.find(conn_id);
      if (it != connections_.end()) close_connection(conn_id, CloseReason::kPeer);
      return;
    }
    close_connection(conn_id, CloseReason::kPeer);
    return;
  }
  if ((events & EPOLLIN) != 0 && !on_readable(conn_id)) return;
  if ((events & EPOLLOUT) != 0) (void)flush(conn_id);
}

bool NetServer::on_readable(std::uint64_t conn_id) {
  for (;;) {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return false;
    Connection& conn = *it->second;
    if (conn.reading_paused || conn.draining) return true;

    // Chaos hooks: error mode fails the read (connection dropped
    // mid-request), delay mode makes a slow network.
    bool injected_fail = false;
    AUTOPN_FAILPOINT("net.read", injected_fail = true);
    if (injected_fail) {
      close_connection(conn_id, CloseReason::kPeer);
      return false;
    }

    std::array<std::uint8_t, 16384> buf;
    const ssize_t n = ::read(conn.fd, buf.data(), buf.size());
    if (n > 0) {
      conn.decoder.feed(buf.data(), static_cast<std::size_t>(n));
      if (!process_frames(conn_id)) return false;
      // A short read emptied the socket: skip the read that would only
      // return EAGAIN. Level-triggered epoll reports the fd again if more
      // bytes arrive.
      if (static_cast<std::size_t>(n) < buf.size()) return true;
      continue;
    }
    if (n == 0) {  // orderly peer close
      close_connection(conn_id, CloseReason::kPeer);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    close_connection(conn_id, CloseReason::kPeer);
    return false;
  }
}

bool NetServer::process_frames(std::uint64_t conn_id) {
  for (;;) {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return false;
    Connection& conn = *it->second;
    auto frame = conn.decoder.next();
    if (!frame) {
      if (conn.decoder.failed()) {
        close_connection(conn_id, CloseReason::kProtocol);
        return false;
      }
      return true;  // partial frame — wait for more bytes
    }
    if (!conn.handshaken) {
      const auto hello = frame->type == FrameType::kHello
                             ? parse_hello(frame->body)
                             : std::nullopt;
      const bool ok = hello && hello->magic == kWireMagic &&
                      hello->version == kWireVersion;
      HelloAckFrame ack;
      ack.ok = ok;
      std::vector<std::uint8_t> bytes;
      encode_hello_ack(bytes, ack);
      // A failed write closes (and frees) the connection; `conn` is dead.
      const bool alive = send_bytes(conn, bytes);
      if (!ok) {
        // Flush the NAK best-effort, then drop: a version-mismatched peer
        // gets a definite answer instead of a silent reset.
        close_connection(conn_id, CloseReason::kProtocol);
        return false;
      }
      if (!alive) return false;
      conn.handshaken = true;
      loop_.cancel_timer(conn.handshake_timer);
      continue;
    }
    if (frame->type == FrameType::kStatsRequest) {
      if (!parse_stats_request(frame->body)) {
        close_connection(conn_id, CloseReason::kProtocol);
        return false;
      }
      std::vector<std::uint8_t> bytes;
      encode_stats(bytes, dispatcher_->stats());
      // Stats frames ride outside the request/response ledger.
      if (!send_bytes(conn, bytes)) return false;
      continue;
    }
    if (frame->type == FrameType::kMembershipRequest) {
      const auto request = parse_membership_request(frame->body);
      if (!request) {
        close_connection(conn_id, CloseReason::kProtocol);
        return false;
      }
      std::vector<std::uint8_t> bytes;
      // Runs on the loop thread — the same thread that owns a Router
      // dispatcher's membership state, so no extra synchronization.
      encode_membership(bytes, dispatcher_->membership(*request));
      // Membership frames ride outside the request/response ledger, like
      // stats: they are control plane, not dispatched requests.
      if (!send_bytes(conn, bytes)) return false;
      continue;
    }
    if (frame->type != FrameType::kRequest) {
      close_connection(conn_id, CloseReason::kProtocol);
      return false;
    }
    auto request = parse_request(frame->body);
    if (!request) {
      close_connection(conn_id, CloseReason::kProtocol);
      return false;
    }
    handle_request(conn, std::move(*request));
  }
}

void NetServer::handle_request(Connection& conn, RequestFrame frame) {
  requests_decoded_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t conn_id = conn.id;
  const std::uint64_t request_id = frame.request_id;
  // The dispatcher calls respond exactly once, from any thread — the
  // ledger stays exact because respond always counts responses_enqueued
  // and drain_outbox() accounts written-vs-dropped on the loop.
  //
  // Accept-stage cost: dispatch() runs admission synchronously on the loop
  // thread (the engine path is submit(); a worker picks the request up
  // later), so its duration is exactly decode→admission-verdict.
  const double dispatched_at = mono_seconds();
  dispatcher_->dispatch(
      std::move(frame),
      [this, conn_id, request_id](ResponseFrame response) {
        respond(conn_id, request_id, std::move(response));
      });
  accept_latency_.record(mono_seconds() - dispatched_at);
}

void NetServer::respond(std::uint64_t conn_id, std::uint64_t request_id,
                        ResponseFrame response) {
  // Dispatcher context (an engine worker, or the loop itself — the router
  // answers every request on its loop): encode here (cheap, no shared state) and hand the bytes to
  // the loop through the outbox. Workers never touch the socket — a
  // stalled or dead connection cannot stall them.
  response.request_id = request_id;
  if (response.status == Status::kShed || response.status == Status::kClosing) {
    shed_responses_.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<std::uint8_t> bytes;
  encode_response(bytes, response);
  // Reply-stage stamp: from here (the worker finished; the response exists
  // as bytes) to the moment the last byte is flushed to the socket.
  const double posted_at = mono_seconds();
  bool was_empty = false;
  {
    std::scoped_lock lock{outbox_mutex_};
    was_empty = outbox_.empty();
    outbox_.push_back(Outgoing{conn_id, std::move(bytes), posted_at});
    // Counted with the push: once a reader sees it, the response is in the
    // outbox.
    responses_enqueued_.fetch_add(1, std::memory_order_relaxed);
  }
  // A non-empty outbox has not been taken yet: the respond that made it
  // non-empty posts (or has posted) the drain task that carries this
  // response too. Every post happens inside a respond, so a dispatcher
  // drain that waits for every respond to return also orders the drain
  // task ahead of shutdown's loop barrier.
  if (was_empty) loop_.post([this] { drain_outbox(); });
}

void NetServer::drain_outbox() {
  std::vector<Outgoing> batch;
  {
    std::scoped_lock lock{outbox_mutex_};
    batch.swap(outbox_);
  }
  std::vector<std::uint64_t> touched;
  for (Outgoing& out : batch) {
    auto it = connections_.find(out.conn_id);
    if (it == connections_.end()) {
      // Mid-request disconnect: the connection died while its request was
      // in flight. The response is accounted and dropped — never a
      // crash/leak.
      responses_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection& conn = *it->second;
    conn.out.append(out.bytes);
    conn.pending.push_back(PendingResponse{conn.out.queued(), out.posted_at});
    touched.push_back(out.conn_id);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  // One flush per connection; a flush that closes its connection counts
  // the responses still pending there as dropped.
  for (const std::uint64_t conn_id : touched) (void)flush(conn_id);
}

bool NetServer::send_bytes(Connection& conn,
                           const std::vector<std::uint8_t>& bytes) {
  conn.out.append(bytes);
  return flush(conn.id);
}

bool NetServer::flush(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return false;
  Connection& conn = *it->second;
  if (conn.out.pending() > 0) {
    // Chaos hooks: error mode fails the write (peer reset under load),
    // delay mode models a congested uplink and exercises backpressure.
    bool injected_fail = false;
    AUTOPN_FAILPOINT("net.write", injected_fail = true);
    const std::uint64_t writes = conn.out.writes();
    if (injected_fail || !conn.out.flush()) {
      close_connection(conn_id, CloseReason::kPeer);
      return false;
    }
    socket_writes_.fetch_add(conn.out.writes() - writes,
                             std::memory_order_seq_cst);
    std::uint64_t retired = 0;
    const double now = conn.pending.empty() ? 0.0 : mono_seconds();
    while (!conn.pending.empty() &&
           conn.pending.front().end <= conn.out.flushed()) {
      reply_latency_.record(now - conn.pending.front().posted_at);
      conn.pending.pop_front();
      ++retired;
    }
    if (retired > 0) {
      responses_written_.fetch_add(retired, std::memory_order_relaxed);
    }
  }
  update_interest(conn);
  return true;
}

void NetServer::update_interest(Connection& conn) {
  if (!conn.reading_paused && conn.out.full()) {
    // Write backpressure: a reader that cannot keep up with its responses
    // stops being read — its request stream throttles at the socket instead
    // of growing this buffer without bound.
    conn.reading_paused = true;
    backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
  } else if (conn.reading_paused &&
             conn.out.pending() < config_.max_outbound_bytes / 2) {
    conn.reading_paused = false;
  }
  conn.out.watch(!conn.reading_paused && !conn.draining);
}

void NetServer::close_connection(std::uint64_t conn_id, CloseReason reason) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  loop_.cancel_timer(conn.handshake_timer);
  // Responses parked in the buffer (or still unsent past the flushed mark)
  // die with the connection — counted, never leaked.
  responses_dropped_.fetch_add(conn.pending.size(), std::memory_order_relaxed);
  switch (reason) {
    case CloseReason::kPeer:
      disconnects_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kProtocol:
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kShutdown:
      break;
  }
  loop_.remove_fd(conn.fd);
  ::close(conn.fd);
  connections_.erase(it);
  open_connections_.store(connections_.size(), std::memory_order_relaxed);
}

bool NetServer::flushed_everything() const {
  for (const auto& [id, conn] : connections_) {
    if (conn->out.pending() > 0) return false;
  }
  return true;
}

void NetServer::shutdown() {
  std::scoped_lock lock{shutdown_mutex_};
  if (shut_down_) return;
  shut_down_ = true;

  // Phase 1 (loop): stop accepting and stop reading — after this task runs,
  // no new request can enter the system through this server.
  loop_.post([this] {
    draining_.store(true, std::memory_order_relaxed);
    if (listen_fd_ >= 0) {
      loop_.remove_fd(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (auto& [id, conn] : connections_) {
      conn->draining = true;
      update_interest(*conn);
    }
  });
  loop_.drain();

  // Phase 2: drain the dispatcher — on return every in-flight dispatch has
  // responded, and therefore every response sits in the outbox behind a
  // posted drain task. Phase 3 makes the loop run that task.
  dispatcher_->drain();
  loop_.drain();

  // Phase 4: flush buffered responses until every buffer is empty or the
  // drain timeout passes (a dead/slow peer must not wedge shutdown).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(config_.drain_timeout);
  for (;;) {
    std::promise<bool> done;
    auto future = done.get_future();
    loop_.post([this, &done] { done.set_value(flushed_everything()); });
    if (future.get() || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }

  // Phase 5: close every connection (leftover responses count as dropped),
  // then stop the loop. After this the response ledger is exact.
  loop_.post([this] {
    std::vector<std::uint64_t> ids;
    ids.reserve(connections_.size());
    for (const auto& [id, conn] : connections_) ids.push_back(id);
    for (const std::uint64_t id : ids) {
      close_connection(id, CloseReason::kShutdown);
    }
  });
  loop_.drain();
  loop_.stop();
  if (loop_thread_.joinable()) loop_thread_.join();
}

NetServerReport NetServer::report() const {
  NetServerReport r;
  r.accepted = accepted_.load(std::memory_order_relaxed);
  r.rejected_accepts = rejected_accepts_.load(std::memory_order_relaxed);
  r.disconnects = disconnects_.load(std::memory_order_relaxed);
  r.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  r.requests_decoded = requests_decoded_.load(std::memory_order_relaxed);
  r.responses_enqueued = responses_enqueued_.load(std::memory_order_relaxed);
  r.responses_written = responses_written_.load(std::memory_order_relaxed);
  r.responses_dropped = responses_dropped_.load(std::memory_order_relaxed);
  r.shed_responses = shed_responses_.load(std::memory_order_relaxed);
  r.backpressure_pauses = backpressure_pauses_.load(std::memory_order_relaxed);
  r.socket_writes = socket_writes_.load(std::memory_order_seq_cst);
  r.open_connections = open_connections_.load(std::memory_order_relaxed);
  r.accept = accept_latency_.summary();
  r.reply = reply_latency_.summary();
  return r;
}

}  // namespace autopn::net
