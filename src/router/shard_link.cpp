#include "router/shard_link.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

#include "util/failpoint.hpp"

namespace autopn::router {

ShardLink::ShardLink(net::EventLoop& loop, ShardAddress address,
                     ShardLinkConfig config, ResponseFn on_response)
    : loop_(loop),
      address_(std::move(address)),
      config_(config),
      on_response_(std::move(on_response)),
      backoff_seconds_(config_.backoff.initial_backoff_seconds) {
  dial();
}

ShardLink::~ShardLink() { close(); }

bool ShardLink::forward(std::uint64_t token, net::RequestFrame frame) {
  AUTOPN_FAILPOINT("router.backend_down", return false);
  if (state_ != State::kUp) return false;
  frame.request_id = token;
  send_buf_.clear();
  net::encode_request(send_buf_, frame);
  if (!send_buffer()) return false;
  inflight_.insert(token);
  return true;
}

void ShardLink::request_stats() {
  if (state_ != State::kUp) return;
  send_buf_.clear();
  net::encode_stats_request(send_buf_);
  (void)send_buffer();
}

bool ShardLink::send_buffer() {
  // Blocks until the shard has taken the whole frame, but keeps reading its
  // answers meanwhile: a shard whose unread answers fill its outbound
  // buffer stops reading, and the loop and the shard would wait on each
  // other for good. Frames read here are only buffered (completing one
  // could forward through this link mid-frame); a zero-delay timer hands
  // them on once this send is done.
  std::size_t sent = 0;
  while (sent < send_buf_.size()) {
    const ssize_t n = ::send(fd_, send_buf_.data() + sent,
                             send_buf_.size() - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                         errno == EINTR)) {
      pollfd pfd{fd_, POLLIN | POLLOUT, 0};
      if (::poll(&pfd, 1, -1) <= 0 || (pfd.revents & POLLIN) == 0) continue;
      if (!receive()) break;
      if (timer_ == 0) {
        timer_ = loop_.add_timer(0.0, [this] {
          timer_ = 0;
          dispatch_frames();
        });
      }
    } else {
      break;
    }
  }
  if (sent == send_buf_.size()) return true;
  // The fd handler sees the shutdown and tears the connection down.
  ::shutdown(fd_, SHUT_RDWR);
  return false;
}

void ShardLink::dial() {
  state_ = State::kConnecting;
  try {
    fd_ = net::start_connect(address_.host, address_.port);
  } catch (const std::exception& error) {
    failed(error.what());
    return;
  }
  timer_ = loop_.add_timer(config_.backoff.attempt_timeout_seconds, [this] {
    timer_ = 0;
    failed(state_ == State::kConnecting
               ? "connect: " + std::string{std::strerror(ETIMEDOUT)}
               : "handshake: no HelloAck before the attempt timeout");
  });
  // A connect that completed at once reports EPOLLOUT right away.
  loop_.add_fd(fd_, EPOLLOUT, [this](std::uint32_t /*events*/) {
    if (state_ == State::kConnecting) {
      start_handshake();
    } else if (receive()) {
      dispatch_frames();
    } else {
      failed("handshake: connection closed or reset by the shard");
    }
  });
}

void ShardLink::start_handshake() {
  try {
    net::finish_connect(fd_);
  } catch (const std::exception& error) {
    failed(error.what());
    return;
  }
  loop_.modify_fd(fd_, EPOLLIN);
  state_ = State::kHandshaking;
  send_buf_.clear();
  net::encode_hello(send_buf_);
  if (!net::send_all(fd_, send_buf_.data(), send_buf_.size())) {
    failed("handshake: send failed");
  }
}

bool ShardLink::receive() {
  std::array<std::uint8_t, 16384> buf;
  const ssize_t n = ::recv(fd_, buf.data(), buf.size(), MSG_DONTWAIT);
  if (n > 0) decoder_.feed(buf.data(), static_cast<std::size_t>(n));
  // Nothing to read yet is not a failure: level-triggered epoll reports a
  // real event again.
  return n > 0 ||
         (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR));
}

void ShardLink::dispatch_frames() {
  while (std::optional<net::Frame> frame = decoder_.next()) {
    if (!on_frame(*frame)) {
      failed("handshake: no accepting HelloAck (wire version mismatch?)");
      return;
    }
  }
  if (decoder_.failed()) failed("handshake: " + decoder_.error());
}

bool ShardLink::on_frame(const net::Frame& frame) {
  if (state_ == State::kHandshaking) {
    if (frame.type != net::FrameType::kHelloAck) return false;
    const auto ack = net::parse_hello_ack(frame.body);
    if (!ack || !ack->ok) return false;
    cancel_timer();
    state_ = State::kUp;
    ++reconnects_;
    budget_exhausted_ = false;
    outage_failures_ = 0;
    backoff_seconds_ = config_.backoff.initial_backoff_seconds;
    return true;
  }
  if (frame.type == net::FrameType::kStatsResponse) {
    std::optional<net::StatsFrame> stats = net::parse_stats(frame.body);
    if (!stats) return false;
    latest_stats_ = std::move(stats);
    ++stats_received_;
    return true;
  }
  if (frame.type != net::FrameType::kResponse) return false;
  std::optional<net::ResponseFrame> response =
      net::parse_response(frame.body);
  if (!response) return false;
  // Unknown id = a response for a request this link never sent; a
  // well-behaved shard cannot produce one, so it is dropped here rather
  // than forwarded to a token it does not own.
  if (inflight_.erase(response->request_id) == 0) return true;
  on_response_(response->request_id, std::move(*response));
  return true;
}

void ShardLink::failed(std::string reason) {
  // Down first, so a forward() reached from a synthesized completion fails
  // fast.
  const bool was_up = state_ == State::kUp;
  state_ = State::kDown;
  cancel_timer();
  drop_socket();
  if (was_up) {
    // A lost connection, not a failed dial: answer every stranded token
    // (the router's ledger needs every forwarded request answered by
    // someone, and the shard no longer can), then redial at once.
    synthesize_all();
    if (state_ == State::kDown) dial();
    return;
  }
  ++outage_failures_;
  ++redial_attempts_;
  last_error_ = std::move(reason);
  // Once this outage burns the budget, stop escalating the backoff and
  // drop to the slow dead-probe cadence — the health machine reads
  // budget_exhausted() to declare the shard dead, but the probe keeps
  // running so a resurrected backend is still noticed.
  double wait_seconds = backoff_seconds_;
  if (config_.redial_budget > 0 && outage_failures_ >= config_.redial_budget) {
    budget_exhausted_ = true;
    wait_seconds = std::max(config_.dead_probe_seconds,
                            config_.backoff.initial_backoff_seconds);
  } else {
    backoff_seconds_ =
        std::min(backoff_seconds_ * 2.0, config_.backoff.max_backoff_seconds);
  }
  timer_ = loop_.add_timer(wait_seconds, [this] {
    timer_ = 0;
    dial();
  });
}

void ShardLink::drop_socket() {
  if (fd_ >= 0) {
    loop_.remove_fd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  decoder_.reset();
}

void ShardLink::cancel_timer() {
  if (timer_ != 0) loop_.cancel_timer(std::exchange(timer_, 0));
}

void ShardLink::synthesize_all() {
  // Swapped out first: forward() cannot add entries while the link is not
  // up, so the extracted set is complete.
  std::unordered_set<std::uint64_t> stranded;
  stranded.swap(inflight_);
  for (const std::uint64_t token : stranded) {
    net::ResponseFrame response;
    response.status = net::Status::kShed;
    response.retry_after_us = config_.shed_retry_after_us;
    response.shed_origin = net::ShedOrigin::kRouter;
    // A link-level flush is a blip, not a verdict: the shard may be mid-
    // restart. Only the router's health machine escalates to kDeadBackend.
    response.shed_detail = net::ShedDetail::kTransient;
    on_response_(token, std::move(response));
  }
}

void ShardLink::close() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  cancel_timer();
  drop_socket();
  synthesize_all();
}

}  // namespace autopn::router
