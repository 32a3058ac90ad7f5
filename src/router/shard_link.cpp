#include "router/shard_link.hpp"

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
      writer_(loop, config_.max_outbound_bytes),
      backoff_seconds_(config_.backoff.initial_backoff_seconds) {
  dial();
}

ShardLink::~ShardLink() { close(); }

bool ShardLink::forward(std::uint64_t token, net::RequestFrame frame) {
  AUTOPN_FAILPOINT("router.backend_down", return false);
  if (state_ != State::kUp || writer_.full()) return false;
  frame.request_id = token;
  schedule_flush();
  net::encode_request(writer_.out(), frame);
  inflight_.insert(token);
  return true;
}

void ShardLink::request_stats() {
  if (state_ != State::kUp || writer_.full()) return;
  schedule_flush();
  net::encode_stats_request(writer_.out());
}

void ShardLink::schedule_flush() {
  // Queued bytes have a flush posted or EPOLLOUT armed already. A post from
  // the loop thread writes no eventfd and runs at the end of this round,
  // after every forward the round makes.
  if (writer_.pending() > 0) return;
  loop_.post([this, alive = std::weak_ptr<void>(alive_)] {
    if (!alive.expired()) flush();
  });
}

void ShardLink::flush() {
  // A writer detached by a teardown since the post has nothing to send.
  if (!writer_.flush()) {
    failed("handshake: send failed");
    return;
  }
  writer_.watch(/*reading=*/true);
}

void ShardLink::reset() {
  if (state_ == State::kUp) failed("shard stopped answering");
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
  loop_.add_fd(fd_, EPOLLOUT, [this](std::uint32_t events) { on_event(events); });
}

void ShardLink::on_event(std::uint32_t events) {
  if (state_ == State::kConnecting) {
    start_handshake();
    return;
  }
  // Answers first: a peer that reset the connection may still have sent
  // some, and they complete before the stranded rest are synthesized.
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    if (!receive()) {
      failed("handshake: connection closed or reset by the shard");
      return;
    }
    dispatch_frames();
  }
  if ((events & EPOLLOUT) != 0) flush();
}

void ShardLink::start_handshake() {
  try {
    net::finish_connect(fd_);
  } catch (const std::exception& error) {
    failed(error.what());
    return;
  }
  state_ = State::kHandshaking;
  writer_.attach(fd_, EPOLLOUT);
  net::encode_hello(writer_.out());
  flush();
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
  writer_.detach();
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
