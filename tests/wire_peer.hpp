#pragma once
// Hand-driven wire peers for the router tests: a loopback socket the test
// reads and writes frame by frame (WirePeer), and a fake shard that accepts
// one connection at a time and answers only what the test tells it to
// (FakeShard). A fake shard that never reads models a stopped or stalled
// backend; closing it with unread bytes makes the kernel reset the link.
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/wire.hpp"

namespace autopn::peers {

class WirePeer {
 public:
  WirePeer() = default;
  explicit WirePeer(int fd) : fd_(fd) {}
  ~WirePeer() { close(); }
  WirePeer(WirePeer&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), decoder_(std::move(other.decoder_)) {}
  WirePeer& operator=(WirePeer&& other) noexcept {
    close();
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    return *this;
  }

  /// A blocking client socket to 127.0.0.1:port (no handshake sent).
  static WirePeer connect(std::uint16_t port) {
    const int fd = net::start_connect("127.0.0.1", port);
    pollfd pfd{fd, POLLOUT, 0};
    ::poll(&pfd, 1, 5000);
    net::finish_connect(fd);
    return WirePeer{fd};
  }

  /// One send of all of `bytes` (blocking).
  bool send(const std::vector<std::uint8_t>& bytes) {
    return net::send_all(fd_, bytes.data(), bytes.size());
  }

  /// Frames read until `max` arrived or `timeout_seconds` passed.
  std::vector<net::Frame> read_frames(
      double timeout_seconds,
      std::size_t max = std::numeric_limits<std::size_t>::max()) {
    std::vector<net::Frame> frames;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_seconds);
    while (frames.size() < max) {
      while (frames.size() < max) {
        std::optional<net::Frame> frame = decoder_.next();
        if (!frame) break;
        frames.push_back(std::move(*frame));
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (frames.size() >= max || left.count() <= 0) break;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      std::array<std::uint8_t, 16384> buf;
      const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
      if (n <= 0) break;
      decoder_.feed(buf.data(), static_cast<std::size_t>(n));
    }
    return frames;
  }

  /// Closes the socket; with unread bytes the kernel sends a reset.
  void close() {
    if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  }

 private:
  int fd_ = -1;
  net::FrameDecoder decoder_;
};

class FakeShard {
 public:
  /// `rcvbuf` > 0 shrinks the accepted sockets' receive buffers, so a fake
  /// shard that stops reading stops the sender after a few KB.
  explicit FakeShard(int rcvbuf = 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (rcvbuf > 0) {
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_fd_, 4);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~FakeShard() { close(); }
  FakeShard(const FakeShard&) = delete;
  FakeShard& operator=(const FakeShard&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  WirePeer& connection() noexcept { return conn_; }

  /// Accepts the next connection, replacing the current one.
  bool accept(double timeout_seconds = 5.0) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(timeout_seconds * 1000)) <= 0) {
      return false;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) return false;
    conn_ = WirePeer{fd};
    return true;
  }

  /// Reads the Hello and answers HelloAck(ok).
  bool handshake() {
    const std::vector<net::Frame> hello = conn_.read_frames(5.0, 1);
    if (hello.size() != 1 || hello[0].type != net::FrameType::kHello) {
      return false;
    }
    std::vector<std::uint8_t> ack;
    net::encode_hello_ack(ack, net::HelloAckFrame{});
    return conn_.send(ack);
  }

  /// Closes the connection and the listener: redials are refused.
  void close() {
    conn_.close();
    if (listen_fd_ >= 0) ::close(std::exchange(listen_fd_, -1));
  }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  WirePeer conn_;
};

}  // namespace autopn::peers
