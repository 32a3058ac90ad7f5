#pragma once
// BufferedWriter — the outbound side of one socket on an EventLoop, shared by
// NetServer connections and router::ShardLink. Owners append whole frames;
// flush() sends what the socket takes without blocking and keeps the rest
// for EPOLLOUT, so the loop thread never waits on a peer. Once attached,
// the writer owns the fd's epoll mask (EPOLLOUT exactly while bytes are
// queued, EPOLLIN while the owner reads): the owner calls watch() after a
// flush and after changing whether it reads, and epoll_ctl runs only when
// the mask changes. Loop thread only; the owner registers and closes the fd.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/event_loop.hpp"

namespace autopn::net {

class BufferedWriter {
 public:
  /// full() means more than `max_bytes` queued.
  BufferedWriter(EventLoop& loop, std::size_t max_bytes)
      : loop_(loop), max_bytes_(max_bytes) {}

  /// Adopts `fd`, registered with `interest`. Bytes queued for an earlier
  /// socket are dropped: a new connection never sends the old one's bytes.
  void attach(int fd, std::uint32_t interest);
  void detach();  ///< forgets the socket and every queued byte

  /// The queue itself, for the wire encoders: append only.
  [[nodiscard]] std::vector<std::uint8_t>& out() noexcept { return buf_; }
  void append(const std::vector<std::uint8_t>& bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  /// Sends what the socket takes without blocking; false when the socket
  /// failed, and the owner tears the connection down. The mask is left to
  /// watch(), so a flush that also pauses or resumes reading costs one
  /// epoll_ctl, not two.
  [[nodiscard]] bool flush();
  /// Registers EPOLLIN if `reading` and EPOLLOUT while bytes are queued.
  void watch(bool reading);

  [[nodiscard]] std::size_t pending() const noexcept {
    return buf_.size() - offset_;
  }
  [[nodiscard]] bool full() const noexcept { return pending() > max_bytes_; }
  /// Byte marks since attach(): a frame appended at queued() == q is on the
  /// wire once flushed() >= q + its size.
  [[nodiscard]] std::uint64_t flushed() const noexcept { return flushed_; }
  [[nodiscard]] std::uint64_t queued() const noexcept {
    return flushed_ + pending();
  }
  /// Lifetime count of send() calls that moved bytes.
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }

 private:
  EventLoop& loop_;
  std::size_t max_bytes_;
  int fd_ = -1;
  std::uint32_t interest_ = 0;  ///< epoll mask last registered for fd_
  std::vector<std::uint8_t> buf_;
  std::size_t offset_ = 0;  ///< flushed prefix of buf_
  std::uint64_t flushed_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace autopn::net
