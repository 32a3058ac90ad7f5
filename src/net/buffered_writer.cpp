#include "net/buffered_writer.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <cerrno>

namespace autopn::net {

void BufferedWriter::attach(int fd, std::uint32_t interest) {
  detach();
  fd_ = fd;
  interest_ = interest;
}

void BufferedWriter::detach() {
  fd_ = -1;
  buf_.clear();
  offset_ = 0;
  flushed_ = 0;
}

bool BufferedWriter::flush() {
  while (offset_ < buf_.size()) {
    const ssize_t n = ::send(fd_, buf_.data() + offset_, buf_.size() - offset_,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      ++writes_;
      offset_ += static_cast<std::size_t>(n);
      flushed_ += static_cast<std::uint64_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n >= 0 || errno != EINTR) {
      return false;
    }
  }
  if (offset_ == buf_.size()) {
    buf_.clear();
    offset_ = 0;
  } else if (offset_ > 65536) {  // keep a stuck queue from only growing
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  return true;
}

void BufferedWriter::watch(bool reading) {
  if (fd_ < 0) return;
  const std::uint32_t events =
      (reading ? static_cast<std::uint32_t>(EPOLLIN) : 0u) |
      (pending() > 0 ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (events == interest_) return;
  loop_.modify_fd(fd_, events);
  interest_ = events;
}

}  // namespace autopn::net
