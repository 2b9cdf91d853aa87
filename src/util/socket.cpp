#include "util/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "fault/fault.h"

namespace clktune::util {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("socket: " + what + ": " +
                           std::strerror(errno));
}

/// Connect with a deadline: flip the socket non-blocking, start the
/// connect, poll for writability, read the outcome from SO_ERROR, restore
/// blocking mode.  Returns 0 on success, the failing errno otherwise
/// (ETIMEDOUT when the deadline expired).
int connect_with_timeout(int fd, const sockaddr* addr, socklen_t addrlen,
                         int timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    return errno;
  int result = 0;
  if (::connect(fd, addr, addrlen) != 0) {
    if (errno != EINPROGRESS) {
      result = errno;
    } else {
      pollfd waiter{};
      waiter.fd = fd;
      waiter.events = POLLOUT;
      int rc;
      do {
        rc = ::poll(&waiter, 1, timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        result = ETIMEDOUT;
      } else if (rc < 0) {
        result = errno;
      } else {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0)
          result = errno;
        else
          result = so_error;
      }
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0 && result == 0) result = errno;
  return result;
}

}  // namespace

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpSocket::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);  // unblocks accept()/recv() in other threads
    ::close(fd_);
    fd_ = -1;
  }
}

TcpSocket tcp_listen(std::uint16_t port, int backlog) {
  TcpSocket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) fail("socket()");
  const int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    fail("bind(127.0.0.1:" + std::to_string(port) + ")");
  if (::listen(socket.fd(), backlog) != 0) fail("listen()");
  return socket;
}

std::uint16_t tcp_local_port(const TcpSocket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0)
    fail("getsockname()");
  return ntohs(addr.sin_port);
}

TcpSocket tcp_accept(const TcpSocket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) return TcpSocket(fd);
    if (errno == EINTR) continue;
    return TcpSocket();  // listener shut down (EINVAL), closed (EBADF) or fatal
  }
}

TcpSocket tcp_connect(const std::string& host, std::uint16_t port,
                      int connect_timeout_ms) {
  // Injection: `fail` models a refused connection, `timeout` an expired
  // deadline, `delay` a slow accept queue.
  if (fault::armed()) fault::check("socket.connect");
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &results);
  if (rc != 0)
    throw std::runtime_error("socket: cannot resolve " + host + ": " +
                             gai_strerror(rc));

  TcpSocket socket;
  int last_errno = ECONNREFUSED;
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    TcpSocket candidate(
        ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!candidate.valid()) continue;
    const int err =
        connect_timeout_ms > 0
            ? connect_with_timeout(candidate.fd(), ai->ai_addr,
                                   ai->ai_addrlen, connect_timeout_ms)
            : (::connect(candidate.fd(), ai->ai_addr, ai->ai_addrlen) == 0
                   ? 0
                   : errno);
    if (err == 0) {
      socket = std::move(candidate);
      break;
    }
    last_errno = err;
  }
  ::freeaddrinfo(results);
  if (!socket.valid()) {
    const std::string target = host + ":" + std::to_string(port);
    // A kernel-level ETIMEDOUT in block-forever mode (no deadline set)
    // must not claim a "0 ms" deadline expired — fall through to errno.
    if (last_errno == ETIMEDOUT && connect_timeout_ms > 0)
      throw std::runtime_error("socket: connect(" + target +
                               ") timed out after " +
                               std::to_string(connect_timeout_ms) + " ms");
    errno = last_errno;
    fail("connect(" + target + ")");
  }
  return socket;
}

void tcp_set_recv_timeout(const TcpSocket& socket, int timeout_ms) {
  timeval deadline{};
  deadline.tv_sec = timeout_ms / 1000;
  deadline.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &deadline,
                   sizeof(deadline)) != 0)
    fail("setsockopt(SO_RCVTIMEO)");
}

void tcp_write_all(const TcpSocket& socket, std::string_view data) {
  // Injection: `reset`/`fail` abort before any byte leaves; `truncate`
  // sends only keep_bytes of the frame and then fails, so the peer
  // observes a torn line (no trailing newline) followed by close.
  std::size_t limit = data.size();
  bool tear = false;
  if (fault::armed()) {
    const fault::Fired fired = fault::check("socket.write");
    if (fired.action == fault::Action::truncate) {
      limit = std::min(limit, fired.keep_bytes);
      tear = true;
    }
  }
  std::size_t sent = 0;
  while (sent < limit) {
    const ssize_t n = ::send(socket.fd(), data.data() + sent, limit - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send()");
    }
    sent += static_cast<std::size_t>(n);
  }
  if (tear)
    throw std::runtime_error(
        "socket: fault injected at socket.write: frame torn after " +
        std::to_string(limit) + " bytes");
}

void tcp_drain_pending(const TcpSocket& socket) {
  char discard[4096];
  for (;;) {
    const ssize_t n =
        ::recv(socket.fd(), discard, sizeof(discard), MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // empty queue (EAGAIN), EOF, or error — nothing left to eat
    }
  }
}

bool LineReader::read_line(std::string& line) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    if (eof_) {
      if (buffer_.empty()) return false;
      line = std::move(buffer_);
      buffer_.clear();
      return true;
    }
    // Injection: `reset` throws as a mid-stream connection reset, `delay`
    // models a slow peer (exercises the recv deadline and the stuck-job
    // watchdog without touching kernel state).
    if (fault::armed()) fault::check("socket.read");
    char chunk[4096];
    const ssize_t n = ::recv(socket_->fd(), chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw std::runtime_error(
            "socket: recv() timed out waiting for the peer");
      eof_ = true;  // treat a reset peer as end of stream
    } else if (n == 0) {
      eof_ = true;
    } else {
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }
}

}  // namespace clktune::util
