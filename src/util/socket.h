// Thin RAII wrappers over POSIX TCP sockets, just enough for the
// newline-delimited-JSON service protocol: a loopback listener, blocking
// accept/connect (optionally bounded by a connect timeout), full-buffer
// writes and a buffered line reader with an optional receive deadline.  All
// failures surface as std::runtime_error with errno text — a timed-out
// connect or read says so explicitly, which is what lets callers tell an
// unreachable daemon from a closed one; no global state, no third-party
// dependency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace clktune::util {

/// Move-only owner of a socket file descriptor.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket() { close(); }

  TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Idempotent; also safe to call from another thread to unblock a
  /// blocking accept()/read() on this socket.
  void close();

 private:
  int fd_ = -1;
};

/// Listens on 127.0.0.1:`port` (0 = ephemeral, query via tcp_local_port).
TcpSocket tcp_listen(std::uint16_t port, int backlog = 16);

/// Port a bound socket actually listens on.
std::uint16_t tcp_local_port(const TcpSocket& socket);

/// Blocks for the next connection; returns an invalid socket when the
/// listener has been shut down or closed (the orderly-shutdown path).
TcpSocket tcp_accept(const TcpSocket& listener);

/// Connects to `host`:`port` (name resolution included).
/// `connect_timeout_ms` > 0 bounds the connect attempt; 0 blocks
/// indefinitely.  A timeout throws std::runtime_error whose message
/// contains "timed out".
TcpSocket tcp_connect(const std::string& host, std::uint16_t port,
                      int connect_timeout_ms = 0);

/// Bounds every subsequent recv() on `socket` (SO_RCVTIMEO); 0 removes the
/// deadline.  A read that hits the deadline surfaces from LineReader as a
/// std::runtime_error containing "timed out".
void tcp_set_recv_timeout(const TcpSocket& socket, int timeout_ms);

/// Writes all of `data`, looping over partial sends.
void tcp_write_all(const TcpSocket& socket, std::string_view data);

/// Discards whatever is already buffered in the socket's receive queue
/// without blocking.  Closing a socket with unread data makes TCP reset
/// the connection and discard in-flight response bytes — a server that
/// answers-then-closes without reading the request (the backpressure
/// path) must drain first or the client never sees the answer.
void tcp_drain_pending(const TcpSocket& socket);

/// Thrown by LineReader::read_line for a line longer than the reader's cap.
class LineTooLong : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Buffered reader of '\n'-terminated lines from one socket.
class LineReader {
 public:
  /// A line longer than `max_line` bytes (terminator excluded) throws
  /// LineTooLong as soon as the reader holds more than that without a
  /// newline, so a peer can never make it buffer much beyond the cap.
  explicit LineReader(
      const TcpSocket& socket,
      std::size_t max_line = std::numeric_limits<std::size_t>::max())
      : socket_(&socket), max_line_(max_line) {}

  /// Next line without the terminator; false on clean EOF (a trailing
  /// unterminated fragment is returned as a final line first).  When the
  /// socket carries a recv deadline (tcp_set_recv_timeout) and it expires,
  /// throws std::runtime_error("socket: recv() timed out ...") instead of
  /// masquerading as EOF — a stalled daemon must look different from a
  /// closed connection.
  bool read_line(std::string& line);

 private:
  const TcpSocket* socket_;
  std::size_t max_line_;
  std::string buffer_;
  std::size_t scanned_ = 0;  // leading bytes of buffer_ known to hold no '\n'
  bool eof_ = false;
};

}  // namespace clktune::util
