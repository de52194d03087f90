#pragma once
// POSIX TCP plumbing for the networked tuning fleet (net/serve.hpp): an
// RAII socket, an IPv4 listener, a connector, and SocketStream — a
// std::iostream over a connected socket so the line-oriented tune protocol
// (io/tune_protocol.hpp) runs over TCP unchanged.
//
// SocketStream's streambuf flushes its put area before every refill of the
// get area, so the protocol's request/reply pattern — write stimuli, then
// block reading the next reply — never deadlocks on unflushed output: a
// plain `stream << line << '\n'` followed by `io::read_line(stream, ...)`
// pushes the line onto the wire first. Sends
// use MSG_NOSIGNAL so a peer that disappeared mid-session surfaces as
// stream failure (badbit/eof), never as a process-killing SIGPIPE. A send
// that failed once — peer gone, or not reading for the send timeout —
// fails every later flush at once, so a half-open peer costs its session
// one blocked send, not one per pending write, and no byte is sent twice.
//
// Latency (DESIGN.md §13): every socket from Listener::accept and
// connect_to has TCP_NODELAY set, here and nowhere else. The protocol is
// request/response in small lines; with Nagle on, a line written while
// the previous one is unacknowledged waits for the peer's delayed ACK
// (~40 ms on Linux). With Nagle off, each write leaves at once: the
// streambuf sends its put area once per read, and the fleet relay sends
// each line as it reads it (fleet/balancer.hpp).
//
// All of this is deliberately IPv4-loopback-grade: the serve mode binds
// 127.0.0.1 by default and the bench drives in-process clients. Nothing
// here pretends to be a general networking library.

#include <cstdint>
#include <istream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace effitest::net {

/// Move-only owner of a file descriptor (socket or pipe end).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.release()) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release();
  void close();

  /// SO_RCVTIMEO + SO_SNDTIMEO; 0 disables (block forever). A receive
  /// timeout surfaces as end-of-stream on a SocketStream — the protocol
  /// treats it exactly like a disconnected tester.
  void set_io_timeout(double seconds);

 private:
  int fd_ = -1;
};

/// Buffered std::streambuf over a connected socket (see header comment for
/// the flush-before-read contract).
class SocketStreambuf final : public std::streambuf {
 public:
  explicit SocketStreambuf(Socket socket);
  /// Best-effort flush: the protocol's last lines (`report`, `bye`) are
  /// written right before the session object dies, with no read following
  /// to trigger the flush-before-read path.
  ~SocketStreambuf() override;

  [[nodiscard]] const Socket& socket() const { return socket_; }
  /// True when the last refill ended on the receive timeout: the peer is
  /// still connected but sent nothing, as opposed to closed or reset.
  [[nodiscard]] bool timed_out() const { return timed_out_; }

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  [[nodiscard]] bool flush_put_area();

  Socket socket_;
  std::vector<char> in_;
  std::vector<char> out_;
  /// Part of the put area may already be on the wire (header comment).
  bool send_failed_ = false;
  bool timed_out_ = false;
};

/// The iostream the tune protocol runs over: pass one object as both the
/// `in` and `out` of io::TuneServer::run.
class SocketStream final : public std::iostream {
 public:
  explicit SocketStream(Socket socket)
      : std::iostream(nullptr), buf_(std::move(socket)) {
    rdbuf(&buf_);
  }

  [[nodiscard]] const Socket& socket() const { return buf_.socket(); }
  [[nodiscard]] bool timed_out() const { return buf_.timed_out(); }

 private:
  SocketStreambuf buf_;
};

/// IPv4 listening socket. `port` 0 binds an ephemeral port; `port()`
/// reports the one the kernel chose. Throws std::runtime_error when the
/// address cannot be bound.
class Listener {
 public:
  Listener(const std::string& host, std::uint16_t port, int backlog);

  [[nodiscard]] int fd() const { return socket_.fd(); }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& host() const { return host_; }

  /// Accept one pending connection (the caller has already polled the fd
  /// readable), TCP_NODELAY set. Returns an invalid Socket on transient
  /// failure.
  [[nodiscard]] Socket accept();

  void close() { socket_.close(); }

 private:
  Socket socket_;
  std::string host_;
  std::uint16_t port_ = 0;
};

/// Blocking IPv4 connect, TCP_NODELAY set. Throws std::runtime_error on
/// failure.
[[nodiscard]] Socket connect_to(const std::string& host, std::uint16_t port);

/// connect_with_backoff's delay before its first retry; it doubles per
/// further retry.
inline constexpr double kConnectBackoffBaseSeconds = 0.1;
/// Cap on the doubled connect retry delay.
inline constexpr double kConnectBackoffMaxSeconds = 2.0;

/// connect_to, but riding out ECONNREFUSED during balancer/worker
/// restarts: up to `retries` extra attempts after the first, sleeping
/// kConnectBackoffBaseSeconds * 2^attempt (capped at
/// kConnectBackoffMaxSeconds) scaled by a uniform jitter factor in
/// [0.5, 1) between attempts. The jitter, seeded per call from
/// std::random_device, keeps a fleet of testers restarted together from
/// reconnecting in lockstep. Throws the last failure when all attempts
/// are spent.
[[nodiscard]] Socket connect_with_backoff(const std::string& host,
                                          std::uint16_t port,
                                          std::size_t retries);

/// send(2) all of `data` (MSG_NOSIGNAL, EINTR retried). False when the peer
/// is gone or the send timed out.
bool send_all(int fd, std::string_view data);

/// Half-close helpers (shutdown(2) wrappers; no-ops on an invalid socket).
/// The fleet balancer uses them to pop its peer relay thread out of a
/// blocking recv without racing the fd's lifetime: shutdown leaves the fd
/// open, so the owning Socket's close stays single-threaded.
void shutdown_read(const Socket& socket);
void shutdown_write(const Socket& socket);

}  // namespace effitest::net
