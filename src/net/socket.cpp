#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "stats/rng.hpp"

namespace effitest::net {

namespace {

constexpr std::size_t kBufBytes = 1 << 16;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in ipv4_address(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("net: not an IPv4 address: \"" + host + "\"");
  }
  return addr;
}

/// Nagle off (DESIGN.md §13 "Latency"): every socket the protocol talks
/// over goes through here, so a short line is never held back waiting for
/// the ACK of the one before it.
Socket no_delay(Socket s) {
  const int one = 1;
  if (s.valid()) {
    (void)::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return s;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.release();
  }
  return *this;
}

int Socket::release() { return std::exchange(fd_, -1); }

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::set_io_timeout(double seconds) {
  if (fd_ < 0 || seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

SocketStreambuf::SocketStreambuf(Socket socket)
    : socket_(std::move(socket)), in_(kBufBytes), out_(kBufBytes) {
  setg(in_.data(), in_.data(), in_.data());
  setp(out_.data(), out_.data() + out_.size());
}

SocketStreambuf::~SocketStreambuf() { (void)flush_put_area(); }

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // peer gone (EPIPE/ECONNRESET) or send timeout
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool SocketStreambuf::flush_put_area() {
  if (send_failed_ ||
      !send_all(socket_.fd(),
                {pbase(), static_cast<std::size_t>(pptr() - pbase())})) {
    send_failed_ = true;
    return false;
  }
  setp(out_.data(), out_.data() + out_.size());
  return true;
}

SocketStreambuf::int_type SocketStreambuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  // The protocol is strictly request/response: about to block on the peer,
  // so everything written must be on the wire first.
  if (!flush_put_area()) return traits_type::eof();
  ssize_t n = 0;
  do {
    n = ::recv(socket_.fd(), in_.data(), in_.size(), 0);
  } while (n < 0 && errno == EINTR);
  timed_out_ = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  if (n <= 0) return traits_type::eof();  // closed, reset, or recv timeout
  setg(in_.data(), in_.data(), in_.data() + n);
  return traits_type::to_int_type(*gptr());
}

SocketStreambuf::int_type SocketStreambuf::overflow(int_type ch) {
  if (!flush_put_area()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int SocketStreambuf::sync() { return flush_put_area() ? 0 : -1; }

Listener::Listener(const std::string& host, std::uint16_t port, int backlog)
    : host_(host) {
  const sockaddr_in addr = ipv4_address(host, port);
  Socket s(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!s.valid()) throw_errno("net: socket");
  const int one = 1;
  (void)::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("net: bind " + host + ":" + std::to_string(port));
  }
  if (::listen(s.fd(), backlog) != 0) throw_errno("net: listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw_errno("net: getsockname");
  }
  port_ = ntohs(bound.sin_port);
  socket_ = std::move(s);
}

Socket Listener::accept() {
  int fd = -1;
  do {
    fd = ::accept4(socket_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  return no_delay(Socket(fd));
}

Socket connect_with_backoff(const std::string& host, std::uint16_t port,
                            std::size_t retries) {
  stats::Rng jitter(std::random_device{}());
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return connect_to(host, port);
    } catch (const std::exception&) {
      if (attempt >= retries) throw;
    }
    const double delay =
        std::min(kConnectBackoffBaseSeconds *
                     std::exp2(static_cast<double>(attempt)),
                 kConnectBackoffMaxSeconds) *
        jitter.uniform(0.5, 1.0);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

void shutdown_read(const Socket& socket) {
  if (socket.valid()) (void)::shutdown(socket.fd(), SHUT_RD);
}

void shutdown_write(const Socket& socket) {
  if (socket.valid()) (void)::shutdown(socket.fd(), SHUT_WR);
}

Socket connect_to(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = ipv4_address(host, port);
  Socket s(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!s.valid()) throw_errno("net: socket");
  int rc = 0;
  do {
    rc = ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    throw_errno("net: connect " + host + ":" + std::to_string(port));
  }
  return no_delay(std::move(s));
}

}  // namespace effitest::net
