#include "net/session_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <stdexcept>

namespace effitest::net {

namespace {

/// The kernel listen backlog absorbs bursts while accepts are paused.
constexpr int kListenBacklog = 512;

/// A status-port poller gets one bounded read of whatever it sent before
/// the close (see answer_status_connection).
constexpr std::size_t kStatusDiscardBytes = 4096;

/// The server drain_on_signals() bound; read by the signal handler.
std::atomic<SessionServer*> g_signal_target{nullptr};

extern "C" void drain_signal_handler(int) {
  if (SessionServer* server = g_signal_target.load()) server->request_drain();
}

}  // namespace

SessionServer::SessionServer(std::string prefix, const ListenOptions& options,
                             std::size_t workers,
                             obs::MetricsRegistry& registry, Handler handler)
    : prefix_(std::move(prefix)),
      options_(options),
      workers_(workers == 0 ? 1 : workers),
      registry_(&registry),
      handler_(std::move(handler)),
      completed_(&registry.counter(prefix_ + ".sessions_completed")),
      failed_(&registry.counter(prefix_ + ".sessions_failed")),
      status_requests_(&registry.counter(prefix_ + ".status_requests")),
      active_sessions_(&registry.gauge(prefix_ + ".active_sessions")),
      wall_seconds_(&registry.gauge(prefix_ + ".wall_seconds")),
      sessions_per_sec_(&registry.gauge(prefix_ + ".sessions_per_sec")) {
  // Bound before any thread exists (the Gauge::bind contract).
  registry.gauge(prefix_ + ".queue_depth").bind([this] {
    return static_cast<double>(queue_.size());
  });
}

SessionServer::~SessionServer() {
  request_drain();
  wait();
}

void SessionServer::start() {
  if (started_.exchange(true)) {
    throw std::logic_error(prefix_ + ": start() called twice");
  }
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error(prefix_ + ": pipe failed");
  }
  drain_pipe_r_ = Socket(pipe_fds[0]);
  drain_pipe_w_ = Socket(pipe_fds[1]);
  listener_ =
      std::make_unique<Listener>(options_.host, options_.port, kListenBacklog);
  port_ = listener_->port();
  if (options_.status_port >= 0) {
    status_listener_ = std::make_unique<Listener>(
        options_.host, static_cast<std::uint16_t>(options_.status_port),
        kListenBacklog);
    status_port_ = status_listener_->port();
  }
  {
    std::lock_guard<std::mutex> lock(time_mutex_);
    started_at_ = std::chrono::steady_clock::now();
  }
  threads_.reserve(workers_ + 1);
  threads_.emplace_back([this] { accept_loop(); });
  for (std::size_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this] {
      while (std::optional<Socket> conn = queue_.pop()) {
        handler_(std::move(*conn));
      }
    });
  }
}

void SessionServer::request_drain() {
  // Called from signal handlers: atomic store + one write(2), nothing else.
  if (draining_.exchange(true)) return;
  if (drain_pipe_w_.valid()) {
    const char byte = 'd';
    (void)!::write(drain_pipe_w_.fd(), &byte, 1);
  }
}

void SessionServer::drain_on_signals() {
  g_signal_target.store(this);
  std::signal(SIGTERM, drain_signal_handler);
  std::signal(SIGINT, drain_signal_handler);
}

void SessionServer::wait() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  if (g_signal_target.load() == this) {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_signal_target.store(nullptr);
  }
  std::lock_guard<std::mutex> lock(time_mutex_);
  if (!drained_ && started_.load()) {
    drained_ = true;
    drained_at_ = std::chrono::steady_clock::now();
  }
}

void SessionServer::accept_loop() {
  std::size_t accepted = 0;
  while (!draining_.load(std::memory_order_relaxed)) {
    // With the backlog full, stop watching the tune listener and re-check
    // the queue on a short tick. The status listener stays in the poll set
    // even then: observability must keep answering exactly when the fleet
    // is saturated.
    const bool paused = queue_.size() >= options_.max_pending;
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = {drain_pipe_r_.fd(), POLLIN, 0};
    std::size_t tune_idx = 0;
    if (!paused) {
      tune_idx = nfds;
      fds[nfds++] = {listener_->fd(), POLLIN, 0};
    }
    std::size_t status_idx = 0;
    if (status_listener_ != nullptr) {
      status_idx = nfds;
      fds[nfds++] = {status_listener_->fd(), POLLIN, 0};
    }
    const int n = ::poll(fds, nfds, paused ? 50 : 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;  // drain requested
    if (status_idx != 0 && (fds[status_idx].revents & POLLIN) != 0) {
      answer_status_connection();
    }
    if (paused || n == 0 || (fds[tune_idx].revents & POLLIN) == 0) continue;
    Socket conn = listener_->accept();
    if (!conn.valid()) continue;
    conn.set_io_timeout(options_.io_timeout_seconds);
    (void)queue_.push(std::move(conn));
    ++accepted;
    if (options_.max_sessions != 0 && accepted >= options_.max_sessions) {
      request_drain();
      break;
    }
  }
  // Stop the kernel from queueing more connections, then let the workers
  // finish everything already accepted.
  listener_->close();
  if (status_listener_ != nullptr) status_listener_->close();
  queue_.close();
}

void SessionServer::answer_status_connection() {
  // Runs on the accept thread, so every step is bounded: a short send
  // timeout, then at most one read.
  Socket conn = status_listener_->accept();
  if (!conn.valid()) return;
  conn.set_io_timeout(1.0);
  SocketStream stream(std::move(conn));
  stream << *status_reply("status");
  stream.flush();
  // Discard what the poller sent (fetch_status writes "status\n" to work
  // against both kinds of status socket) before closing: closing with
  // unread input makes TCP answer the client's bytes with an RST, which
  // can destroy the reply still sitting in its receive buffer. One
  // bounded recv, never a read to end of line: a peer trickling
  // newline-free bytes would otherwise pin the accept thread forever.
  char discard[kStatusDiscardBytes];
  (void)::recv(stream.socket().fd(), discard, sizeof(discard), 0);
}

obs::RegistrySnapshot SessionServer::metrics() const {
  double wall = 0.0;
  {
    std::lock_guard<std::mutex> lock(time_mutex_);
    if (started_at_.time_since_epoch().count() != 0) {
      const auto end =
          drained_ ? drained_at_ : std::chrono::steady_clock::now();
      wall = std::chrono::duration<double>(end - started_at_).count();
    }
  }
  wall_seconds_->set(wall);
  sessions_per_sec_->set(
      wall > 0.0 ? static_cast<double>(completed_->value()) / wall : 0.0);
  return registry_->snapshot();
}

std::string SessionServer::status_json() const {
  return obs::render_status_json(metrics());
}

std::optional<std::string> SessionServer::status_reply(
    const std::string& first_line) {
  const bool json = first_line == "status";
  if (!json && first_line != "status prometheus") return std::nullopt;
  status_requests_->inc();  // before rendering, so the reply includes itself
  return json ? status_json() + "\n" : obs::render_prometheus_text(metrics());
}

void SessionServer::begin_session() { active_sessions_->add(1.0); }

void SessionServer::end_session(bool completed) {
  active_sessions_->add(-1.0);
  (completed ? completed_ : failed_)->inc();
}

}  // namespace effitest::net
