#pragma once
// The server shell both TCP tiers run on: `serve` (net::TuneServeLoop)
// and `balance` (fleet::FleetBalancer). DESIGN.md §13.
//
// The shell owns everything that is not the per-connection protocol: the
// tune and status listeners, one accept thread, `workers` session threads
// fed from one FIFO queue, the drain self-pipe, the dedicated status-port
// answer, the in-band `status` / `status prometheus` reply, and the
// session instruments every tier reports under its metric prefix. A tier
// constructs it with a handler — the hello/exchange for serve, the relay
// for balance — that runs once per accepted connection on a session
// thread. A tier declares its SessionServer member last, so the shell's
// destructor joins every session thread before anything the handler
// touches is destroyed.
//
// Backpressure is accept-pausing: while `max_pending` accepted connections
// wait unclaimed in the queue the accept loop stops calling accept() and
// new connections wait in the kernel listen backlog — nobody is
// busy-rejected. The status listener stays in the poll set even then.
//
// Drain: request_drain() is async-signal-safe — it flips an atomic and
// writes one byte to a self-pipe the accept loop polls next to the
// listeners. The listeners close immediately, queued and in-flight
// sessions run to completion, then wait() returns.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace effitest::net {

/// The listen-side options every tier shares (net::ServeOptions and
/// fleet::BalancerOptions derive from it).
struct ListenOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0: ephemeral, read the choice from port()
  /// Accept-pausing threshold: stop accepting while this many accepted
  /// connections are not yet claimed by a worker.
  std::size_t max_pending = 64;
  /// Drain automatically after this many accepted sessions; 0 = serve
  /// until request_drain(). The self-terminating mode tests and the CI
  /// smoke step rely on.
  std::size_t max_sessions = 0;
  /// Socket send/receive timeout per session (and per balancer worker leg);
  /// 0 blocks forever. A recv timeout is stream EOF, so a silent peer frees
  /// its session thread. 300 s is far above one live stimulus/response
  /// exchange, yet stalled peers cannot pin every worker for good.
  double io_timeout_seconds = 300.0;
  /// Plaintext status endpoint: every connection to this port immediately
  /// receives one `effitest-status-v1` JSON line and is closed — pollable
  /// with netcat/curl, independent of the tune listener's backpressure
  /// and its max_sessions budget. -1 disables (the default); 0 binds an
  /// ephemeral port, read the choice from status_port().
  int status_port = -1;
};

/// FIFO hand-off from the accept thread to the session threads: an idle
/// worker takes the oldest accepted connection, so sessions start in
/// accept order and no worker idles while a connection waits. One lock at
/// session granularity (a task is a whole TCP connection); the microtask
/// scheduler is parallel/thread_pool.hpp.
template <typename Task>
class SessionQueue {
 public:
  /// Enqueue at the back. Returns false (task dropped) after close().
  bool push(Task task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      tasks_.push_back(std::move(task));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocking pop of the oldest task. Empty optional = closed and fully
  /// drained; the worker should exit.
  [[nodiscard]] std::optional<Task> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !tasks_.empty(); });
    if (tasks_.empty()) return std::nullopt;
    std::optional<Task> task(std::move(tasks_.front()));
    tasks_.pop_front();
    return task;
  }

  /// No further pushes; blocked workers drain the backlog then exit.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  /// Tasks accepted but not yet claimed (the backpressure signal and the
  /// `<prefix>.queue_depth` gauge).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Task> tasks_;
  bool closed_ = false;
};

class SessionServer {
 public:
  using Handler = std::function<void(Socket)>;

  /// Registers `<prefix>.sessions_completed`, `.sessions_failed`,
  /// `.status_requests`, `.active_sessions`, `.wall_seconds`,
  /// `.sessions_per_sec` and `.queue_depth` in `registry`, which must
  /// outlive the shell. `prefix` also labels start() errors.
  SessionServer(std::string prefix, const ListenOptions& options,
                std::size_t workers, obs::MetricsRegistry& registry,
                Handler handler);
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Bind, listen, spawn the accept thread and the session threads.
  /// Throws std::runtime_error when an address cannot be bound.
  void start();

  /// Valid after start(); the kernel's choice when the port option was 0.
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Valid after start() when status_port >= 0; 0 otherwise.
  [[nodiscard]] std::uint16_t status_port() const { return status_port_; }

  /// Async-signal-safe (atomic store + one pipe write): stop accepting,
  /// finish queued and in-flight sessions. Idempotent.
  void request_drain();

  /// Until wait() returns, SIGTERM and SIGINT call request_drain(); wait()
  /// then restores their default dispositions. One server at a time.
  void drain_on_signals();

  /// Join everything; returns once the last session finished. Idempotent.
  void wait();

  /// Registry snapshot with the wall-clock gauges refreshed; they freeze
  /// at drain time, so a late read of the end-of-run summary is stable.
  [[nodiscard]] obs::RegistrySnapshot metrics() const;

  /// metrics() rendered as one `effitest-status-v1` JSON line (no '\n').
  [[nodiscard]] std::string status_json() const;

  /// The reply to a connection whose first line is `status` (JSON line)
  /// or `status prometheus` (text exposition); nullopt for any other
  /// line. A status request is counted in `<prefix>.status_requests`
  /// before rendering, so every reply includes itself, and never in the
  /// session counters.
  [[nodiscard]] std::optional<std::string> status_reply(
      const std::string& first_line);

  /// Session bookkeeping for the handler: begin once the first line is a
  /// session (not a status request), end with its outcome.
  void begin_session();
  void end_session(bool completed);

 private:
  void accept_loop();
  void answer_status_connection();

  std::string prefix_;
  ListenOptions options_;
  std::size_t workers_;
  obs::MetricsRegistry* registry_;
  Handler handler_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<Listener> status_listener_;
  std::uint16_t port_ = 0;
  std::uint16_t status_port_ = 0;
  SessionQueue<Socket> queue_;
  std::vector<std::thread> threads_;
  Socket drain_pipe_r_;
  Socket drain_pipe_w_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  // Cached instruments: lock-free on the session path, valid for the
  // registry's lifetime.
  obs::Counter* completed_;
  obs::Counter* failed_;
  obs::Counter* status_requests_;
  obs::Gauge* active_sessions_;
  obs::Gauge* wall_seconds_;
  obs::Gauge* sessions_per_sec_;

  // Wall-clock epoch, guarded by time_mutex_ (not on the session path).
  mutable std::mutex time_mutex_;
  std::chrono::steady_clock::time_point started_at_{};
  std::chrono::steady_clock::time_point drained_at_{};
  bool drained_ = false;
};

}  // namespace effitest::net
