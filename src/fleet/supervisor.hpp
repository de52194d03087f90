#pragma once
// Local worker-process supervision for `effitest_cli balance --spawn=N`
// (fleet/balancer.hpp): fork/exec N `serve` children on ephemeral ports,
// scrape each child's `serving on <host>:<port>` banner from a stdout
// pipe, restart crashed children with exponential backoff, and fan a
// drain out as SIGTERM. DESIGN.md §15.
//
// Lifecycle of one child slot:
//
//   spawn -> (banner scraped from the pipe) -> endpoint callback fires
//         -> running -> exit observed by waitpid(WNOHANG)
//         -> if draining or restart disabled: stays down
//         -> else: restart scheduled at now + min(base * 2^n, max),
//            respawned by the monitor when the deadline passes, banner
//            scraped again, endpoint callback fires with the NEW port.
//
// The endpoint callback is how the supervisor plugs into the
// WorkerRegistry: `balance` wires it to registry.update_endpoint(slot, ep)
// so a restarted child (fresh ephemeral port) rejoins the rotation the
// moment its banner appears, without the balancer knowing about processes
// at all.
//
// The child's stdout pipe is kept open and drained for the child's whole
// life — a chatty child must never block on a full pipe — and pipe EOF is
// treated as a crash hint ahead of the next waitpid tick. stderr is
// inherited, so worker drain summaries land on the balancer's stderr.
//
// drain() is NOT async-signal-safe (it calls kill/waitpid/join); the
// balance command's signal handler only requests the balancer's drain,
// and the main thread calls supervisor.drain() after the balancer's
// wait() returns.

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet/registry.hpp"
#include "net/socket.hpp"

namespace effitest::obs {
class StructuredLog;
}  // namespace effitest::obs

namespace effitest::fleet {

/// Parse one child stdout line as a `serving on <host>:<port>` banner;
/// nullopt for anything else (including port 0 or out-of-range ports).
/// Exposed for the fleet fuzz target: child stdout is attacker-adjacent
/// input — a misbehaving worker must not confuse the supervisor.
[[nodiscard]] std::optional<WorkerEndpoint> parse_serving_banner(
    const std::string& line);

/// Restart delay after a child's first consecutive crash; it doubles per
/// further crash and a scraped banner resets it.
inline constexpr double kRestartBackoffBaseSeconds = 0.25;
/// Cap on the doubled restart delay.
inline constexpr double kRestartBackoffMaxSeconds = 5.0;

struct SupervisorOptions {
  /// argv of every child (argv[0] = executable path). The command must
  /// print `serving on <host>:<port>` on stdout when ready — exactly what
  /// `effitest_cli serve --port=0` does.
  std::vector<std::string> argv;
  std::size_t children = 2;
  bool restart_on_crash = true;
  /// start() fails if any child's banner has not appeared within this.
  double startup_timeout_seconds = 60.0;
  obs::StructuredLog* log = nullptr;
};

class ProcessSupervisor {
 public:
  /// `on_endpoint(child, endpoint)` fires every time a child's banner is
  /// scraped — at first spawn and after every restart. Called from
  /// start()'s thread or the monitor thread; must be thread-safe.
  using EndpointCallback =
      std::function<void(std::size_t child, const WorkerEndpoint& endpoint)>;

  ProcessSupervisor(SupervisorOptions options, EndpointCallback on_endpoint);
  ~ProcessSupervisor();

  ProcessSupervisor(const ProcessSupervisor&) = delete;
  ProcessSupervisor& operator=(const ProcessSupervisor&) = delete;

  /// Spawn every child, block until all banners are scraped (throws
  /// std::runtime_error on exec failure or startup timeout), then hand
  /// monitoring to a background thread.
  void start();

  /// The child's current pid (changes across restarts); -1 while down.
  /// The fleet kill tests SIGKILL this directly.
  [[nodiscard]] pid_t pid(std::size_t child) const;
  /// Total restarts performed across all children.
  [[nodiscard]] std::size_t restarts() const;

  /// Graceful shutdown: stop the monitor (no more restarts), SIGTERM every
  /// live child (serve drains: finishes in-flight sessions), then reap
  /// them all. Idempotent.
  void drain();

 private:
  struct Child {
    pid_t pid = -1;
    net::Socket pipe;        ///< read end of the child's stdout
    std::string line_buf;    ///< partial banner line across reads
    bool discarding_line = false;  ///< inside a line over io::kMaxLineBytes
    bool awaiting_banner = false;
    std::size_t restarts = 0;
    bool restart_pending = false;
    std::chrono::steady_clock::time_point restart_at{};
  };

  void spawn_locked(std::size_t index);
  void drain_pipe_locked(std::size_t index);
  void monitor_loop();
  [[nodiscard]] bool all_ready_locked() const;

  SupervisorOptions options_;
  EndpointCallback on_endpoint_;
  mutable std::mutex mutex_;
  std::vector<Child> children_;
  std::thread monitor_;
  net::Socket stop_pipe_r_;
  net::Socket stop_pipe_w_;
  bool monitoring_ = false;
  bool draining_ = false;
  std::size_t total_restarts_ = 0;
};

}  // namespace effitest::fleet
