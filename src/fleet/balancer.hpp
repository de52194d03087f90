#pragma once
// Front balancer for the multi-process tuning fleet (`effitest_cli
// balance`): one listening port, many `serve` worker processes. Testers
// speak plain effitest-tune-v1 to the balancer; each session is routed to
// the least-loaded live worker (fleet/registry.hpp) and relayed byte for
// byte in both directions. DESIGN.md §15.
//
// Session retry / migration: the relay records the client's hello and
// every client line after it, and counts the server lines forwarded since
// the greeting. When the worker connection dies before `bye`, the slot is
// report_failure()'d and the session re-attached to a survivor: same
// hello, greeting checked for the SAME seed base (never re-forwarded),
// recorded lines replayed, and the first K server lines discarded. The
// serve exchange is a deterministic function of the client's line order
// under a fixed seed base, so the client observes one uninterrupted,
// byte-identical session. Retries are bounded by max_session_retries;
// exhaustion sends `error - fleet exhausted ...`. A worker's own
// `error - <reason>` is forwarded and never retried: it would recur on any
// worker. A worker that stays connected but sends nothing for
// io_timeout_seconds is not dead: the session fails without a retry and
// the slot keeps its health, so one stalled exchange on a loaded host
// cannot demote the fleet's only worker.
//
// Wire format: io/tune_protocol.hpp. Lines are relayed verbatim and read
// with io::read_line, so either peer can make the relay hold at most
// io::kMaxLineBytes of one line: an over-long hello or worker line fails
// the session without a retry (a protocol violation, not a death), an
// over-long client line ends it like a disconnect, and a line torn by a
// dying worker is never forwarded. A client whose lines overrun the replay
// backlog (kMaxBacklogBytesPerChip a chip) gets an error and fails.
//
// Relay concurrency: the session's pool thread runs the downlink (worker
// -> client), one more thread the uplink (client -> worker). Each reads
// its direction through its own net::SocketStream and writes with send(2)
// on the raw fd, so no stream is shared. The uplink appends to the replay
// backlog and forwards under the session mutex, ordering a migration's
// replay against live lines. Half-closes (net::shutdown_read/write)
// unblock the peer thread without racing fd lifetimes.
//
// Latency (DESIGN.md §13): each direction forwards a line with one
// send(2) as soon as it has read it whole. Both sockets have TCP_NODELAY
// (net/socket.hpp), so the line leaves at once instead of waiting for the
// ACK of the one before it.
//
// Accept/drain: the net::SessionServer shell (net/session_server.hpp)
// shared with TuneServeLoop; a drain lets every in-flight session finish,
// migrations included. DESIGN.md §15.

#include <cstddef>
#include <cstdint>
#include <string>

#include "fleet/registry.hpp"
#include "net/session_server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace effitest::obs {
class StructuredLog;
}  // namespace effitest::obs

namespace effitest::fleet {

struct BalancerOptions : net::ListenOptions {
  /// Concurrent relay sessions (each also spawns one uplink thread).
  std::size_t relay_workers = 8;
  /// Re-attach attempts after a session's first worker dies; attempt
  /// 1 + max_session_retries failing (or no acquirable worker) is fleet
  /// exhaustion.
  std::size_t max_session_retries = 2;
  obs::StructuredLog* log = nullptr;
};

/// Pause before each re-attach, so a just-killed worker's supervisor
/// restart and the registry's probe re-admission get a beat to land.
inline constexpr double kAttachBackoffSeconds = 0.05;

/// Replay backlog a session may hold per chip its hello declares. A tester
/// sends one `response` line per stimulus: `tune --simulate --chips=50`
/// measures at most 4,060 bytes for one chip (158 lines, s38417, the
/// catalog's worst), about 4.6 KB with 6-digit chip ids. 16 KiB is 3.5x
/// that, so the largest session a worker admits (100,000 chips,
/// ServeOptions::max_chips_per_session) relays in full.
inline constexpr std::size_t kMaxBacklogBytesPerChip = 16 * 1024;

// Fleet-level metric names (the balancer's own obs::MetricsRegistry —
// disjoint from the serve.* names so a dashboard scraping both tiers
// never collides). Per-worker gauges fleet.worker<slot>.live_sessions
// (balancer-side in-flight) and fleet.worker<slot>.queue_depth (the
// worker's last self-reported serve.queue_depth) are registered for every
// registry slot at construction.
inline constexpr const char* kFleetSessionsRouted = "fleet.sessions_routed";
inline constexpr const char* kFleetSessionsCompleted =
    "fleet.sessions_completed";
inline constexpr const char* kFleetSessionsFailed = "fleet.sessions_failed";
inline constexpr const char* kFleetSessionsRetried = "fleet.sessions_retried";
inline constexpr const char* kFleetStatusRequests = "fleet.status_requests";
inline constexpr const char* kFleetActiveSessions = "fleet.active_sessions";
inline constexpr const char* kFleetQueueDepth = "fleet.queue_depth";
inline constexpr const char* kFleetWorkersLive = "fleet.workers_live";
inline constexpr const char* kFleetWorkersDegraded = "fleet.workers_degraded";
inline constexpr const char* kFleetWorkersDead = "fleet.workers_dead";
inline constexpr const char* kFleetWallSeconds = "fleet.wall_seconds";
inline constexpr const char* kFleetSessionsPerSec = "fleet.sessions_per_sec";

class FleetBalancer {
 public:
  /// The registry must outlive the balancer and have every slot added
  /// before construction (per-slot gauges are bound here, under the
  /// Gauge::bind before-threads contract); endpoints may still be unknown
  /// and slots keep being re-pointed by a supervisor afterwards.
  FleetBalancer(WorkerRegistry& registry, BalancerOptions options);

  FleetBalancer(const FleetBalancer&) = delete;
  FleetBalancer& operator=(const FleetBalancer&) = delete;

  /// Bind, listen, spawn the accept thread and the relay pool. Throws
  /// std::runtime_error when the address cannot be bound.
  void start() { server_.start(); }

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] const std::string& host() const { return options_.host; }
  [[nodiscard]] std::uint16_t status_port() const {
    return server_.status_port();
  }

  /// Async-signal-safe (atomic store + one pipe write): stop accepting,
  /// finish queued and in-flight sessions (migrations included).
  void request_drain() { server_.request_drain(); }

  /// Route SIGTERM/SIGINT to request_drain() until wait() returns.
  void drain_on_signals() { server_.drain_on_signals(); }

  /// Join everything; returns once the last session finished. Idempotent.
  void wait() { server_.wait(); }

  /// Registry snapshot with the wall-clock gauges refreshed (frozen at
  /// drain time once drained, like TuneServeLoop::metrics).
  [[nodiscard]] obs::RegistrySnapshot metrics() const {
    return server_.metrics();
  }

  /// metrics() as the one-line `effitest-status-v1` JSON the in-band
  /// `status` request and the --status-port endpoint return.
  [[nodiscard]] std::string status_json() const {
    return server_.status_json();
  }

 private:
  void relay_session(net::Socket client);

  WorkerRegistry* registry_;
  BalancerOptions options_;

  obs::MetricsRegistry metrics_registry_;
  obs::Counter* routed_;
  obs::Counter* retried_;

  net::SessionServer server_;  ///< last: joins the relays before the rest dies
};

}  // namespace effitest::fleet
