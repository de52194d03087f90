#pragma once
// TCP serve mode: one TunerService, thousands of concurrent chip-tuning
// sessions (`effitest_cli serve` / bench_serve). DESIGN.md §13.
//
// Wire protocol: io/tune_protocol.hpp, which owns the grammar, parses the
// hello and frames every line; this loop adds only its policy
// (max_chips_per_session, the chip_window cap). A rejected hello —
// malformed, over the cap, over-long or never sent — gets one
// `error - <reason>` line and counts as a failed session. A first line
// `status` (or `status prometheus`) is answered and closed instead, and
// counted in serve.status_requests only; so is every connection to
// ServeOptions::status_port.
//
// Concurrency: the net::SessionServer shell (session_server.hpp) owns the
// listeners, the accept thread, the FIFO session queue and the drain; this
// loop is the per-connection handler. Per-session backpressure is the
// protocol's chip_window. A client that vanishes mid-session, or stays
// silent for ListenOptions::io_timeout_seconds, is stream EOF inside that
// one session; sibling sessions never notice.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/tuner_service.hpp"
#include "net/session_server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace effitest::obs {
class StructuredLog;
}  // namespace effitest::obs

namespace effitest::net {

struct ServeOptions : ListenOptions {
  std::size_t workers = 8;
  /// Server chip window: caps the client's `window=` request, or stands in
  /// for none; 0 honors the client's request.
  std::size_t chip_window = 0;
  /// hello chips=<n> above this is rejected before any session state is
  /// allocated (an `error - ...` line, then close).
  std::size_t max_chips_per_session = 100000;
  /// Structured event log (session_complete/session_failed here, plus the
  /// per-chip session events via the protocol layer), or nullptr — the
  /// zero-overhead default the perf gates run with.
  obs::StructuredLog* log = nullptr;
};

// Metric names the serve loop registers (obs::MetricsRegistry). Counters
// are monotonic; the latency histogram records per-session wall seconds
// into power-of-two-microsecond buckets (obs::Histogram, the math the old
// LatencyHistogram used). `serve.wall_seconds`/`serve.sessions_per_sec`
// are refreshed at snapshot time and freeze once the loop drains, so the
// end-of-run summary is stable however late it is read.
inline constexpr const char* kMetricSessionsAccepted =
    "serve.sessions_accepted";
inline constexpr const char* kMetricSessionsCompleted =
    "serve.sessions_completed";
inline constexpr const char* kMetricSessionsFailed = "serve.sessions_failed";
inline constexpr const char* kMetricChipsTuned = "serve.chips_tuned";
inline constexpr const char* kMetricStimuli = "serve.stimuli";
inline constexpr const char* kMetricStatusRequests = "serve.status_requests";
inline constexpr const char* kMetricActiveSessions = "serve.active_sessions";
inline constexpr const char* kMetricQueueDepth = "serve.queue_depth";
inline constexpr const char* kMetricWallSeconds = "serve.wall_seconds";
inline constexpr const char* kMetricSessionsPerSec = "serve.sessions_per_sec";
inline constexpr const char* kMetricSessionLatency =
    "serve.session_latency_us";

class TuneServeLoop {
 public:
  TuneServeLoop(const core::TunerService& service, ServeOptions options);

  TuneServeLoop(const TuneServeLoop&) = delete;
  TuneServeLoop& operator=(const TuneServeLoop&) = delete;

  /// Bind, listen, spawn the accept thread and the worker pool. Throws
  /// std::runtime_error when the address cannot be bound.
  void start() { server_.start(); }

  /// Valid after start(); the kernel's choice when options.port was 0.
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] const std::string& host() const { return options_.host; }
  /// Valid after start() when ServeOptions::status_port >= 0; 0 otherwise.
  [[nodiscard]] std::uint16_t status_port() const {
    return server_.status_port();
  }

  /// Async-signal-safe (atomic store + one pipe write): stop accepting,
  /// finish queued and in-flight sessions. Idempotent.
  void request_drain() { server_.request_drain(); }

  /// Route SIGTERM/SIGINT to request_drain() until wait() returns.
  void drain_on_signals() { server_.drain_on_signals(); }

  /// Join everything; returns once the last session finished. Idempotent.
  void wait() { server_.wait(); }

  /// Registry snapshot with the wall-clock gauges refreshed. The counter
  /// and histogram entries are exactly what a concurrent `status` poll
  /// sees: a poll taken after the last session finished matches the
  /// end-of-run snapshot on every monotonic metric.
  [[nodiscard]] obs::RegistrySnapshot metrics() const {
    return server_.metrics();
  }

  /// metrics() rendered as one `effitest-status-v1` JSON line — what the
  /// in-band `status` request and the --status-port endpoint return.
  [[nodiscard]] std::string status_json() const {
    return server_.status_json();
  }

 private:
  void serve_connection(Socket socket);

  const core::TunerService* service_;
  ServeOptions options_;
  std::atomic<std::uint64_t> next_session_id_{0};

  // Instruments live in the registry (lock-free on the hot path); the
  // cached pointers stay valid for the loop's lifetime.
  obs::MetricsRegistry registry_;
  obs::Counter* accepted_;
  obs::Counter* chips_tuned_;
  obs::Counter* stimuli_;
  obs::Histogram* latency_;

  SessionServer server_;  ///< last: joins the sessions before the rest dies
};

}  // namespace effitest::net
