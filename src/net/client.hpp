#pragma once
// Loopback tuning client: connects to a net::TuneServeLoop (or any
// effitest-tune-v1 server), simulates its dies locally with the seed base
// from the serve greeting, and answers the server's stimuli — the tester
// half of `effitest_cli tune --connect=host:port`, tests/net and
// bench_serve.
//
// The client needs only a core::Problem to simulate dies, not the
// server's offline artifacts: prediction and configuration are
// server-side. With the greeting's seed (io/tune_protocol.hpp) the reports
// are byte-identical to a local `tune --simulate` run.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.hpp"

namespace effitest::net {

struct ClientOptions {
  std::size_t chips = 1;
  bool lenient = false;
  /// Requested per-session chip window (hello window=<w>); 0 requests
  /// none. The server may cap it — the cap never changes the reports.
  std::size_t window = 0;
  /// Extra connect attempts (exponential backoff + jitter, see
  /// net::connect_with_backoff) before giving up, so testers ride out
  /// balancer and worker restarts instead of dying on ECONNREFUSED. 0 = one
  /// attempt, fail fast.
  std::size_t connect_retries = 3;
};

struct ClientResult {
  /// `report <chip> ...` lines verbatim, in arrival order. Sort by the
  /// chip id when comparing against another run's completion order.
  std::vector<std::string> report_lines;
  /// `error <chip> <reason>` lines (lenient-mode abandonments).
  std::vector<std::string> error_lines;
  std::size_t stimuli_answered = 0;
  std::uint64_t session_id = 0;
  std::uint64_t seed_base = 0;  ///< from the serve greeting
};

/// Run one whole tuning session against a live server. Throws
/// std::runtime_error on connection failure, a protocol violation, or a
/// server-side `error -` rejection.
[[nodiscard]] ClientResult run_loopback_client(const std::string& host,
                                               std::uint16_t port,
                                               const core::Problem& problem,
                                               const ClientOptions& options);

/// Poll a server's live metrics: send the in-band `status` request (a
/// connection whose first line is `status` instead of a hello) and return
/// the one-line `effitest-status-v1` JSON reply. Also works verbatim
/// against a --status-port endpoint, which sends the line unprompted and
/// ignores the request. Throws std::runtime_error on connection failure
/// or an empty reply. `timeout_seconds` is the socket I/O timeout (<= 0
/// blocks forever); the fleet registry's prober sets one so a hung worker
/// costs at most the timeout per probe round.
[[nodiscard]] std::string fetch_status(const std::string& host,
                                       std::uint16_t port,
                                       double timeout_seconds = 0.0);

/// Poll a server's metrics in Prometheus text format: send the in-band
/// `status prometheus` request and return the multi-line exposition-format
/// reply (read to EOF). Throws std::runtime_error on connection failure or
/// an empty reply.
[[nodiscard]] std::string fetch_prometheus(const std::string& host,
                                           std::uint16_t port);

}  // namespace effitest::net
