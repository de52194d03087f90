#include "fleet/balancer.hpp"

#include <sys/socket.h>

#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "io/tune_protocol.hpp"
#include "obs/log.hpp"

namespace effitest::fleet {

namespace {

/// Shared mutable session state between the downlink (relay worker) and
/// uplink threads. The mutex orders backlog appends + live forwards
/// against a migration's backlog replay, and guards worker_fd so the
/// uplink never writes to a socket the downlink is closing.
struct SessionState {
  std::mutex mutex;
  std::string backlog;        ///< client lines after hello, '\n'-terminated
  int worker_fd = -1;         ///< -1 while detached / migrating
  bool client_gone = false;
  bool backlog_full = false;  ///< past the limit: the session fails
};

}  // namespace

FleetBalancer::FleetBalancer(WorkerRegistry& registry, BalancerOptions options)
    : registry_(&registry),
      options_(std::move(options)),
      routed_(&metrics_registry_.counter(kFleetSessionsRouted)),
      retried_(&metrics_registry_.counter(kFleetSessionsRetried)),
      server_("fleet", options_, options_.relay_workers, metrics_registry_,
              [this](net::Socket client) { relay_session(std::move(client)); }) {
  // All binds happen before any thread exists (the Gauge::bind contract).
  metrics_registry_.gauge(kFleetWorkersLive).bind([this] {
    return static_cast<double>(registry_->count(WorkerHealth::kLive));
  });
  metrics_registry_.gauge(kFleetWorkersDegraded).bind([this] {
    return static_cast<double>(registry_->count(WorkerHealth::kDegraded));
  });
  metrics_registry_.gauge(kFleetWorkersDead).bind([this] {
    return static_cast<double>(registry_->count(WorkerHealth::kDead));
  });
  for (std::size_t slot = 0; slot < registry.size(); ++slot) {
    const std::string prefix = "fleet.worker" + std::to_string(slot);
    metrics_registry_.gauge(prefix + ".live_sessions").bind([this, slot] {
      return static_cast<double>(registry_->in_flight(slot));
    });
    metrics_registry_.gauge(prefix + ".queue_depth").bind([this, slot] {
      return registry_->probed_queue_depth(slot);
    });
  }
}

void FleetBalancer::relay_session(net::Socket client_socket) {
  net::SocketStream client(std::move(client_socket));
  const int client_fd = client.socket().fd();
  std::string hello;
  const io::LineRead first = io::read_line(client, hello);
  if (first == io::LineRead::kEnd) return;  // vanished before hello
  if (first == io::LineRead::kLine) {
    if (const std::optional<std::string> reply = server_.status_reply(hello)) {
      (void)net::send_all(client_fd, *reply);
      return;
    }
  }
  routed_->inc();
  server_.begin_session();

  std::optional<net::SocketStream> worker;
  std::optional<std::size_t> slot;
  std::uint64_t seed_base = 0;
  bool greeting_forwarded = false;
  std::size_t forwarded = 0;  // server lines the client holds, post-greeting
  std::size_t attaches_left = 1 + options_.max_session_retries;
  std::size_t attach_attempts = 0;
  bool completed = false;
  bool failed = false;
  std::string failure_reason;
  SessionState state;

  // Detach from the current worker (if any): unpublish the fd so the
  // uplink stops forwarding, demote the slot when the worker died, release
  // the routing claim, close the socket.
  const auto drop_worker = [&](bool worker_died) {
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.worker_fd = -1;
    }
    if (slot) {
      if (worker_died) registry_->report_failure(*slot);
      registry_->release(*slot);
      slot.reset();
    }
    worker.reset();
  };
  // End the session as failed, never to be retried.
  const auto stop = [&](const std::string& reason) {
    failure_reason = reason;
    failed = true;
    drop_worker(false);
  };
  // ...with a fatal line to the client: the cause (a protocol violation,
  // exhaustion, a seed mismatch) would recur on any worker.
  const auto fail = [&](const std::string& reason) {
    (void)net::send_all(client_fd, io::format_error(reason) + "\n");
    stop(reason);
  };
  // A hello no worker accepts gets one chip's worth: its rejection ends
  // the session anyway.
  std::size_t limit = kMaxBacklogBytesPerChip;
  try {
    limit *= io::parse_hello(hello).chips;
  } catch (const io::ProtocolError&) {
  }
  const auto backlog_full = [&] {
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.backlog_full;
  };
  // One whole worker line. False: the worker died, possibly mid-line
  // (migrate), or sent an over-long line or nothing for the io timeout
  // (the session failed).
  const auto read_worker = [&](std::string& line) {
    const io::LineRead got = io::read_line(*worker, line);
    if (got == io::LineRead::kLine && !worker->eof()) return true;
    if (got == io::LineRead::kOverlong) {
      fail("fleet worker " + io::line_too_long());
    } else if (worker->timed_out()) {
      // Silent is not dead: the connection stands, so the worker keeps its
      // routing health (a slow worker is the prober's call) and the session
      // ends rather than replaying its backlog onto a loaded fleet.
      fail("fleet worker sent nothing within the io timeout");
    } else {
      // Died, possibly mid-line, unless the uplink cut it off.
      drop_worker(!backlog_full());
    }
    return false;
  };

  if (first == io::LineRead::kOverlong) fail("hello " + io::line_too_long());

  // Uplink: record every client line for replay and forward it to the
  // current worker, if any (a failed forward surfaces on the downlink's
  // next read). A torn or over-long client line ends it like a disconnect;
  // a line past the backlog limit fails it, and shuts the worker connection
  // so that the downlink wakes.
  std::thread uplink([&] {
    std::string line;
    while (io::read_line(client, line) == io::LineRead::kLine &&
           !client.eof()) {
      line += '\n';
      std::lock_guard<std::mutex> lock(state.mutex);
      if (state.backlog.size() + line.size() > limit) {
        state.backlog_full = true;
        if (state.worker_fd >= 0) (void)::shutdown(state.worker_fd, SHUT_RDWR);
        return;
      }
      state.backlog += line;
      if (state.worker_fd >= 0) (void)net::send_all(state.worker_fd, line);
    }
    int worker_fd = -1;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.client_gone = true;
      worker_fd = state.worker_fd;
    }
    // Half-close: the worker's session sees EOF and aborts; the fd
    // itself stays owned (and eventually closed) by the downlink.
    if (worker_fd >= 0) (void)::shutdown(worker_fd, SHUT_WR);
  });

  while (!completed && !failed) {
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (state.client_gone || state.backlog_full) break;
    }
    if (!worker) {
      // ---- attach (or re-attach after a death) ----
      if (attaches_left == 0) {
        fail("fleet exhausted after " + std::to_string(attach_attempts) +
             " attach attempts");
        break;
      }
      --attaches_left;
      ++attach_attempts;
      if (attach_attempts > 1) {
        retried_->inc();
        // Give a supervisor restart / probe re-admission a beat to land.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kAttachBackoffSeconds));
      }
      slot = registry_->acquire();
      if (!slot) continue;  // nothing routable right now; costs an attempt
      const WorkerEndpoint endpoint = registry_->endpoint(*slot);
      try {
        net::Socket s = net::connect_to(endpoint.host, endpoint.port);
        s.set_io_timeout(options_.io_timeout_seconds);
        worker.emplace(std::move(s));
      } catch (const std::exception&) {
        registry_->report_failure(*slot);
        registry_->release(*slot);
        slot.reset();
        continue;
      }
      const int worker_fd = worker->socket().fd();
      if (!net::send_all(worker_fd, hello + "\n")) {
        drop_worker(true);
        continue;
      }
      std::string greeting;
      if (!read_worker(greeting)) continue;
      if (io::is_fatal_error(greeting)) {
        // The worker rejected the hello. Deterministic — every worker
        // would say the same — so forward it and never retry.
        (void)net::send_all(client_fd, greeting + "\n");
        stop(greeting);
        break;
      }
      std::uint64_t seed = 0;
      try {
        seed = io::parse_greeting(greeting).seed;
      } catch (const io::ProtocolError&) {
        drop_worker(true);  // not speaking the protocol: treat as dead
        continue;
      }
      if (!greeting_forwarded) {
        if (!net::send_all(client_fd, greeting + "\n")) {
          stop("client disconnected");
          break;
        }
        seed_base = seed;
        greeting_forwarded = true;
      } else if (seed != seed_base) {
        // Determinism contract broken: this worker serves a different
        // problem/seed, replaying would hand the client divergent bytes.
        fail("fleet worker seed mismatch (got " + std::to_string(seed) +
             ", session started with " + std::to_string(seed_base) + ")");
        break;
      }
      // Replay the recorded client lines and publish the new fd in one
      // critical section, so live uplink lines land strictly after the
      // backlog they are not yet part of.
      std::size_t replayed = 0;  // bytes
      bool replay_ok = false;
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        replayed = state.backlog.size();
        replay_ok =
            !state.backlog_full && net::send_all(worker_fd, state.backlog);
        if (replay_ok) state.worker_fd = worker_fd;
      }
      if (!replay_ok) {
        drop_worker(!backlog_full());
        continue;
      }
      // Discard the prefix the client already holds (identical bytes: same
      // seed, same line order); the old worker produced `forwarded` lines
      // from this very backlog, so the new one cannot block before that.
      bool discard_ok = true;
      std::string discard;
      for (std::size_t i = 0; i < forwarded && discard_ok; ++i) {
        discard_ok = read_worker(discard);
      }
      if (!discard_ok) continue;
      if (options_.log != nullptr && attach_attempts > 1) {
        options_.log->emit(
            "fleet", "session_migrated",
            {obs::LogField::u64("slot", *slot),
             obs::LogField::str("worker", endpoint.to_string()),
             obs::LogField::u64("replayed_bytes", replayed),
             obs::LogField::u64("discarded", forwarded)});
      }
    }
    // ---- relay: worker -> client until bye, death, or fatal error ----
    std::string line;
    while (read_worker(line)) {
      const bool fatal = io::is_fatal_error(line);
      if (!net::send_all(client_fd, line + "\n")) {
        {
          std::lock_guard<std::mutex> lock(state.mutex);
          state.client_gone = true;
        }
        stop("client disconnected");  // the closed socket EOFs the worker
        break;
      }
      ++forwarded;
      if (fatal) {
        stop(line);  // a mid-session strict-mode abort: deterministic
        break;
      }
      if (line == io::kBye) {
        completed = true;
        drop_worker(false);
        break;
      }
    }
  }
  if (!completed && !failed && backlog_full()) {
    fail("client lines exceed the " + std::to_string(limit) +
         "-byte replay backlog limit");
  } else if (!completed && !failed) {
    failure_reason = "client disconnected";
    failed = true;
  }
  drop_worker(false);
  // Pop the uplink out of its blocking recv, then join it; only after
  // that may the client socket die.
  net::shutdown_read(client.socket());
  uplink.join();
  server_.end_session(completed);
  if (options_.log != nullptr) {
    if (completed) {
      options_.log->emit("fleet", "session_complete",
                         {obs::LogField::u64("forwarded", forwarded),
                          obs::LogField::u64("attaches", attach_attempts)});
    } else {
      options_.log->emit("fleet", "session_failed",
                         {obs::LogField::str("reason", failure_reason),
                          obs::LogField::u64("attaches", attach_attempts)});
    }
  }
}

}  // namespace effitest::fleet
