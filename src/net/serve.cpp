#include "net/serve.hpp"

#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "io/tune_protocol.hpp"
#include "obs/log.hpp"

namespace effitest::net {

namespace {

/// This server's policy on a parsed hello: the per-session chip cap, then
/// the server window capping the client's (or standing in for none).
/// Returns the rejection reason, empty when admitted.
std::string admit(io::Hello& hello, const ServeOptions& options) {
  if (hello.chips > options.max_chips_per_session) {
    return "chips=" + std::to_string(hello.chips) +
           " exceeds this server's per-session limit of " +
           std::to_string(options.max_chips_per_session);
  }
  if (options.chip_window != 0 &&
      (hello.window == 0 || hello.window > options.chip_window)) {
    hello.window = options.chip_window;
  }
  return {};
}

}  // namespace

TuneServeLoop::TuneServeLoop(const core::TunerService& service,
                             ServeOptions options)
    : service_(&service),
      options_(std::move(options)),
      accepted_(&registry_.counter(kMetricSessionsAccepted)),
      chips_tuned_(&registry_.counter(kMetricChipsTuned)),
      stimuli_(&registry_.counter(kMetricStimuli)),
      latency_(&registry_.histogram(kMetricSessionLatency)),
      server_("serve", options_, options_.workers, registry_,
              [this](Socket socket) { serve_connection(std::move(socket)); }) {}

void TuneServeLoop::serve_connection(Socket socket) {
  const auto session_start = std::chrono::steady_clock::now();
  SocketStream stream(std::move(socket));
  std::string line;
  const io::LineRead first = io::read_line(stream, line);
  // An in-band status poll: answer and close without touching the session
  // counters, so watching a fleet does not change what it reports.
  if (first == io::LineRead::kLine) {
    if (const std::optional<std::string> reply = server_.status_reply(line)) {
      stream << *reply;
      stream.flush();
      return;
    }
  }
  accepted_->inc();
  server_.begin_session();
  io::Hello hello;
  std::string failure;
  if (first == io::LineRead::kEnd) {
    failure = "connection closed before hello";
  } else if (first == io::LineRead::kOverlong) {
    failure = "hello " + io::line_too_long();
  } else {
    try {
      hello = io::parse_hello(line);
      failure = admit(hello, options_);
    } catch (const io::ProtocolError& e) {
      failure = e.what();
    }
  }
  bool completed = false;
  std::uint64_t id = 0;
  if (failure.empty()) {
    id = next_session_id_.fetch_add(1);
    stream << io::format_greeting({id, service_->monte_carlo_seed_base()})
           << '\n';
    stream.flush();
    io::TuneServerOptions topts;
    topts.lenient = hello.lenient;
    topts.chip_window = hello.window;
    topts.live_stimuli = stimuli_;
    topts.log = options_.log;
    io::TuneServer server(*service_, hello.chips, topts);
    try {
      // Stimuli are counted live through topts.live_stimuli as each line
      // is emitted; the result total is not re-added here.
      (void)server.run(stream, stream);
      stream.flush();  // the trailing report/bye lines have no read after
      completed = true;
    } catch (const std::exception& e) {
      // Strict-mode bad frame or a vanished client: this session dies, its
      // siblings never notice.
      failure = e.what();
    }
  }
  if (!completed) {
    stream.clear();  // best-effort notice, even past an over-long hello
    stream << io::format_error(failure) << '\n';
    stream.flush();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    session_start)
          .count();
  if (completed) {
    chips_tuned_->inc(hello.chips);
    latency_->record(seconds);
  }
  // After the per-session counters, so a poll that sees the completion
  // sees its chips and latency too.
  server_.end_session(completed);
  if (options_.log == nullptr) return;
  if (completed) {
    options_.log->emit("serve", "session_complete",
                       {obs::LogField::u64("session", id),
                        obs::LogField::u64("chips", hello.chips),
                        obs::LogField::f64("seconds", seconds)});
  } else {
    options_.log->emit("serve", "session_failed",
                       {obs::LogField::str("reason", failure),
                        obs::LogField::f64("seconds", seconds)});
  }
}

}  // namespace effitest::net
