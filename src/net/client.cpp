#include "net/client.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/tune_protocol.hpp"
#include "net/socket.hpp"

namespace effitest::net {

namespace {

[[noreturn]] void protocol_error(const std::string& line,
                                 const std::string& why) {
  throw io::ProtocolError("connect: " + why + " (line: \"" + line + "\")");
}

/// read_line for a tester: an over-long server line is a protocol error.
bool next_line(std::istream& in, std::string& line) {
  const io::LineRead got = io::read_line(in, line);
  if (got == io::LineRead::kOverlong) {
    throw io::ProtocolError("server " + io::line_too_long());
  }
  return got == io::LineRead::kLine;
}

}  // namespace

ClientResult run_loopback_client(const std::string& host, std::uint16_t port,
                                 const core::Problem& problem,
                                 const ClientOptions& options) {
  SocketStream stream(
      connect_with_backoff(host, port, options.connect_retries));
  stream << io::format_hello({options.chips, options.window, options.lenient})
         << '\n';
  stream.flush();

  // Greeting. An `error -` line here is the server rejecting the hello.
  ClientResult result;
  std::string line;
  if (!next_line(stream, line)) {
    throw std::runtime_error("connect: server closed before greeting");
  }
  if (io::is_fatal_error(line)) {
    throw std::runtime_error("connect: server rejected session: " + line);
  }
  const io::Greeting greeting = io::parse_greeting(line);
  result.session_id = greeting.session;
  result.seed_base = greeting.seed;

  io::SimulatedTester tester(problem, greeting.seed, options.chips);

  // The standard exchange: answer stimulus/final lines until bye. Replies
  // end in plain '\n'; SocketStream flushes pending output before the next
  // blocking read.
  bool saw_header = false;
  while (next_line(stream, line)) {
    const io::ServerLine kind = io::classify_server_line(line);
    if (kind == io::ServerLine::kBye) return result;
    if (kind == io::ServerLine::kHeader) saw_header = true;
    if (kind == io::ServerLine::kReport) result.report_lines.push_back(line);
    if (kind == io::ServerLine::kError) result.error_lines.push_back(line);
    if (kind == io::ServerLine::kUnknown) {
      protocol_error(line, "unexpected server line");
    }
    if (kind != io::ServerLine::kStimulus) continue;
    if (!saw_header) protocol_error(line, "no session header before it");
    const io::StimulusLine s = io::parse_stimulus(line);
    if (s.chip >= options.chips) protocol_error(line, "chip out of range");
    const std::vector<bool> pass = tester.answer(s.chip, s.final, s.stimulus);
    stream << io::format_response({s.chip, s.seq, io::encode_bits(pass)})
           << '\n';
    ++result.stimuli_answered;
  }
  throw std::runtime_error(
      "connect: server closed the connection before bye");
}

std::string fetch_status(const std::string& host, std::uint16_t port,
                         double timeout_seconds) {
  Socket conn = connect_to(host, port);
  conn.set_io_timeout(timeout_seconds);
  SocketStream stream(std::move(conn));
  // Harmless on a --status-port endpoint: it answers unprompted and never
  // reads, so the same client drives both kinds of status socket.
  stream << "status\n";
  stream.flush();
  std::string line;
  if (!next_line(stream, line) || line.empty()) {
    throw std::runtime_error("status: server sent no status line");
  }
  return line;
}

std::string fetch_prometheus(const std::string& host, std::uint16_t port) {
  SocketStream stream(connect_to(host, port));
  stream << "status prometheus\n";
  stream.flush();
  std::string text, line;
  while (next_line(stream, line)) {
    text += line;
    text += '\n';
  }
  if (text.empty()) {
    throw std::runtime_error("status: empty prometheus reply");
  }
  return text;
}

}  // namespace effitest::net
