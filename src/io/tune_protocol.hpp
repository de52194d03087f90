#pragma once
// The effitest-tune-v1 line protocol. This header is its one grammar:
// io::TuneServer, net/serve, net/client and fleet/balancer all format and
// parse through the codec below. `effitest_cli tune` speaks it on
// stdin/stdout; `serve` and `tune --connect` put a handshake in front.
//
// Framing: one message per line, whitespace-separated tokens, read only
// through read_line(): one trailing '\r' is stripped (CRLF testers and
// telnet-style clients), and a line longer than kMaxLineBytes is discarded
// through its '\n' without being buffered and reported as over-long, so a
// newline-free peer costs at most kMaxLineBytes. Empty lines and `#`
// comments are skipped wherever a stream of messages is read. Integers
// are unsigned decimal without sign or trailing junk; out-of-range values
// are rejected, never wrapped.
//
// TCP handshake (serve and balance ports):
//
//   tester -> server   hello effitest-tune-v1 chips=<n> [window=<w>] [lenient]
//   server -> tester   serve effitest-tune-v1 session=<id> seed=<base>
//
// chips >= 1; the optional tokens come in any order; any other token
// rejects the hello; a server may cap `window`. The seed is
// TunerService::monte_carlo_seed_base(), which only the server can compute
// (it falls out of the offline phase's RNG fork order): tester-side die c
// is stats::Rng(parallel::index_seed(seed, c)), run_flow's Monte-Carlo
// convention, so networked reports are byte-identical to `tune --simulate`.
//
// Exchange, server -> tester:
//
//   effitest-tune-v1 chips=<n> np=<np> nb=<nb> td=<ps>
//   stimulus <chip> <seq> <period> steps <k0> <k1> ... arm <p0> <p1> ...
//   final <chip> <seq> <period> steps <k0> <k1> ...
//   report <chip> iterations=<n> forced=<n> feasible=<0|1> passed=<0|1|->
//          xi=<ps> steps <k0> <k1> ...
//   error <chip> <reason>
//   bye
//
// tester -> server, one line per answered stimulus:
//
//   response <chip> <seq> <bits>
//
// <bits> holds one '1' (pass) or '0' (fail) per armed pair of the stimulus
// with that (chip, seq), exactly one for a `final` line. Sequence numbers
// are per chip from 0; periods carry max_digits10 digits and parse back
// exactly. `error - <reason>` (a dash for the chip) is fatal and ends a
// TCP session: a rejected hello, a strict-mode abort, a fleet failure.
//
// Responses may arrive in ANY order, across chips and within one (a
// shuffled replay log): the server buffers them by (chip, seq) and applies
// each chip's next expected one as soon as it is there. Sessions are pure
// functions of their responses (core/tuner_service.hpp), so the reports
// are identical for every legal ordering.
//
// Malformed input: strict mode (the default) aborts the run on the first
// bad line with std::runtime_error. Lenient mode
// (TuneServerOptions::lenient, `tune --lenient`) abandons only the chip a
// bad frame names (bad width or bits, duplicate/stale or implausible seq)
// with `error <chip> <reason>`; every other chip's report stays
// byte-identical (TuneServerResult::errors). Unattributable garbage (an
// unparseable or over-long line, an unknown chip, a response for a
// finished chip) is dropped and counted in TuneServerResult::dropped_lines.
// In both modes a response wider than np is rejected before buffering and
// a seq more than 10^6 ahead of the chip's next one is implausible, so
// hostile input cannot grow the reorder buffer without bound.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/tuner_service.hpp"

namespace effitest::obs {
class Counter;
class StructuredLog;
}  // namespace effitest::obs

namespace effitest::io {

/// Longest line (bytes before the '\n', a '\r' included) any reader of
/// this protocol accepts. Measured with `tune --simulate` on the largest
/// catalog circuits, the longest legitimate line is 158 bytes (an s38417
/// stimulus; s35932 107, s38584 99); by construction none can exceed about
/// 2.5 KB (a stimulus arming all 587 s38417 pairs, or a 587-bit response).
/// 64 KiB is 26x that bound and also holds a status JSON line.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;
inline constexpr std::string_view kBye = "bye";

/// Thrown by every parse_* and decode_bits for a line off the grammar
/// above; nothing else escapes them.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// kLine: `line` holds one line, '\n' and one trailing '\r' stripped.
/// kEnd: the stream ended (closed, reset or timed out) before a byte.
/// kOverlong: over kMaxLineBytes, discarded through its '\n' (or the end).
enum class LineRead { kLine, kEnd, kOverlong };
/// The protocol's only line reader ("Framing" above); `line` is empty
/// unless kLine. Like std::getline, a last line cut off by the end of the
/// stream still counts, with in.eof() set — a relay must not forward it.
[[nodiscard]] LineRead read_line(std::istream& in, std::string& line);
[[nodiscard]] std::string line_too_long();  ///< the over-long message

// The codec: parse_x(format_x(v)) == v for every message v.
struct Hello {
  std::size_t chips = 0;
  std::size_t window = 0;  ///< 0: none requested
  bool lenient = false;
  bool operator==(const Hello&) const = default;
};
[[nodiscard]] std::string format_hello(const Hello& hello);
[[nodiscard]] Hello parse_hello(const std::string& line);

struct Greeting {
  std::uint64_t session = 0;
  std::uint64_t seed = 0;
  bool operator==(const Greeting&) const = default;
};
[[nodiscard]] std::string format_greeting(const Greeting& greeting);
[[nodiscard]] Greeting parse_greeting(const std::string& line);

/// A `stimulus` line, or a `final` line (final = true, nothing armed).
struct StimulusLine {
  std::size_t chip = 0;
  std::size_t seq = 0;
  bool final = false;
  core::Stimulus stimulus;
};
[[nodiscard]] std::string format_stimulus(const StimulusLine& line);
[[nodiscard]] StimulusLine parse_stimulus(const std::string& line);

/// `bits` stays text: it is checked against its stimulus (decode_bits).
struct Response {
  std::size_t chip = 0;
  std::size_t seq = 0;
  std::string bits;
  bool operator==(const Response&) const = default;
};
[[nodiscard]] std::string format_response(const Response& response);
[[nodiscard]] Response parse_response(const std::string& line);

[[nodiscard]] std::string encode_bits(const std::vector<bool>& pass);
[[nodiscard]] std::vector<bool> decode_bits(const std::string& bits);

[[nodiscard]] std::string format_error(const std::string& reason);
[[nodiscard]] bool is_fatal_error(const std::string& line);

/// A server line as a tester sees it, by leading token: kSkip is an empty
/// or `#` line, kStimulus a stimulus or final, kError either error form.
enum class ServerLine {
  kSkip,
  kHeader,
  kStimulus,
  kReport,
  kError,
  kBye,
  kUnknown
};
[[nodiscard]] ServerLine classify_server_line(const std::string& line);

/// The tester side of `tune --simulate` and `--connect`: chip c is the die
/// sampled as the handshake above says, answering like core::SimulatedChip.
class SimulatedTester {
 public:
  SimulatedTester(const core::Problem& problem, std::uint64_t seed,
                  std::size_t chips);

  /// Chip `chip`'s pass bits for `stimulus` (one bit for a final test).
  [[nodiscard]] std::vector<bool> answer(std::size_t chip, bool final,
                                         const core::Stimulus& stimulus) const;

 private:
  const core::Problem* problem_;
  std::vector<timing::Chip> dies_;
};

struct TuneServerOptions {
  /// Abandon individual chips on attributable bad frames instead of
  /// aborting the whole run (see the protocol comment above).
  bool lenient = false;
  /// Per-session backpressure: at most this many chips have an outstanding
  /// stimulus at once; 0 (the default) admits every chip up front. With a
  /// window W a chip's TuningSession is minted, and its first stimulus
  /// emitted, only when another finishes, so a 10k-chip session holds W
  /// live sessions. Reports are identical for any window: responses for
  /// unadmitted chips wait in the (chip, seq) reorder buffer.
  std::size_t chip_window = 0;
  /// Live stimulus counter (obs registry), bumped as each stimulus/final
  /// line is emitted — what the serve loop's `status` endpoint reports
  /// mid-session. nullptr: not counted live (TuneServerResult::stimuli is
  /// still the per-run total either way).
  obs::Counter* live_stimuli = nullptr;
  /// Structured event log threaded into every minted TuningSession
  /// (chip_begin / final_test / chip_report events), or nullptr for none.
  obs::StructuredLog* log = nullptr;
};

struct TuneServerResult {
  std::vector<core::ChipReport> reports;  ///< one per chip, in chip order
  std::size_t stimuli = 0;  ///< stimulus + final lines emitted
  /// Per chip: empty = tuned cleanly, otherwise the reason the chip was
  /// abandoned (lenient mode only; its report slot is default-constructed).
  std::vector<std::string> errors;
  /// Unattributable input lines dropped in lenient mode.
  std::size_t dropped_lines = 0;
};

/// Streams `chips` per-chip TuningSessions of one shared TunerService over
/// the protocol above. The service must outlive the server.
class TuneServer {
 public:
  TuneServer(const core::TunerService& service, std::size_t chips,
             TuneServerOptions options = {});

  /// Interactive / replay mode: emit stimuli on `out`, consume `response`
  /// lines from `in` (stdin, a pipe, or a replayed — possibly shuffled —
  /// log). Throws std::runtime_error on malformed input or when the
  /// stream ends with chips unfinished — unless lenient (see above).
  [[nodiscard]] TuneServerResult run(std::istream& in, std::ostream& out);

  /// Self-driving mode: every chip is a simulated die sampled exactly like
  /// run_flow's Monte-Carlo loop (seeded
  /// parallel::index_seed(service.monte_carlo_seed_base(), chip)), the
  /// protocol stream still goes to `out`, and the response line every
  /// stimulus received is appended to `response_log` (when non-null) for
  /// later replay. Chips advance round-robin, so the log interleaves them.
  [[nodiscard]] TuneServerResult run_simulated(
      std::ostream& out, std::ostream* response_log = nullptr);

 private:
  const core::TunerService* service_;
  std::size_t chips_;
  TuneServerOptions options_;
};

}  // namespace effitest::io
