#include "io/tune_protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <iterator>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/deterministic_for.hpp"
#include "timing/model.hpp"

namespace effitest::io {

namespace {

using core::ChipReport;
using core::SessionPhase;
using core::Stimulus;
using core::TuningSession;

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream is(line);
  return {std::istream_iterator<std::string>(is), {}};
}

/// The whole token as one T: no sign on unsigned types, no trailing junk,
/// no overflow.
template <typename T>
bool parse_number(std::string_view token, T& value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc() && ptr == end;
}

/// `key=<unsigned>` → value, or false.
template <typename T>
bool parse_key(std::string_view token, std::string_view key, T& value) {
  return token.size() > key.size() && token.substr(0, key.size()) == key &&
         token[key.size()] == '=' &&
         parse_number(token.substr(key.size() + 1), value);
}

/// Out-of-order window: a response whose seq is this far beyond the chip's
/// next expected one cannot belong to any stimulus the server will ever
/// issue soon enough to matter (sessions are capped at
/// core::kMaxIterationsPerBatch per batch) — rejecting it keeps a
/// hostile stream from growing the reorder buffer without bound.
constexpr std::size_t kMaxPendingWindow = 1'000'000;

/// One chip's protocol-side bookkeeping around its TuningSession. The
/// session is minted lazily on admission (TuneServerOptions::chip_window):
/// an unadmitted chip holds no session state at all, so a bounded window
/// over many thousands of chips keeps per-session memory flat.
struct ChipSlot {
  std::optional<TuningSession> session;
  std::size_t next_seq = 0;  ///< seq of the outstanding stimulus
  bool started = false;      ///< admitted: session minted, stimulus emitted
  bool finished = false;
  bool errored = false;  ///< abandoned by a lenient-mode bad frame
};

/// Shared emit/advance machinery of both server modes.
class Exchange {
 public:
  Exchange(const core::TunerService& service, std::size_t chips,
           const TuneServerOptions& options, std::ostream& out)
      : service_(&service),
        out_(&out),
        slots_(chips),
        window_(options.chip_window == 0 ? chips
                                         : std::min(options.chip_window, chips)),
        live_stimuli_(options.live_stimuli),
        log_(options.log),
        unfinished_(chips),
        errors_(chips) {
    const core::Problem& problem = service.problem();
    *out_ << "effitest-tune-v1 chips=" << chips
          << " np=" << problem.model().num_pairs()
          << " nb=" << problem.num_buffers()
          << " td=" << json::format_double(service.designated_period()) << '\n';
    refill();
  }

  [[nodiscard]] std::size_t unfinished() const { return unfinished_; }
  [[nodiscard]] std::size_t chips() const { return slots_.size(); }
  [[nodiscard]] std::size_t stimuli() const { return stimuli_; }
  [[nodiscard]] ChipSlot& slot(std::size_t c) { return slots_[c]; }

  /// The outstanding stimulus of an unfinished, admitted chip (idempotent).
  [[nodiscard]] const Stimulus& outstanding(std::size_t c) {
    return slots_[c].session->next_stimulus();
  }
  [[nodiscard]] bool is_final(std::size_t c) const {
    return slots_[c].session->phase() == SessionPhase::kFinalTest;
  }

  /// Expected response width of the outstanding stimulus.
  [[nodiscard]] std::size_t expected_bits(std::size_t c) {
    return is_final(c) ? 1 : outstanding(c).armed.size();
  }

  /// Answer chip c's outstanding stimulus and emit its next one (or its
  /// report when the session completes, freeing a window slot).
  void apply(std::size_t c, const std::vector<bool>& pass) {
    slots_[c].session->record_response(pass);
    ++slots_[c].next_seq;
    emit_next(c);
    if (slots_[c].finished) {
      --active_;
      refill();
    }
  }

  /// Abandon an unfinished chip (lenient mode): emit an `error` line, mark
  /// the chip done, and remember why. Its session is left mid-flight; its
  /// report slot comes back default-constructed. The freed window slot
  /// admits the next chip (unless admission is closed — EOF teardown).
  void abandon(std::size_t c, const std::string& reason) {
    ChipSlot& s = slots_[c];
    if (s.finished) return;
    const bool was_active = s.started;
    s.finished = true;
    s.errored = true;
    errors_[c] = reason;
    --unfinished_;
    *out_ << "error " << c << ' ' << reason << '\n';
    if (was_active) {
      --active_;
      refill();
    }
  }

  /// Stop admitting new chips (the response stream ended): unstarted chips
  /// are abandoned by the caller without ever emitting a stimulus.
  void close_admission() { admitting_ = false; }

  /// Chips admitted since the last call — the caller must drain any
  /// responses already buffered for them.
  [[nodiscard]] std::vector<std::size_t> take_admitted() {
    return std::exchange(admitted_, {});
  }

  [[nodiscard]] std::vector<ChipReport> take_reports() {
    std::vector<ChipReport> reports;
    reports.reserve(slots_.size());
    for (ChipSlot& s : slots_) {
      reports.push_back(s.errored || !s.session.has_value()
                            ? ChipReport{}
                            : s.session->take_report());
    }
    return reports;
  }

  [[nodiscard]] std::vector<std::string> take_errors() {
    return std::move(errors_);
  }

 private:
  /// Admit chips until `window_` sessions are live (or none remain). A
  /// freshly admitted session normally emits its first stimulus; the rare
  /// chip that is born Done (report emitted immediately) does not occupy a
  /// slot, so the loop keeps the window full without recursing.
  void refill() {
    while (admitting_ && next_unstarted_ < slots_.size() &&
           active_ < window_) {
      const std::size_t c = next_unstarted_++;
      ChipSlot& s = slots_[c];
      s.started = true;
      core::SessionOptions sopts;
      sopts.log = log_;
      sopts.chip = c;
      s.session.emplace(service_->begin_chip(sopts));
      emit_next(c);
      if (!s.finished) ++active_;
      admitted_.push_back(c);
    }
  }

  void emit_next(std::size_t c) {
    ChipSlot& s = slots_[c];
    if (s.session->phase() == SessionPhase::kDone) {
      const ChipReport& r = s.session->report();
      *out_ << "report " << c << " iterations=" << r.test.iterations
            << " forced=" << r.test.forced
            << " feasible=" << (r.config.feasible ? 1 : 0) << " passed="
            << (r.passed.has_value() ? (*r.passed ? "1" : "0") : "-")
            << " xi=" << json::format_double(r.config.xi) << " steps";
      for (int k : r.config.steps) *out_ << ' ' << k;
      *out_ << '\n';
      s.finished = true;
      --unfinished_;
      return;
    }
    const bool final_phase = is_final(c);
    *out_ << format_stimulus({c, s.next_seq, final_phase,
                              s.session->next_stimulus()})
          << '\n';
    ++stimuli_;
    if (live_stimuli_ != nullptr) live_stimuli_->inc();
  }

  const core::TunerService* service_;
  std::ostream* out_;
  std::vector<ChipSlot> slots_;
  std::size_t window_ = 0;           ///< live-session bound (== chips: off)
  obs::Counter* live_stimuli_ = nullptr;
  obs::StructuredLog* log_ = nullptr;
  std::size_t next_unstarted_ = 0;   ///< chips [0, this) have been admitted
  std::size_t active_ = 0;           ///< started && !finished
  bool admitting_ = true;
  std::vector<std::size_t> admitted_;  ///< since last take_admitted()
  std::size_t unfinished_ = 0;
  std::size_t stimuli_ = 0;
  std::vector<std::string> errors_;  ///< per chip; empty = clean
};

}  // namespace

LineRead read_line(std::istream& in, std::string& line) {
  using traits = std::istream::traits_type;
  line.clear();
  const std::istream::sentry ok(in, /*noskipws=*/true);
  if (!ok) return LineRead::kEnd;
  std::size_t length = 0;  // bytes before the '\n', kept or discarded
  for (traits::int_type ch; (ch = in.rdbuf()->sbumpc()) != '\n'; ++length) {
    if (traits::eq_int_type(ch, traits::eof())) {
      in.setstate(length == 0 ? std::ios::eofbit | std::ios::failbit
                              : std::ios::eofbit);
      if (length == 0) return LineRead::kEnd;
      break;
    }
    if (length < kMaxLineBytes) line.push_back(traits::to_char_type(ch));
  }
  if (length > kMaxLineBytes) {
    line.clear();
    return LineRead::kOverlong;
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return LineRead::kLine;
}

std::string line_too_long() {
  return "line exceeds the " + std::to_string(kMaxLineBytes) +
         "-byte protocol limit";
}

std::string format_hello(const Hello& hello) {
  std::string line = "hello effitest-tune-v1 chips=" +
                     std::to_string(hello.chips);
  if (hello.window != 0) line += " window=" + std::to_string(hello.window);
  if (hello.lenient) line += " lenient";
  return line;
}

Hello parse_hello(const std::string& line) {
  const std::vector<std::string> tokens = tokens_of(line);
  if (tokens.size() < 2 || tokens[0] != "hello" ||
      tokens[1] != "effitest-tune-v1") {
    throw ProtocolError("expected \"hello effitest-tune-v1 chips=<n>\"");
  }
  Hello hello;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token == "lenient") {
      hello.lenient = true;
    } else if (!parse_key(token, "chips", hello.chips) &&
               !parse_key(token, "window", hello.window)) {
      const bool known =
          token.starts_with("chips=") || token.starts_with("window=");
      throw ProtocolError(std::string(known ? "malformed" : "unknown") +
                          " hello option \"" + token + "\"");
    }
  }
  if (hello.chips == 0) {
    throw ProtocolError("hello must carry chips=<n> with n >= 1");
  }
  return hello;
}

std::string format_greeting(const Greeting& greeting) {
  return "serve effitest-tune-v1 session=" + std::to_string(greeting.session) +
         " seed=" + std::to_string(greeting.seed);
}

Greeting parse_greeting(const std::string& line) {
  const std::vector<std::string> tokens = tokens_of(line);
  Greeting greeting;
  if (tokens.size() != 4 || tokens[0] != "serve" ||
      tokens[1] != "effitest-tune-v1" ||
      !parse_key(tokens[2], "session", greeting.session) ||
      !parse_key(tokens[3], "seed", greeting.seed)) {
    throw ProtocolError("tune: malformed greeting \"" + line + "\"");
  }
  return greeting;
}

std::string format_stimulus(const StimulusLine& line) {
  std::string text = (line.final ? "final " : "stimulus ") +
                     std::to_string(line.chip) + ' ' +
                     std::to_string(line.seq) + ' ' +
                     json::format_double(line.stimulus.period) + " steps";
  for (const int k : line.stimulus.steps) text += ' ' + std::to_string(k);
  if (!line.final) {
    text += " arm";
    for (const std::size_t p : line.stimulus.armed) {
      text += ' ' + std::to_string(p);
    }
  }
  return text;
}

StimulusLine parse_stimulus(const std::string& line) {
  const std::vector<std::string> tokens = tokens_of(line);
  StimulusLine parsed;
  const auto malformed = [&line] {
    return ProtocolError("tune: malformed stimulus line \"" + line + "\"");
  };
  if (tokens.size() < 5 || (tokens[0] != "stimulus" && tokens[0] != "final") ||
      !parse_number(tokens[1], parsed.chip) ||
      !parse_number(tokens[2], parsed.seq) ||
      !parse_number(tokens[3], parsed.stimulus.period) ||
      !std::isfinite(parsed.stimulus.period) || tokens[4] != "steps") {
    throw malformed();
  }
  parsed.final = tokens[0] == "final";
  std::size_t i = 5;
  for (; i < tokens.size() && tokens[i] != "arm"; ++i) {
    int step = 0;
    if (!parse_number(tokens[i], step)) throw malformed();
    parsed.stimulus.steps.push_back(step);
  }
  // A stimulus ends with its (possibly empty) arm list; a final has none.
  if (parsed.final != (i == tokens.size())) throw malformed();
  for (++i; i < tokens.size(); ++i) {
    std::size_t pair = 0;
    if (!parse_number(tokens[i], pair)) throw malformed();
    parsed.stimulus.armed.push_back(pair);
  }
  return parsed;
}

std::string format_response(const Response& response) {
  return "response " + std::to_string(response.chip) + ' ' +
         std::to_string(response.seq) + ' ' + response.bits;
}

Response parse_response(const std::string& line) {
  const std::vector<std::string> tokens = tokens_of(line);
  Response response;
  if (tokens.size() != 4 || tokens[0] != "response" ||
      !parse_number(tokens[1], response.chip) ||
      !parse_number(tokens[2], response.seq)) {
    throw ProtocolError("tune: malformed response line \"" + line + "\"");
  }
  response.bits = tokens[3];
  return response;
}

std::string encode_bits(const std::vector<bool>& pass) {
  std::string bits(pass.size(), '0');
  for (std::size_t i = 0; i < pass.size(); ++i) {
    if (pass[i]) bits[i] = '1';
  }
  return bits;
}

std::vector<bool> decode_bits(const std::string& bits) {
  std::vector<bool> pass(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] != '0' && bits[i] != '1') {
      throw ProtocolError("tune: response bits must be 0/1, got \"" + bits +
                          "\"");
    }
    pass[i] = bits[i] == '1';
  }
  return pass;
}

std::string format_error(const std::string& reason) {
  return "error - " + reason;
}

bool is_fatal_error(const std::string& line) {
  return line.starts_with("error -");
}

ServerLine classify_server_line(const std::string& line) {
  const std::vector<std::string> tokens = tokens_of(line);
  if (tokens.empty() || line[0] == '#') return ServerLine::kSkip;
  const std::string& tag = tokens[0];
  if (tag == "effitest-tune-v1") return ServerLine::kHeader;
  if (tag == "stimulus" || tag == "final") return ServerLine::kStimulus;
  if (tag == "report") return ServerLine::kReport;
  if (tag == "error") return ServerLine::kError;
  if (tag == kBye) return ServerLine::kBye;
  return ServerLine::kUnknown;
}

SimulatedTester::SimulatedTester(const core::Problem& problem,
                                 std::uint64_t seed, std::size_t chips)
    : problem_(&problem) {
  dies_.reserve(chips);
  timing::SampleWorkspace ws;
  for (std::size_t c = 0; c < chips; ++c) {
    stats::Rng rng(parallel::index_seed(seed, c));
    dies_.push_back(problem.model().sample_chip(rng, ws));
  }
}

std::vector<bool> SimulatedTester::answer(
    std::size_t chip, bool final, const core::Stimulus& stimulus) const {
  core::SimulatedChip tester(*problem_, dies_[chip]);
  if (final) return {tester.final_test(stimulus.period, stimulus.steps)};
  return tester.apply(stimulus);
}

TuneServer::TuneServer(const core::TunerService& service, std::size_t chips,
                       TuneServerOptions options)
    : service_(&service), chips_(chips), options_(options) {}

TuneServerResult TuneServer::run(std::istream& in, std::ostream& out) {
  Exchange exchange(*service_, chips_, options_, out);
  const bool lenient = options_.lenient;
  // No legal response is ever wider than np (a final line carries one bit),
  // so anything wider is rejected before it can occupy the reorder buffer.
  const std::size_t max_bits =
      std::max<std::size_t>(service_->problem().model().num_pairs(), 1);
  TuneServerResult result;

  // Buffered out-of-order responses by (chip, seq).
  std::map<std::pair<std::size_t, std::size_t>, std::string> pending;

  // Unattributable input: strict mode aborts, lenient mode drops it.
  const auto drop = [&](const std::string& reason) {
    if (!lenient) throw ProtocolError(reason);
    ++result.dropped_lines;
  };
  // A bad frame attributable to one chip: strict mode aborts, lenient mode
  // abandons exactly that chip and keeps serving the others.
  const auto bad_frame = [&](std::size_t chip, const std::string& reason) {
    if (!lenient) throw ProtocolError(reason);
    exchange.abandon(chip, reason);
  };
  // Drain one admitted chip's queue as far as buffered responses allow.
  const auto drain_chip = [&](std::size_t chip) {
    while (exchange.slot(chip).started && !exchange.slot(chip).finished) {
      const auto it =
          pending.find(std::make_pair(chip, exchange.slot(chip).next_seq));
      if (it == pending.end()) break;
      std::string reason;
      std::vector<bool> pass;
      if (it->second.size() != exchange.expected_bits(chip)) {
        reason = "tune: response width " + std::to_string(it->second.size()) +
                 " does not match stimulus for chip " + std::to_string(chip) +
                 " seq " + std::to_string(it->first.second);
      } else {
        try {
          pass = decode_bits(it->second);
        } catch (const ProtocolError& e) {
          reason = e.what();
        }
      }
      pending.erase(it);
      if (!reason.empty()) {
        bad_frame(chip, reason);
        break;
      }
      exchange.apply(chip, pass);
    }
  };
  // A finished chip frees a window slot: freshly admitted chips may
  // already have responses waiting in the reorder buffer (a replayed log),
  // and draining those can cascade into further admissions.
  const auto drain_admitted = [&] {
    std::vector<std::size_t> fresh;
    while (!(fresh = exchange.take_admitted()).empty()) {
      for (const std::size_t c : fresh) drain_chip(c);
    }
  };

  // Consume one response line; early returns mirror the historical
  // `continue`s (any admissions they trigger are drained by the caller).
  const auto process_line = [&](const std::string& line) {
    Response response;
    try {
      response = parse_response(line);
    } catch (const ProtocolError& e) {
      return drop(e.what());
    }
    const std::size_t chip = response.chip;
    const std::size_t seq = response.seq;
    const std::string& bits = response.bits;
    if (chip >= exchange.chips()) {
      return drop("tune: response for unknown chip " + std::to_string(chip));
    }
    if (exchange.slot(chip).finished) {
      // The chip's report (or error) already stands.
      return drop("tune: duplicate/stale response for chip " +
                  std::to_string(chip) + " seq " + std::to_string(seq));
    }
    if (bits.size() > max_bits) {
      return bad_frame(chip, "tune: response width " +
                                 std::to_string(bits.size()) + " for chip " +
                                 std::to_string(chip) +
                                 " exceeds the protocol maximum np=" +
                                 std::to_string(max_bits));
    }
    if (seq >= exchange.slot(chip).next_seq + kMaxPendingWindow) {
      return bad_frame(chip, "tune: implausible sequence number " +
                                 std::to_string(seq) + " for chip " +
                                 std::to_string(chip) + " (next expected " +
                                 std::to_string(exchange.slot(chip).next_seq) +
                                 ")");
    }
    if (seq < exchange.slot(chip).next_seq ||
        !pending.emplace(std::make_pair(chip, seq), bits).second) {
      return bad_frame(chip, "tune: duplicate/stale response for chip " +
                                 std::to_string(chip) + " seq " +
                                 std::to_string(seq));
    }
    drain_chip(chip);
  };

  std::string line;
  while (exchange.unfinished() > 0) {
    const LineRead got = read_line(in, line);
    if (got == LineRead::kEnd) {
      if (!lenient) {
        throw std::runtime_error(
            "tune: response stream ended with " +
            std::to_string(exchange.unfinished()) + " chip(s) unfinished");
      }
      // No new chips past this point: unstarted ones are abandoned without
      // ever emitting a stimulus nobody will answer.
      exchange.close_admission();
      for (std::size_t c = 0; c < exchange.chips(); ++c) {
        if (!exchange.slot(c).finished) {
          exchange.abandon(
              c, "tune: response stream ended before this chip finished");
        }
      }
      break;
    }
    if (got == LineRead::kOverlong) {
      drop("tune: response " + line_too_long());
    } else if (!line.empty() && line[0] != '#') {
      process_line(line);
    }
    drain_admitted();
  }
  if (!pending.empty()) {
    if (!lenient) {
      throw std::runtime_error(
          "tune: " + std::to_string(pending.size()) +
          " response(s) reference stimuli that were never issued");
    }
    // Leftovers can only reference finished/abandoned chips here.
    result.dropped_lines += pending.size();
  }
  out << kBye << '\n';
  result.stimuli = exchange.stimuli();
  result.reports = exchange.take_reports();
  result.errors = exchange.take_errors();
  return result;
}

TuneServerResult TuneServer::run_simulated(std::ostream& out,
                                           std::ostream* response_log) {
  SimulatedTester tester(service_->problem(),
                         service_->monte_carlo_seed_base(), chips_);
  Exchange exchange(*service_, chips_, options_, out);
  // Round-robin: one stimulus/response exchange per unfinished chip per
  // sweep, so a logged session interleaves chips (the interesting replay
  // case). With a chip window only admitted chips participate; finishing
  // one admits the next (inside apply), which joins the rotation.
  while (exchange.unfinished() > 0) {
    for (std::size_t c = 0; c < chips_; ++c) {
      if (!exchange.slot(c).started || exchange.slot(c).finished) continue;
      const std::vector<bool> pass =
          tester.answer(c, exchange.is_final(c), exchange.outstanding(c));
      if (response_log != nullptr) {
        *response_log << format_response({c, exchange.slot(c).next_seq,
                                          encode_bits(pass)})
                      << '\n';
      }
      exchange.apply(c, pass);
    }
  }
  out << kBye << '\n';
  TuneServerResult result;
  result.stimuli = exchange.stimuli();
  result.reports = exchange.take_reports();
  result.errors = exchange.take_errors();
  return result;
}

}  // namespace effitest::io
