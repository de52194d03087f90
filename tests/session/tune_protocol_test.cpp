// Tune-protocol tests: the line-oriented stimulus/response server must
// reproduce the in-process driver exactly, tolerate arbitrarily shuffled
// (out-of-order) replayed response logs, and reject malformed or truncated
// streams with clear errors instead of wrong results. The codec (hello,
// greeting, stimulus, response) must round-trip and reject everything
// off-grammar, and the bounded line reader must never buffer more than
// kMaxLineBytes of one line.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/tuner_service.hpp"
#include "io/tune_protocol.hpp"
#include "netlist/generator.hpp"
#include "parallel/deterministic_for.hpp"
#include "timing/model.hpp"

namespace effitest::io {
namespace {

struct Fixture {
  netlist::GeneratedCircuit circuit;
  netlist::CellLibrary lib = netlist::CellLibrary::standard();
  timing::CircuitModel model;
  core::Problem problem;
  core::FlowOptions options;

  Fixture()
      : circuit(netlist::generate_circuit([] {
          netlist::GeneratorSpec s;
          s.num_flip_flops = 70;
          s.num_gates = 900;
          s.num_buffers = 2;
          s.num_critical_paths = 20;
          s.seed = 23;
          return s;
        }())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model) {
    options.seed = 1234;
  }
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

void expect_reports_equal(const core::ChipReport& a,
                          const core::ChipReport& b) {
  EXPECT_EQ(a.test.iterations, b.test.iterations);
  EXPECT_EQ(a.test.forced, b.test.forced);
  EXPECT_EQ(a.test.tested, b.test.tested);
  ASSERT_EQ(a.test.lower.size(), b.test.lower.size());
  for (std::size_t p = 0; p < a.test.lower.size(); ++p) {
    EXPECT_EQ(a.test.lower[p], b.test.lower[p]) << "lower " << p;
    EXPECT_EQ(a.test.upper[p], b.test.upper[p]) << "upper " << p;
  }
  EXPECT_EQ(a.config.feasible, b.config.feasible);
  EXPECT_EQ(a.config.steps, b.config.steps);
  EXPECT_EQ(a.config.xi, b.config.xi);
  EXPECT_EQ(a.passed, b.passed);
}

TEST(TuneProtocol, SimulatedRunMatchesDirectDrive) {
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  constexpr std::size_t kChips = 4;

  TuneServer server(service, kChips);
  std::ostringstream protocol, log;
  const TuneServerResult streamed = server.run_simulated(protocol, &log);
  ASSERT_EQ(streamed.reports.size(), kChips);

  for (std::size_t c = 0; c < kChips; ++c) {
    stats::Rng rng(parallel::index_seed(service.monte_carlo_seed_base(), c));
    const timing::Chip die = f.model.sample_chip(rng);
    core::SimulatedChip tester(f.problem, die);
    core::TuningSession session = service.begin_chip();
    session.drive(tester);
    expect_reports_equal(streamed.reports[c], session.report());
  }

  // The emitted stream carries the handshake, one report per chip, and a
  // closing bye.
  const std::string text = protocol.str();
  EXPECT_NE(text.find("effitest-tune-v1 chips=4"), std::string::npos);
  EXPECT_EQ(lines_of(text).back(), "bye");
  std::size_t reports = 0;
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("report ", 0) == 0) ++reports;
  }
  EXPECT_EQ(reports, kChips);
}

TEST(TuneProtocol, InOrderReplayReproducesReports) {
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  constexpr std::size_t kChips = 3;

  std::ostringstream protocol, log;
  const TuneServerResult simulated =
      TuneServer(service, kChips).run_simulated(protocol, &log);

  std::istringstream replay(log.str());
  std::ostringstream replay_out;
  const TuneServerResult replayed =
      TuneServer(service, kChips).run(replay, replay_out);
  ASSERT_EQ(replayed.reports.size(), kChips);
  EXPECT_EQ(replayed.stimuli, simulated.stimuli);
  for (std::size_t c = 0; c < kChips; ++c) {
    expect_reports_equal(replayed.reports[c], simulated.reports[c]);
  }
  // Byte-identical protocol stream, responses being equal.
  EXPECT_EQ(replay_out.str(), protocol.str());
}

TEST(TuneProtocol, CrlfReplayReproducesReports) {
  // A DOS/telnet-style tester terminates every response with \r\n; the
  // server must strip the \r instead of rejecting every frame as
  // malformed (the .bench parser got this treatment in PR 5 — the
  // protocol reader regressed the same way).
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  constexpr std::size_t kChips = 3;

  std::ostringstream protocol, log;
  const TuneServerResult simulated =
      TuneServer(service, kChips).run_simulated(protocol, &log);

  std::string crlf_log;
  for (const std::string& line : lines_of(log.str())) {
    crlf_log += line;
    crlf_log += "\r\n";
  }
  // Strict mode: every frame must be accepted, reports byte-identical.
  {
    std::istringstream replay(crlf_log);
    std::ostringstream replay_out;
    const TuneServerResult replayed =
        TuneServer(service, kChips).run(replay, replay_out);
    ASSERT_EQ(replayed.reports.size(), kChips);
    for (std::size_t c = 0; c < kChips; ++c) {
      expect_reports_equal(replayed.reports[c], simulated.reports[c]);
    }
    EXPECT_EQ(replay_out.str(), protocol.str());
  }
  // Lenient mode must not misread the frames as garbage either: zero
  // drops, zero abandoned chips.
  {
    std::istringstream replay(crlf_log);
    std::ostringstream replay_out;
    TuneServerOptions lenient;
    lenient.lenient = true;
    const TuneServerResult replayed =
        TuneServer(service, kChips, lenient).run(replay, replay_out);
    EXPECT_EQ(replayed.dropped_lines, 0u);
    for (const std::string& err : replayed.errors) EXPECT_TRUE(err.empty());
    for (std::size_t c = 0; c < kChips; ++c) {
      expect_reports_equal(replayed.reports[c], simulated.reports[c]);
    }
  }
  // A bare CR line (CRLF blank line) is still a blank line, not a frame.
  {
    std::istringstream replay("\r\n# comment\r\n" + crlf_log);
    std::ostringstream replay_out;
    const TuneServerResult replayed =
        TuneServer(service, kChips).run(replay, replay_out);
    for (std::size_t c = 0; c < kChips; ++c) {
      expect_reports_equal(replayed.reports[c], simulated.reports[c]);
    }
  }
}

TEST(TuneProtocol, ChipWindowBoundsLiveSessionsAndPreservesReports) {
  // Per-session backpressure: with chip_window=W only W sessions are live
  // at a time — the initial burst is W stimulus lines, not one per chip —
  // and the reports stay identical to the unwindowed run for every W.
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  constexpr std::size_t kChips = 5;

  std::ostringstream protocol;
  const TuneServerResult unwindowed =
      TuneServer(service, kChips).run_simulated(protocol, nullptr);

  for (const std::size_t window : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{64}}) {
    TuneServerOptions opts;
    opts.chip_window = window;
    std::ostringstream windowed_protocol, log;
    const TuneServerResult windowed =
        TuneServer(service, kChips, opts).run_simulated(windowed_protocol,
                                                        &log);
    ASSERT_EQ(windowed.reports.size(), kChips) << "window " << window;
    EXPECT_EQ(windowed.stimuli, unwindowed.stimuli) << "window " << window;
    for (std::size_t c = 0; c < kChips; ++c) {
      expect_reports_equal(windowed.reports[c], unwindowed.reports[c]);
    }

    // The window really bounds the live set: until the first chip
    // completes, at most `window` distinct chips appear in the stream —
    // and every chip is eventually admitted (one seq-0 stimulus each).
    std::set<std::size_t> live_before_first_report;
    bool saw_report = false;
    std::size_t first_stimuli = 0;
    for (const std::string& line : lines_of(windowed_protocol.str())) {
      if (line.rfind("report ", 0) == 0) saw_report = true;
      if (line.rfind("stimulus ", 0) != 0 && line.rfind("final ", 0) != 0) {
        continue;
      }
      std::istringstream is(line);
      std::string tag;
      std::size_t chip = 0, seq = 0;
      is >> tag >> chip >> seq;
      if (seq == 0) ++first_stimuli;
      if (!saw_report) live_before_first_report.insert(chip);
    }
    EXPECT_LE(live_before_first_report.size(), window)
        << "window " << window;
    EXPECT_EQ(first_stimuli, kChips);  // every chip eventually admitted

    // And a windowed REPLAY of the windowed log reproduces the reports:
    // responses for not-yet-admitted chips wait in the reorder buffer.
    std::vector<std::string> responses = lines_of(log.str());
    std::mt19937_64 shuffle_rng(7 + window);
    std::shuffle(responses.begin(), responses.end(), shuffle_rng);
    std::istringstream replay(join_lines(responses));
    std::ostringstream replay_out;
    const TuneServerResult replayed =
        TuneServer(service, kChips, opts).run(replay, replay_out);
    for (std::size_t c = 0; c < kChips; ++c) {
      expect_reports_equal(replayed.reports[c], unwindowed.reports[c]);
    }
  }
}

TEST(TuneProtocol, ChipWindowInitialBurstIsBounded) {
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  constexpr std::size_t kChips = 6;
  TuneServerOptions opts;
  opts.chip_window = 2;
  opts.lenient = true;

  // Feed an empty stream: the server emits its initial burst, then EOF
  // abandons everything. Only the 2 admitted chips may have stimuli.
  std::istringstream empty_in("");
  std::ostringstream out;
  const TuneServerResult result =
      TuneServer(service, kChips, opts).run(empty_in, out);
  std::size_t stimulus_lines = 0;
  for (const std::string& line : lines_of(out.str())) {
    if (line.rfind("stimulus ", 0) == 0 || line.rfind("final ", 0) == 0) {
      ++stimulus_lines;
    }
  }
  EXPECT_EQ(stimulus_lines, 2u);
  EXPECT_EQ(result.stimuli, 2u);
  // Every chip is reported abandoned — the unadmitted ones without ever
  // seeing a stimulus.
  for (const std::string& err : result.errors) EXPECT_FALSE(err.empty());
}

TEST(TuneProtocol, ShuffledOutOfOrderReplayReproducesReports) {
  // A replayed log shuffled across chips AND within chips must still tune
  // every chip to the same reports: the server buffers by (chip, seq).
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  constexpr std::size_t kChips = 3;

  std::ostringstream protocol, log;
  const TuneServerResult simulated =
      TuneServer(service, kChips).run_simulated(protocol, &log);

  std::vector<std::string> responses = lines_of(log.str());
  std::mt19937_64 shuffle_rng(99);
  std::shuffle(responses.begin(), responses.end(), shuffle_rng);

  std::istringstream replay(join_lines(responses));
  std::ostringstream replay_out;
  const TuneServerResult replayed =
      TuneServer(service, kChips).run(replay, replay_out);
  ASSERT_EQ(replayed.reports.size(), kChips);
  for (std::size_t c = 0; c < kChips; ++c) {
    expect_reports_equal(replayed.reports[c], simulated.reports[c]);
  }
}

TEST(TuneProtocol, TruncatedReplayFailsCleanly) {
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  std::ostringstream protocol, log;
  (void)TuneServer(service, 2).run_simulated(protocol, &log);

  std::vector<std::string> responses = lines_of(log.str());
  ASSERT_GT(responses.size(), 1u);
  responses.pop_back();
  std::istringstream replay(join_lines(responses));
  std::ostringstream out;
  EXPECT_THROW((void)TuneServer(service, 2).run(replay, out),
               std::runtime_error);
}

TEST(TuneProtocol, MalformedAndForeignResponsesFailCleanly) {
  Fixture f;
  const core::TunerService service(f.problem, f.options);

  const auto run_with = [&](const std::string& input) {
    std::istringstream in(input);
    std::ostringstream out;
    return TuneServer(service, 1).run(in, out);
  };
  EXPECT_THROW((void)run_with("nonsense line\n"), std::runtime_error);
  EXPECT_THROW((void)run_with("response 7 0 1\n"), std::runtime_error);
  EXPECT_THROW((void)run_with("response 0 0 2xy\n"), std::runtime_error);
}

// --- fuzz-driven hardening (strict mode) ----------------------------------

TEST(TuneProtocol, OversizedResponseWidthIsRejectedBeforeBuffering) {
  // A response wider than np can never match any stimulus; it must be
  // rejected up front, not parked in the reorder buffer (regression for a
  // fuzz finding: huge <bits> fields buffered under far-future seqs grew
  // memory without bound).
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  const std::size_t np = f.problem.model().num_pairs();
  std::istringstream in("response 0 5 " + std::string(np + 1, '1') + "\n");
  std::ostringstream out;
  try {
    (void)TuneServer(service, 1).run(in, out);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the protocol maximum"),
              std::string::npos)
        << e.what();
  }
}

TEST(TuneProtocol, ImplausibleSequenceNumberIsRejected) {
  // Same fuzz finding, other axis: a seq far beyond the next expected one
  // (e.g. a wrapped negative) must be rejected, not buffered forever.
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  std::istringstream in("response 0 987654321 1\n");
  std::ostringstream out;
  try {
    (void)TuneServer(service, 1).run(in, out);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible sequence number"),
              std::string::npos)
        << e.what();
  }
}

// --- lenient mode ---------------------------------------------------------

TEST(TuneProtocol, LenientBadFrameKillsOnlyThatChip) {
  // A malformed frame attributable to one chip abandons that chip alone:
  // every sibling's report stays byte-identical to an undisturbed run.
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  constexpr std::size_t kChips = 3;

  std::ostringstream protocol, log;
  const TuneServerResult clean =
      TuneServer(service, kChips).run_simulated(protocol, &log);

  // Widen the bits of chip 1's first response: a width mismatch.
  std::vector<std::string> responses = lines_of(log.str());
  bool corrupted = false;
  for (std::string& line : responses) {
    if (!corrupted && line.rfind("response 1 ", 0) == 0) {
      line += "0";
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);

  TuneServerOptions lenient;
  lenient.lenient = true;
  std::istringstream replay(join_lines(responses));
  std::ostringstream out;
  const TuneServerResult result =
      TuneServer(service, kChips, lenient).run(replay, out);

  ASSERT_EQ(result.errors.size(), kChips);
  EXPECT_TRUE(result.errors[0].empty());
  EXPECT_FALSE(result.errors[1].empty());
  EXPECT_TRUE(result.errors[2].empty());
  expect_reports_equal(result.reports[0], clean.reports[0]);
  expect_reports_equal(result.reports[2], clean.reports[2]);
  // The abandoned chip's report slot is default-constructed.
  EXPECT_FALSE(result.reports[1].passed.has_value());
  EXPECT_EQ(result.reports[1].test.iterations, 0u);
  // The stream announced the abandonment.
  EXPECT_NE(out.str().find("error 1 "), std::string::npos);
}

TEST(TuneProtocol, LenientDropsUnattributableGarbage) {
  // Unparseable lines and out-of-range chip ids belong to no session:
  // lenient mode drops and counts them, and every chip still tunes to the
  // clean-run reports.
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  constexpr std::size_t kChips = 2;

  std::ostringstream protocol, log;
  const TuneServerResult clean =
      TuneServer(service, kChips).run_simulated(protocol, &log);

  std::string noisy = "total garbage !!\nresponse 99 0 1\n" + log.str();
  TuneServerOptions lenient;
  lenient.lenient = true;
  std::istringstream replay(noisy);
  std::ostringstream out;
  const TuneServerResult result =
      TuneServer(service, kChips, lenient).run(replay, out);

  EXPECT_EQ(result.dropped_lines, 2u);
  ASSERT_EQ(result.errors.size(), kChips);
  for (std::size_t c = 0; c < kChips; ++c) {
    EXPECT_TRUE(result.errors[c].empty()) << c;
    expect_reports_equal(result.reports[c], clean.reports[c]);
  }
}

TEST(TuneProtocol, LenientTruncatedStreamErrorsUnfinishedChipsOnly) {
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  std::ostringstream protocol, log;
  (void)TuneServer(service, 2).run_simulated(protocol, &log);

  // Keep only chip 0's responses: chip 1 starves and is abandoned at EOF;
  // chip 0 finishes normally.
  std::vector<std::string> responses;
  for (const std::string& line : lines_of(log.str())) {
    if (line.rfind("response 0 ", 0) == 0) responses.push_back(line);
  }
  TuneServerOptions lenient;
  lenient.lenient = true;
  std::istringstream replay(join_lines(responses));
  std::ostringstream out;
  const TuneServerResult result =
      TuneServer(service, 2, lenient).run(replay, out);
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_TRUE(result.errors[0].empty());
  EXPECT_FALSE(result.errors[1].empty());
  EXPECT_NE(result.errors[1].find("stream ended"), std::string::npos);
}

// --- codec ------------------------------------------------------------------

TEST(TuneCodec, ReadLineStripsOneCarriageReturnAndReportsEnd) {
  std::istringstream in("a b\r\n\r\r\n\nlast");
  std::string line;
  EXPECT_EQ(read_line(in, line), LineRead::kLine);
  EXPECT_EQ(line, "a b");
  EXPECT_EQ(read_line(in, line), LineRead::kLine);
  EXPECT_EQ(line, "\r");  // only one trailing '\r' is framing
  EXPECT_EQ(read_line(in, line), LineRead::kLine);
  EXPECT_EQ(line, "");
  EXPECT_EQ(read_line(in, line), LineRead::kLine);
  EXPECT_EQ(line, "last");  // unterminated last line still counts
  EXPECT_EQ(read_line(in, line), LineRead::kEnd);
  EXPECT_EQ(read_line(in, line), LineRead::kEnd);
}

TEST(TuneCodec, ReadLineDiscardsOverlongLinesThroughTheirNewline) {
  const std::string at_limit(kMaxLineBytes, 'a');
  const std::string over(kMaxLineBytes + 1, 'b');
  std::istringstream in(at_limit + "\n" + over + "\nnext\n" +
                        std::string(2 * kMaxLineBytes, 'c'));
  std::string line;
  EXPECT_EQ(read_line(in, line), LineRead::kLine);
  EXPECT_EQ(line, at_limit);
  EXPECT_EQ(read_line(in, line), LineRead::kOverlong);
  EXPECT_TRUE(line.empty());
  EXPECT_EQ(read_line(in, line), LineRead::kLine);  // back in sync
  EXPECT_EQ(line, "next");
  // A newline-free flood: one kOverlong at the end of the stream, holding
  // at most kMaxLineBytes at any time.
  EXPECT_EQ(read_line(in, line), LineRead::kOverlong);
  EXPECT_LE(line.capacity(), 2 * kMaxLineBytes);
  EXPECT_EQ(read_line(in, line), LineRead::kEnd);
}

TEST(TuneCodec, HelloRoundTripsAndRejectsJunk) {
  for (const Hello& h : {Hello{1, 0, false}, Hello{12, 3, true},
                         Hello{std::numeric_limits<std::size_t>::max(), 1,
                               false}}) {
    EXPECT_EQ(parse_hello(format_hello(h)), h) << format_hello(h);
  }
  EXPECT_EQ(format_hello({5, 2, true}),
            "hello effitest-tune-v1 chips=5 window=2 lenient");
  EXPECT_EQ(parse_hello("hello effitest-tune-v1 lenient window=4 chips=9\r"),
            (Hello{9, 4, true}));
  for (const char* bad :
       {"", "hello", "hello effitest-tune-v2 chips=1",
        "hello effitest-tune-v1", "hello effitest-tune-v1 chips=0",
        "hello effitest-tune-v1 chips=12x", "hello effitest-tune-v1 chips=",
        "hello effitest-tune-v1 chips=-1", "hello effitest-tune-v1 chips=+1",
        "hello effitest-tune-v1 chips=99999999999999999999999",
        "hello effitest-tune-v1 chips", "hello effitest-tune-v1 chips=1 x",
        "hello effitest-tune-v1 chips=1 window=1.5",
        "hello effitest-tune-v1 chips=1 lenient=1"}) {
    EXPECT_THROW((void)parse_hello(bad), ProtocolError) << bad;
  }
}

TEST(TuneCodec, GreetingRoundTripsWithCheckedIntegers) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const Greeting& g : {Greeting{0, 0}, Greeting{7, 123456789},
                            Greeting{kMax, kMax}}) {
    EXPECT_EQ(parse_greeting(format_greeting(g)), g) << format_greeting(g);
  }
  EXPECT_EQ(format_greeting({3, 42}),
            "serve effitest-tune-v1 session=3 seed=42");
  for (const char* bad :
       {"", "serve effitest-tune-v1 session=abc seed=1",
        "serve effitest-tune-v1 session=1 seed=18446744073709551616",
        "serve effitest-tune-v1 session=1 seed=2x",
        "serve effitest-tune-v1 session=1", "serve effitest-tune-v1 seed=1",
        "serve effitest-tune-v1 seed=1 session=1",
        "serve effitest-tune-v1 session=1 seed=1 extra",
        "error - chips=5 exceeds this server's per-session limit of 4"}) {
    EXPECT_THROW((void)parse_greeting(bad), ProtocolError) << bad;
  }
}

TEST(TuneCodec, StimulusAndResponseRoundTrip) {
  StimulusLine stim;
  stim.chip = 4;
  stim.seq = 17;
  stim.stimulus.period = 201.34567890123456;
  stim.stimulus.steps = {0, -3, 12};
  stim.stimulus.armed = {1, 5, 80};
  StimulusLine fin = stim;
  fin.final = true;
  fin.stimulus.armed.clear();
  StimulusLine unarmed = stim;
  unarmed.stimulus.armed.clear();
  unarmed.stimulus.steps.clear();
  for (const StimulusLine& s : {stim, fin, unarmed}) {
    const StimulusLine back = parse_stimulus(format_stimulus(s));
    EXPECT_EQ(back.chip, s.chip);
    EXPECT_EQ(back.seq, s.seq);
    EXPECT_EQ(back.final, s.final);
    EXPECT_EQ(back.stimulus.period, s.stimulus.period);  // exact
    EXPECT_EQ(back.stimulus.steps, s.stimulus.steps);
    EXPECT_EQ(back.stimulus.armed, s.stimulus.armed);
  }
  fin.stimulus.period = 201.25;
  EXPECT_EQ(format_stimulus(fin), "final 4 17 201.25 steps 0 -3 12");
  for (const char* bad :
       {"", "stimulus 0 0 200 steps 3x arm",
        "stimulus 0 0 200 steps 1 arm 2x", "stimulus 0 0 200 steps 1",
        "final 0 0 200 steps 1 arm", "stimulus -1 0 200 steps arm",
        "stimulus 0 0 nan steps arm", "stimulus 0 0 200x steps arm",
        "stimulus 0 0 200 step 1 arm",
        "stimulus 0 0 200 steps 99999999999 arm", "report 0 0 200 steps"}) {
    EXPECT_THROW((void)parse_stimulus(bad), ProtocolError) << bad;
  }

  for (const Response& r : {Response{0, 0, "1"}, Response{3, 9, "0101"}}) {
    EXPECT_EQ(parse_response(format_response(r)), r) << format_response(r);
  }
  EXPECT_EQ(format_response({2, 5, encode_bits({true, false, true})}),
            "response 2 5 101");
  EXPECT_EQ(decode_bits("101"), (std::vector<bool>{true, false, true}));
  EXPECT_THROW((void)decode_bits("1x"), ProtocolError);
  for (const char* bad :
       {"", "response", "response 1 2", "response 1x 2 1", "response 1 2 1 0",
        "response 1 -2 1", "response 99999999999999999999999 0 1"}) {
    EXPECT_THROW((void)parse_response(bad), ProtocolError) << bad;
  }
}

TEST(TuneCodec, ServerLinesClassifyByLeadingToken) {
  EXPECT_EQ(classify_server_line(""), ServerLine::kSkip);
  EXPECT_EQ(classify_server_line("# note"), ServerLine::kSkip);
  EXPECT_EQ(classify_server_line("effitest-tune-v1 chips=1 np=2 nb=1 td=9"),
            ServerLine::kHeader);
  EXPECT_EQ(classify_server_line("final 0 0 1 steps 0"),
            ServerLine::kStimulus);
  EXPECT_EQ(classify_server_line("report 0 iterations=1"),
            ServerLine::kReport);
  EXPECT_EQ(classify_server_line("error 1 bad width"), ServerLine::kError);
  EXPECT_EQ(classify_server_line(format_error("gone")), ServerLine::kError);
  EXPECT_TRUE(is_fatal_error(format_error("gone")));
  EXPECT_FALSE(is_fatal_error("error 1 bad width"));
  EXPECT_EQ(classify_server_line("bye"), ServerLine::kBye);
  EXPECT_EQ(classify_server_line("byebye"), ServerLine::kUnknown);
}

TEST(TuneProtocol, OverlongResponseLineIsMalformed) {
  // Strict mode aborts on it like any malformed line; lenient mode drops
  // and counts it, and the reports are those of the clean log.
  Fixture f;
  const core::TunerService service(f.problem, f.options);
  constexpr std::size_t kChips = 2;
  std::ostringstream protocol, log;
  const TuneServerResult clean =
      TuneServer(service, kChips).run_simulated(protocol, &log);
  const std::string noisy =
      "response 0 0 " + std::string(2 * kMaxLineBytes, '1') + "\n" + log.str();

  std::istringstream strict_in(noisy);
  std::ostringstream strict_out;
  try {
    (void)TuneServer(service, kChips).run(strict_in, strict_out);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find(line_too_long()), std::string::npos)
        << e.what();
  }

  TuneServerOptions lenient;
  lenient.lenient = true;
  std::istringstream replay(noisy);
  std::ostringstream out;
  const TuneServerResult result =
      TuneServer(service, kChips, lenient).run(replay, out);
  EXPECT_EQ(result.dropped_lines, 1u);
  for (std::size_t c = 0; c < kChips; ++c) {
    EXPECT_TRUE(result.errors[c].empty()) << c;
    expect_reports_equal(result.reports[c], clean.reports[c]);
  }
}

}  // namespace
}  // namespace effitest::io
