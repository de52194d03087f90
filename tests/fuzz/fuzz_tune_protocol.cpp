// Fuzz target: the tune line protocol's response-stream reader
// (io::TuneServer::run) and its line codec. Each input is treated as the
// complete tester → server stream for a two-chip run against one tiny
// shared service:
//
//  - strict mode must either finish or raise std::runtime_error;
//  - lenient mode must NEVER throw — a bad frame abandons at most its
//    chip and garbage is dropped, so an escaping exception here is a
//    finding (the target lets it propagate and crash on purpose).
//
// Then every line of the input (as io::read_line frames it) goes through
// parse_hello, parse_greeting and parse_stimulus: each must parse or throw
// io::ProtocolError and nothing else, and whatever parses must survive
// format-then-parse unchanged (a mismatch aborts).
//
// The service is built once (static) with an explicit designated period
// so per-input cost is the protocol loop, not flow calibration. The
// reorder-buffer bounds this target drove in (response width > np,
// sequence numbers > 10^6 ahead) are pinned in corpora/tune/ and
// tests/session/tune_protocol_test.cpp.

#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/tuner_service.hpp"
#include "fuzz_driver.hpp"
#include "io/tune_protocol.hpp"
#include "netlist/generator.hpp"
#include "timing/model.hpp"

namespace {

struct ServiceHolder {
  effitest::netlist::GeneratedCircuit circuit;
  effitest::netlist::CellLibrary lib =
      effitest::netlist::CellLibrary::standard();
  effitest::timing::CircuitModel model;
  effitest::core::Problem problem;
  effitest::core::TunerService service;

  static effitest::netlist::GeneratorSpec spec() {
    effitest::netlist::GeneratorSpec s;
    s.num_flip_flops = 16;
    s.num_gates = 60;
    s.num_buffers = 2;
    s.num_critical_paths = 6;
    s.seed = 7;
    return s;
  }

  static effitest::core::FlowOptions options() {
    effitest::core::FlowOptions o;
    o.seed = 11;
    o.designated_period = 900.0;  // explicit: skips period calibration
    o.threads = 1;
    return o;
  }

  ServiceHolder()
      : circuit(effitest::netlist::generate_circuit(spec())),
        model(circuit.netlist, lib, circuit.buffered_ffs),
        problem(model),
        service(problem, options()) {}
};

const effitest::core::TunerService& shared_service() {
  static const ServiceHolder holder;
  return holder.service;
}

/// Parse `line` with `parse`: io::ProtocolError is the only allowed
/// failure, and a parsed value must survive format-then-parse unchanged.
/// Anything else (another exception, a reformatted line that no longer
/// parses, a different value) escapes or aborts on purpose.
template <typename Parse, typename Format, typename Same>
void check_codec(const std::string& line, Parse parse, Format format,
                 Same same) {
  std::optional<decltype(parse(line))> parsed;
  try {
    parsed = parse(line);
  } catch (const effitest::io::ProtocolError&) {
    return;
  }
  if (!same(parse(format(*parsed)), *parsed)) std::abort();
}

void fuzz_codec(const std::string& text) {
  namespace io = effitest::io;
  const auto equal = [](const auto& a, const auto& b) { return a == b; };
  std::istringstream in(text);
  std::string line;
  for (io::LineRead got = io::read_line(in, line); got != io::LineRead::kEnd;
       got = io::read_line(in, line)) {
    if (got == io::LineRead::kOverlong) continue;
    check_codec(line, io::parse_hello, io::format_hello, equal);
    check_codec(line, io::parse_greeting, io::format_greeting, equal);
    check_codec(line, io::parse_stimulus, io::format_stimulus,
                [](const io::StimulusLine& a, const io::StimulusLine& b) {
                  return a.chip == b.chip && a.seq == b.seq &&
                         a.final == b.final &&
                         a.stimulus.period == b.stimulus.period &&
                         a.stimulus.steps == b.stimulus.steps &&
                         a.stimulus.armed == b.stimulus.armed;
                });
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 18)) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);
  const auto& service = shared_service();
  constexpr std::size_t kChips = 2;
  {
    std::istringstream in(text);
    std::ostringstream out;
    effitest::io::TuneServer server(service, kChips);
    try {
      (void)server.run(in, out);
    } catch (const std::runtime_error&) {
      // Strict mode aborts on the first bad frame — expected.
    }
  }
  {
    std::istringstream in(text);
    std::ostringstream out;
    effitest::io::TuneServerOptions lenient;
    lenient.lenient = true;
    effitest::io::TuneServer server(service, kChips, lenient);
    (void)server.run(in, out);  // must not throw; see file comment
  }
  fuzz_codec(text);
  return 0;
}
