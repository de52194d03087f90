#pragma once
// Shared plumbing for the benchmark harness binaries (the ablations and
// bench_serve; the paper's tables and figures are scenario specs under
// paper/, run by `effitest_cli campaign --spec`, and the analytic engine
// is measured by `effitest_cli ssta --tuned`).
//
// Every bench accepts:
//   --chips=N      Monte-Carlo dies per circuit (paper: 10,000; defaults
//                  here are smaller so each bench finishes in seconds —
//                  yields/iteration counts are unbiased, only the confidence
//                  interval shrinks with N; see EXPERIMENTS.md)
//   --circuits=a,b comma-separated subset of the 8 paper benchmarks
//   --seed=S       master seed
//   --threads=N    worker threads for the flow-driven benches (0 = all
//                  cores; results are identical for any value — DESIGN.md
//                  §8; the pure-solver ablations ignore it)
// An unknown argument or a malformed value exits 2 with a message that
// names the option, as effitest_cli does.
//
// Circuits come from scenario::CircuitCatalog::shared_paper(), the one
// construction path every other consumer uses.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "core/flow.hpp"
#include "core/problem.hpp"
#include "core/table.hpp"
#include "netlist/generator.hpp"
#include "scenario/circuit_catalog.hpp"

namespace effitest::bench {

struct BenchArgs {
  std::size_t chips = 0;  // 0 = use the binary's default
  std::vector<std::string> circuits;
  std::uint64_t seed = 2016;
  std::size_t threads = 0;  // 0 = all cores
};

/// Reject the command line: `message` on stderr, exit status 2.
[[noreturn]] inline void usage_error(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  std::exit(2);
}

/// The unsigned integer after the first `prefix` characters of `arg`
/// ("--name=value"); exits 2 naming the option for anything else.
inline std::uint64_t parse_unsigned(const std::string& arg,
                                    std::size_t prefix) {
  std::uint64_t out = 0;
  const char* first = arg.data() + prefix;
  const char* last = arg.data() + arg.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) {
    usage_error(arg + " is out of range");
  }
  if (ec != std::errc() || ptr != last || first == last) {
    usage_error(arg + ": expected an unsigned integer");
  }
  return out;
}

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--chips=", 0) == 0) {
      args.chips = parse_unsigned(a, 8);
    } else if (a.rfind("--seed=", 0) == 0) {
      args.seed = parse_unsigned(a, 7);
    } else if (a.rfind("--threads=", 0) == 0) {
      args.threads = parse_unsigned(a, 10);
    } else if (a.rfind("--circuits=", 0) == 0) {
      std::stringstream ss(a.substr(11));
      std::string piece;
      while (std::getline(ss, piece, ',')) args.circuits.push_back(piece);
    } else {
      usage_error("unknown argument " + a +
                  " (options: --chips=N --circuits=a,b --seed=S "
                  "--threads=N)");
    }
  }
  return args;
}

/// The --circuits selection (default: the 8 paper benchmarks); exits 2 on
/// a name the shared paper catalog does not know.
inline std::vector<std::string> selected_circuits(const BenchArgs& args) {
  if (args.circuits.empty()) {
    std::vector<std::string> all;
    for (const netlist::GeneratorSpec& spec :
         netlist::paper_benchmark_specs()) {
      all.push_back(spec.name);
    }
    return all;
  }
  for (const std::string& name : args.circuits) {
    if (!scenario::CircuitCatalog::shared_paper()->contains(name)) {
      usage_error("--circuits: unknown circuit '" + name + "'");
    }
  }
  return args.circuits;
}

inline std::string pct(double v) { return core::Table::num(v * 100.0, 2); }

}  // namespace effitest::bench
