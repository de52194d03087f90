#pragma once
// ISCAS89 .bench netlist parser.
//
// The paper evaluates on ISCAS89 circuits (s9234, s13207, ...). The original
// distribution files are not redistributable here, so the repository ships
// hand-written circuits in the same format (see data/) plus the synthetic
// generator; this parser makes the pipeline ingest any real .bench file a
// user drops in.
//
// Grammar (comments start with '#'):
//   INPUT(name)
//   OUTPUT(name)
//   name = TYPE(arg1, arg2, ...)
// with TYPE in {DFF, BUF(F), NOT/INV, AND, NAND, OR, NOR, XOR, XNOR}.

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace effitest::netlist {

class BenchParseError : public std::runtime_error {
 public:
  BenchParseError(std::size_t line, const std::string& what)
      : std::runtime_error(".bench line " + std::to_string(line) + ": " + what),
        line_number(line) {}
  std::size_t line_number;
};

/// Parse .bench text from a stream. `name` becomes the netlist name.
/// Cells are given a synthetic placement (topological-depth layout) since
/// .bench carries no physical information. Throws BenchParseError on
/// malformed input and NetlistError on structural problems.
[[nodiscard]] Netlist parse_bench(std::istream& in, std::string name = "bench");

/// Parse .bench from a string.
[[nodiscard]] Netlist parse_bench_string(const std::string& text,
                                         std::string name = "bench");

}  // namespace effitest::netlist
