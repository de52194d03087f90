#pragma once
// ISCAS89 .bench netlist writer — the inverse of bench_parser.hpp.
//
// Lets users export generated benchmark circuits for inspection or for use
// with external EDA tools, and gives the test suite a parse/write round-trip
// oracle. Placement is not part of the .bench format; a sidecar format
// ("#!place name x y" comment lines, understood by this module's reader
// extension) preserves it losslessly.

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace effitest::netlist {

/// Serialize a netlist to ISCAS89 .bench text: a header comment with the
/// circuit statistics, then the netlist, then one "#!place <name> <x> <y>"
/// comment per cell so a round-trip keeps placement.
void write_bench(const Netlist& netlist, std::ostream& out);

void write_bench_file(const Netlist& netlist, const std::string& path);

/// Parse .bench text honouring the "#!place" placement sidecar comments
/// emitted by write_bench (plain parse_bench ignores them as comments).
[[nodiscard]] Netlist parse_bench_with_placement(const std::string& text,
                                                 std::string name = "bench");

/// File variant: parses with placement when the file carries "#!place"
/// lines, otherwise falls back to the synthetic topological layout.
[[nodiscard]] Netlist parse_bench_file_with_placement(const std::string& path);

}  // namespace effitest::netlist
