#include "netlist/bench_writer.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "netlist/bench_parser.hpp"

namespace effitest::netlist {

void write_bench(const Netlist& netlist, std::ostream& out) {
  out << "# " << (netlist.name().empty() ? "netlist" : netlist.name())
      << "\n# " << netlist.primary_inputs().size() << " inputs, "
      << netlist.num_flip_flops() << " flip-flops, "
      << netlist.num_combinational_gates() << " gates\n";

  for (int pi : netlist.primary_inputs()) {
    out << "INPUT(" << netlist.cell(pi).name << ")\n";
  }
  for (const Cell& c : netlist.cells()) {
    if (c.is_primary_output) out << "OUTPUT(" << c.name << ")\n";
  }
  out << '\n';

  for (const Cell& c : netlist.cells()) {
    if (c.type == CellType::kInput) continue;
    out << c.name << " = " << to_string(c.type) << '(';
    for (std::size_t i = 0; i < c.fanins.size(); ++i) {
      if (i > 0) out << ", ";
      out << netlist.cell(c.fanins[i]).name;
    }
    out << ")\n";
  }

  out << '\n';
  out << std::setprecision(10);
  for (const Cell& c : netlist.cells()) {
    out << "#!place " << c.name << ' ' << c.position.x << ' ' << c.position.y
        << '\n';
  }
}

void write_bench_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw NetlistError("cannot open .bench file for writing: " + path);
  write_bench(netlist, out);
}

Netlist parse_bench_file_with_placement(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw NetlistError("cannot open .bench file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  const std::string text = buffer.str();
  if (text.find("#!place ") != std::string::npos) {
    return parse_bench_with_placement(text, std::move(name));
  }
  return parse_bench_string(text, std::move(name));
}

Netlist parse_bench_with_placement(const std::string& text, std::string name) {
  Netlist nl = parse_bench_string(text, std::move(name));
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("#!place ", 0) != 0) continue;
    std::istringstream fields(line.substr(8));
    std::string cell;
    double x = 0.0;
    double y = 0.0;
    if (!(fields >> cell >> x >> y)) {
      throw NetlistError("malformed #!place line: " + line);
    }
    const int id = nl.find(cell);
    if (id < 0) throw NetlistError("#!place references unknown cell: " + cell);
    nl.set_position(id, Point{x, y});
  }
  return nl;
}

}  // namespace effitest::netlist
