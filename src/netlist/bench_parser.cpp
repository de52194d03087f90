#include "netlist/bench_parser.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>

namespace effitest::netlist {

namespace {

/// Strippable characters: whitespace — explicitly including the '\r' of
/// DOS-formatted (CRLF) files, which real ISCAS89 distributions use — plus
/// the DOS end-of-file marker 0x1A some of them end with. Locale-proof:
/// never defers to std::isspace's runtime locale for the CRLF case.
bool is_strippable(char c) {
  return c == '\r' || c == '\x1a' ||
         std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::string strip(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_strippable(s[b])) ++b;
  while (e > b && is_strippable(s[e - 1])) --e;
  return std::string(s.substr(b, e - b));
}

struct PendingGate {
  std::string name;
  CellType type;
  std::vector<std::string> args;
  std::size_t line;
};

/// Assign positions by topological depth: x = depth, y = index within level,
/// both normalized to [0.05, 0.95]. Purely synthetic, but gives spatially
/// coherent clusters for logic that is structurally close.
void assign_layout(Netlist& nl) {
  const auto order = nl.topological_order();
  std::vector<int> depth(nl.num_cells(), 0);
  int max_depth = 0;
  for (int id : order) {
    const Cell& c = nl.cell(id);
    if (c.type == CellType::kDff || c.type == CellType::kInput) continue;
    int d = 0;
    for (int f : c.fanins) d = std::max(d, depth[static_cast<std::size_t>(f)] + 1);
    depth[static_cast<std::size_t>(id)] = d;
    max_depth = std::max(max_depth, d);
  }
  std::map<int, int> level_count;
  std::vector<int> level_index(nl.num_cells(), 0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    level_index[i] = level_count[depth[i]]++;
  }
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    const int d = depth[i];
    const int total = level_count[d];
    const double x =
        max_depth == 0 ? 0.5 : 0.05 + 0.9 * static_cast<double>(d) / max_depth;
    const double y =
        total <= 1 ? 0.5
                   : 0.05 + 0.9 * static_cast<double>(level_index[i]) / (total - 1);
    nl.set_position(static_cast<int>(i), Point{x, y});
  }
}

}  // namespace

Netlist parse_bench(std::istream& in, std::string name) {
  Netlist nl(std::move(name));
  std::vector<std::string> outputs;
  std::vector<PendingGate> pending;
  std::string line;
  std::size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    if (line_no == 1 && line.rfind("\xef\xbb\xbf", 0) == 0) {
      line.erase(0, 3);  // UTF-8 BOM would otherwise glue onto a token
    }
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::string text = strip(line);
    if (text.empty()) continue;

    // First ')' on purpose: a legal line has exactly one, and anything
    // after it (e.g. two directives merged onto one line) must trip the
    // trailing-text check below instead of being swallowed into a name.
    const std::size_t open = text.find('(');
    const std::size_t close = text.find(')');
    const std::size_t eq = text.find('=');

    if (eq == std::string::npos) {
      // INPUT(x) or OUTPUT(x)
      if (open == std::string::npos || close == std::string::npos || close < open) {
        throw BenchParseError(line_no, "expected TYPE(name)");
      }
      if (!strip(text.substr(close + 1)).empty()) {
        // Silently dropping trailing junk would mask a mangled file.
        throw BenchParseError(line_no, "unexpected text after ')'");
      }
      const std::string kw = strip(text.substr(0, open));
      const std::string arg = strip(text.substr(open + 1, close - open - 1));
      if (arg.empty()) throw BenchParseError(line_no, "empty name");
      const auto type = cell_type_from_token(kw);
      if (type == CellType::kInput) {
        if (nl.find(arg) >= 0) {
          throw BenchParseError(line_no, "duplicate definition of " + arg);
        }
        nl.add_cell(arg, CellType::kInput);
      } else if (type == CellType::kOutput) {
        outputs.push_back(arg);
      } else {
        throw BenchParseError(line_no, "unknown directive: " + kw);
      }
      continue;
    }

    // name = TYPE(a, b, ...). close < open (e.g. "a = )AND(b") would make
    // the substr lengths below wrap around — reject it like any other
    // malformed shape.
    if (open == std::string::npos || close == std::string::npos ||
        open < eq || close < open) {
      throw BenchParseError(line_no, "expected name = TYPE(args)");
    }
    if (!strip(text.substr(close + 1)).empty()) {
      throw BenchParseError(line_no, "unexpected text after ')'");
    }
    const std::string lhs = strip(text.substr(0, eq));
    if (lhs.empty()) {
      throw BenchParseError(line_no, "missing signal name before '='");
    }
    const std::string type_tok = strip(text.substr(eq + 1, open - eq - 1));
    const auto type = cell_type_from_token(type_tok);
    if (!type || !(*type == CellType::kDff || is_combinational(*type))) {
      throw BenchParseError(line_no, "unknown cell type: " + type_tok);
    }
    PendingGate g;
    g.name = lhs;
    g.type = *type;
    g.line = line_no;
    std::stringstream args(text.substr(open + 1, close - open - 1));
    std::string piece;
    while (std::getline(args, piece, ',')) {
      const std::string a = strip(piece);
      if (a.empty()) throw BenchParseError(line_no, "empty argument");
      g.args.push_back(a);
    }
    if (g.args.empty()) throw BenchParseError(line_no, "cell without inputs");
    pending.push_back(std::move(g));
  }

  // Create all gate cells first (two-pass: .bench allows forward references).
  for (const PendingGate& g : pending) {
    if (nl.find(g.name) >= 0) {
      throw BenchParseError(g.line, "duplicate definition of " + g.name);
    }
    nl.add_cell(g.name, g.type);
  }
  for (const PendingGate& g : pending) {
    std::vector<int> fanins;
    fanins.reserve(g.args.size());
    for (const std::string& a : g.args) {
      const int id = nl.find(a);
      if (id < 0) {
        throw BenchParseError(g.line, "undefined signal: " + a);
      }
      fanins.push_back(id);
    }
    nl.set_fanins(nl.find(g.name), std::move(fanins));
  }
  for (const std::string& o : outputs) {
    const int id = nl.find(o);
    if (id < 0) throw BenchParseError(0, "undefined OUTPUT signal: " + o);
    nl.mark_primary_output(id);
  }

  nl.validate();
  assign_layout(nl);
  return nl;
}

Netlist parse_bench_string(const std::string& text, std::string name) {
  std::istringstream in(text);
  return parse_bench(in, std::move(name));
}

}  // namespace effitest::netlist
