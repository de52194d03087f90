#include "netlist/netlist.hpp"

#include <algorithm>

namespace effitest::netlist {

int Netlist::add_cell(std::string name, CellType type, std::vector<int> fanins) {
  return add_cell(std::move(name), type, std::move(fanins), Point{});
}

int Netlist::add_cell(std::string name, CellType type, std::vector<int> fanins,
                      Point position) {
  if (name.empty()) throw NetlistError("cell name must not be empty");
  if (by_name_.contains(name)) {
    throw NetlistError("duplicate cell name: " + name);
  }
  for (int f : fanins) check_id(f);
  const int id = static_cast<int>(cells_.size());
  by_name_.emplace(name, id);
  cells_.push_back(Cell{std::move(name), type, std::move(fanins), position, false});
  return id;
}

void Netlist::set_position(int id, Point p) {
  check_id(id);
  cells_[static_cast<std::size_t>(id)].position = p;
}

void Netlist::set_fanins(int id, std::vector<int> fanins) {
  check_id(id);
  for (int f : fanins) check_id(f);
  cells_[static_cast<std::size_t>(id)].fanins = std::move(fanins);
}

void Netlist::mark_primary_output(int id) {
  check_id(id);
  cells_[static_cast<std::size_t>(id)].is_primary_output = true;
}

const Cell& Netlist::cell(int id) const {
  check_id(id);
  return cells_[static_cast<std::size_t>(id)];
}

int Netlist::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

std::vector<int> Netlist::primary_inputs() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].type == CellType::kInput) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> Netlist::flip_flops() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].type == CellType::kDff) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::size_t Netlist::num_flip_flops() const {
  return static_cast<std::size_t>(
      std::count_if(cells_.begin(), cells_.end(),
                    [](const Cell& c) { return c.type == CellType::kDff; }));
}

std::size_t Netlist::num_combinational_gates() const {
  return static_cast<std::size_t>(
      std::count_if(cells_.begin(), cells_.end(), [](const Cell& c) {
        return is_combinational(c.type);
      }));
}

std::vector<std::vector<int>> Netlist::fanouts() const {
  std::vector<std::vector<int>> out(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    for (int f : cells_[i].fanins) {
      out[static_cast<std::size_t>(f)].push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::vector<int> Netlist::topological_order() const {
  // Kahn's algorithm over combinational dependencies: a DFF consumes its D
  // input but its own output is a source (no combinational in-edge).
  const std::size_t n = cells_.size();
  std::vector<int> in_degree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (cells_[i].type == CellType::kDff) continue;  // source node
    in_degree[i] = static_cast<int>(cells_[i].fanins.size());
  }
  const auto fan = fanouts();
  std::vector<int> order;
  order.reserve(n);
  std::vector<int> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) frontier.push_back(static_cast<int>(i));
  }
  while (!frontier.empty()) {
    const int id = frontier.back();
    frontier.pop_back();
    order.push_back(id);
    for (int sink : fan[static_cast<std::size_t>(id)]) {
      if (cells_[static_cast<std::size_t>(sink)].type == CellType::kDff) {
        continue;  // edge into a DFF D-pin ends the combinational stage
      }
      if (--in_degree[static_cast<std::size_t>(sink)] == 0) {
        frontier.push_back(sink);
      }
    }
  }
  // DFFs were never given in-degree 0 treatment via fanin edges; they were
  // pushed as sources above. Every cell must have been emitted.
  if (order.size() != n) {
    throw NetlistError("netlist contains a combinational cycle");
  }
  return order;
}

void Netlist::validate() const {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    const std::size_t nin = c.fanins.size();
    switch (c.type) {
      case CellType::kInput:
        if (nin != 0) throw NetlistError("INPUT with fanins: " + c.name);
        break;
      case CellType::kDff:
        if (nin != 1) throw NetlistError("DFF must have one fanin: " + c.name);
        break;
      case CellType::kBuf:
      case CellType::kNot:
        if (nin != 1) {
          throw NetlistError("unary cell needs one fanin: " + c.name);
        }
        break;
      case CellType::kOutput:
        if (nin != 1) throw NetlistError("OUTPUT needs one fanin: " + c.name);
        break;
      default:
        if (nin < 2) {
          throw NetlistError("multi-input cell needs >= 2 fanins: " + c.name);
        }
    }
    for (int f : c.fanins) check_id(f);
  }
  (void)topological_order();  // throws on cycles
}

void Netlist::check_id(int id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= cells_.size()) {
    throw NetlistError("cell id out of range");
  }
}

}  // namespace effitest::netlist
