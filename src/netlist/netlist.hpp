#pragma once
// Gate-level netlist with placement.
//
// A Netlist is the common representation produced by both front ends
// (the ISCAS89 .bench parser and the synthetic benchmark generator) and
// consumed by the timing substrate. Cells carry die coordinates because
// EffiTest's statistics are driven by *spatial* delay correlation.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/cell.hpp"

namespace effitest::netlist {

/// Die coordinates normalized to the unit square.
struct Point {
  double x = 0.5;
  double y = 0.5;
};

struct Cell {
  std::string name;
  CellType type = CellType::kBuf;
  std::vector<int> fanins;  ///< driver cell ids; for a DFF, fanins[0] = D pin
  Point position;
  bool is_primary_output = false;
};

class NetlistError : public std::runtime_error {
 public:
  explicit NetlistError(const std::string& what) : std::runtime_error(what) {}
};

/// Mutable gate-level netlist. Cell ids are dense indices, stable after
/// creation. Combinational cycles are rejected by validate().
class Netlist {
 public:
  explicit Netlist(std::string name = "") : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Add a cell; name must be unique and non-empty. Returns its id.
  int add_cell(std::string name, CellType type, std::vector<int> fanins = {});

  /// Add with position.
  int add_cell(std::string name, CellType type, std::vector<int> fanins,
               Point position);

  void set_position(int id, Point p);
  void set_fanins(int id, std::vector<int> fanins);
  void mark_primary_output(int id);

  [[nodiscard]] std::size_t num_cells() const { return cells_.size(); }
  [[nodiscard]] const Cell& cell(int id) const;
  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }

  /// Id by name or -1.
  [[nodiscard]] int find(const std::string& name) const;

  [[nodiscard]] std::vector<int> primary_inputs() const;
  [[nodiscard]] std::vector<int> flip_flops() const;
  [[nodiscard]] std::size_t num_flip_flops() const;
  /// Combinational gates only (excludes inputs/outputs/DFFs).
  [[nodiscard]] std::size_t num_combinational_gates() const;

  /// Fanout adjacency (computed; cell id -> list of sink ids).
  [[nodiscard]] std::vector<std::vector<int>> fanouts() const;

  /// Topological order of all cells, treating DFF outputs as sources (a DFF's
  /// D-pin dependency does not create a combinational edge). Throws
  /// NetlistError on a combinational cycle.
  [[nodiscard]] std::vector<int> topological_order() const;

  /// Structural sanity check: fanin counts consistent with cell types,
  /// no combinational cycles, all fanin ids valid. Throws on violation.
  void validate() const;

 private:
  void check_id(int id) const;

  std::string name_;
  std::vector<Cell> cells_;
  std::unordered_map<std::string, int> by_name_;
};

}  // namespace effitest::netlist
