#pragma once
// The one difference-constraint kernel (Fishburn clock-skew scheduling):
// feasibility of constraints x_to - x_from <= weight by Bellman-Ford.
// Buffer configuration (eqs. 15-18, core/configurator) solves it on the
// step grid with the relaxation xi as parameter; the analytic tier's exact
// per-die reference (analytic::min_feasible_period) with the period T.
//
// Node 0 is ground: flip-flops without a tunable buffer contract into it
// (x = 0); nodes 1..nb are the buffers. Callers merge parallel constraints
// in a BoundTable, emit one edge per occupied cell, and only rewrite
// weights between solves. Every solve starts cold from all-zero potentials
// (an implicit zero edge from a source to each node), so a feasible solve
// yields the unique shortest-path distances whatever the edge order, and
// an infeasible one yields one negative cycle as its witness.

#include <cstddef>
#include <vector>

namespace effitest::core {

/// One constraint x_to - x_from <= weight.
struct DiffEdge {
  int from = 0;
  int to = 0;
  double weight = 0.0;
};

/// Dense merge of parallel constraints x_to - x_from <= c: the tightest
/// hard and soft (caller-relaxed) bound per cell, +infinity when absent.
struct BoundTable {
  explicit BoundTable(std::size_t nodes);
  void tighten(std::size_t from, std::size_t to, double bound,
               bool soft = false);

  std::size_t nodes;
  std::vector<double> hard;  ///< row-major, [from * nodes + to]
  std::vector<double> soft;  ///< row-major, [from * nodes + to]
};

class DifferenceSystem {
 public:
  explicit DifferenceSystem(std::size_t nodes) : nodes_(nodes) {}

  /// The constraints; callers may rewrite weights between solves.
  std::vector<DiffEdge> edges;

  /// Bellman-Ford with early exit. True when feasible: potentials() are
  /// then the shortest-path distances. False on a negative cycle:
  /// witness() then lists its edge indices in path order.
  bool solve();

  [[nodiscard]] const std::vector<double>& potentials() const { return dist_; }
  [[nodiscard]] const std::vector<std::size_t>& witness() const {
    return witness_;
  }

 private:
  void trace_cycle(std::size_t node);

  std::size_t nodes_;
  std::vector<double> dist_;
  std::vector<std::size_t> pred_;
  std::vector<std::size_t> witness_;
};

}  // namespace effitest::core
