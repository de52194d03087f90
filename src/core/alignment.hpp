#pragma once
// Delay-range alignment by tuning buffers (paper §3.3, eqs. 6-14).
//
// Before each frequency step, the tester chooses a clock period T and a set
// of buffer values so that T sits as close as possible to the centers of the
// unresolved delay ranges, shifted by x_src - x_dst:
//
//   minimize sum_ij k_ij * | T - ((u_ij + l_ij)/2 + x_i - x_j) |     (eq. 7)
//
// subject to the buffer range/step constraints (eq. 14 / eq. 3) and the
// hold-time lower bounds x_i - x_j >= lambda_ij (§3.5, eq. 21).
//
// The solver is coordinate descent (solve_alignment): weighted-median
// updates of T interleaved with per-buffer discrete line search, which
// sweeps all steps of a buffer at once as lanes and skips revisits that
// cannot change anything (DESIGN.md §5). The per-chip test machine runs it
// every frequency step. Where the paper solves eqs. 8-13 as an MILP, that
// formulation is a test oracle only, in a compact and the paper's big-M
// form (tests/oracles/milp_oracles.hpp).
// bench_ablation_alignment (s13207, 2-6 entries) measures 10-11 us per
// coordinate-descent solve against 200-235 us for the compact MILP and
// 140-176 ms for the big-M MILP, and quantifies the optimality gap.
//
// Weights follow the paper: sort the range centers, give the middle one k0
// and decrease by kd per rank outward (k0 >> kd), which breaks the
// degenerate non-overlapping case of Fig. 6e.

#include <span>
#include <utility>
#include <vector>

#include "core/problem.hpp"

namespace effitest::core {

/// One unresolved path range inside the batch being aligned.
struct AlignmentEntry {
  double center = 0.0;  ///< (u_ij + l_ij) / 2 of the current range
  double weight = 1.0;  ///< k_ij
  int src_buf = -1;     ///< global buffer index at the source (-1: x == 0)
  int dst_buf = -1;     ///< global buffer index at the sink   (-1: x == 0)
};

/// Hold-time bound x_i - x_j >= lambda (buffer indices; -1 side is fixed 0).
struct HoldConstraintX {
  int src_buf = -1;
  int dst_buf = -1;
  double lambda = 0.0;
};

struct AlignmentInstance {
  const Problem* problem = nullptr;
  std::vector<AlignmentEntry> entries;
  std::vector<HoldConstraintX> hold;
  /// Current step assignment of ALL buffers; buffers not referenced by any
  /// entry stay frozen at these values (their x still enters hold bounds).
  std::vector<int> current_steps;
  /// When false the buffers are left untouched (multiplexing-only mode,
  /// Fig. 8 case 2): only T is optimized.
  bool allow_buffer_moves = true;
};

struct AlignmentResult {
  double period = 0.0;         ///< chosen clock period T
  std::vector<int> steps;      ///< full buffer step assignment to program
  double objective = 0.0;      ///< achieved eq.-7 objective
  bool feasible = true;        ///< hold bounds satisfiable
};

/// Scratch memory of the coordinate-descent solver, reused across solves so
/// that a warm solve allocates nothing. The members are the solver's
/// working state, meaningful only inside one solve_alignment call; a
/// workspace serves one thread at a time and any instance shape.
struct AlignmentWorkspace {
  /// A movable buffer and its state for skipping revisits: the solve's
  /// move count after its last visit, and the step it left there (-1 when
  /// it stayed).
  struct Movable {
    int buffer = -1;
    int left_step = -1;
    std::size_t seen_moves = 0;
  };
  /// Per buffer: index into `involved`, or -1. Always all -1 between solves.
  std::vector<int> slot;
  std::vector<Movable> involved;  ///< movable buffers, ascending
  /// CSR lists per involved buffer, ascending: the entries and the hold
  /// bounds that reference it.
  std::vector<std::size_t> entry_start, entry_index;
  std::vector<std::size_t> hold_start, hold_index;
  std::vector<double> shifted;  ///< per entry: center + x_src - x_dst
  /// Static (value, weight) points, sorted, with prefix sums of w and w*m.
  std::vector<std::pair<double, double>> points;
  std::vector<double> prefix_w, prefix_wm;
  /// Static mass crossings (period, static objective) of the moving buffer.
  std::vector<std::pair<double, double>> crossings;
  /// The moving buffer's step trials, one lane per step, as consecutive
  /// rows of L lanes: the best period, the best objective, the candidate
  /// objective, then one row of shifted centers per moving entry and one
  /// of their static objectives per moving entry.
  std::vector<double> lanes;
};

/// Middle-out weight assignment over range centers (k0 to the median center,
/// decreasing by kd per rank outward; floored at kd). Equal centers take
/// their ranks in input order. Writes weights[i] for centers[i]; `order` is
/// the ranking's scratch. Both are the caller's, so a loop reuses them.
void middle_out_weights(std::span<const double> centers, double k0, double kd,
                        std::vector<std::size_t>& order,
                        std::vector<double>& weights);

/// Solves one alignment instance by coordinate descent. `workspace` is
/// scratch memory to reuse across calls (a local one is used when null);
/// `steps` is the storage the result's step vector takes over (pass a
/// previous result's steps to reuse their capacity). Neither changes a
/// result.
[[nodiscard]] AlignmentResult solve_alignment(
    const AlignmentInstance& instance,
    AlignmentWorkspace* workspace = nullptr, std::vector<int> steps = {});

/// The eq.-7 objective of `instance` at clock period `period` and buffer
/// steps `steps`: sum of weight * |period - shifted center|.
[[nodiscard]] double alignment_objective(const AlignmentInstance& instance,
                                         double period,
                                         std::span<const int> steps);

/// True when `steps` satisfies every hold bound of `instance` (to 1e-9).
[[nodiscard]] bool hold_satisfied(const AlignmentInstance& instance,
                                  std::span<const int> steps);

}  // namespace effitest::core
