#pragma once
// Buffer configuration with delay estimation (paper §3.4, eqs. 15-18).
//
// Given per-path delay ranges [l_ij, u_ij] (measured or predicted) and hold
// bounds lambda_ij, find discrete buffer values x and assumed delays D' with
//   T_d >= D'_ij + x_i - x_j,  l <= D' <= u,  xi >= u - D'
// minimizing xi: the chip is configured assuming delays as close to their
// upper bounds as possible, which maximizes the chance of passing the final
// pass/fail test without rejecting chips through over-conservatism.
//
// Eliminating D' analytically (optimal D' = min(u, T_d - x_i + x_j)) turns
// the problem into a system of difference constraints over the buffer step
// grid plus a scalar search on xi:
//   hard:  x_i - x_j <= T_d - l_ij      (D' >= l must stay feasible)
//   soft:  x_i - x_j <= T_d - u_ij + xi
//   hold:  x_i - x_j >= lambda_ij
//   range: r <= x <= r + tau, x on the step grid.
// Each constraint is floored onto the step grid (floor(v + 1e-9) steps), so
// the integer assignment satisfies it exactly. Feasibility for fixed xi is
// Bellman-Ford negative-cycle detection on the shared kernel
// (core/difference_system.hpp). A floored soft weight changes only at
// finitely many xi, and the optimum is the first feasible one of them, so
// xi is the exact minimum over the step grid.
//
// This kernel is the only configuration solver. The paper's literal MILP
// of eqs. 15-18 (+21) is a test oracle (tests/oracles/milp_oracles.hpp:
// configure_buffers_milp) that cross-validates it.

#include <span>
#include <vector>

#include "core/alignment.hpp"
#include "core/problem.hpp"
#include "timing/model.hpp"

namespace effitest::core {

/// Configuration has no settings: this empty struct, FlowOptions::config
/// and the trailing `options` parameters below are unused. They stay only
/// so that existing callers that pass them keep compiling.
struct ConfigOptions {};

struct ConfigResult {
  bool feasible = false;
  std::vector<int> steps;  ///< discrete buffer assignment
  double xi = 0.0;         ///< achieved max distance from upper bounds
};

/// Solve eqs. 15-18 (+ hold eq. 21) for the given designated period and
/// delay ranges (indexed by monitored-pair id). Throws std::invalid_argument
/// on a bounds size mismatch or a hold buffer index outside [-1, nb).
[[nodiscard]] ConfigResult configure_buffers(
    const Problem& problem, double designated_period,
    std::span<const double> lower, std::span<const double> upper,
    std::span<const HoldConstraintX> hold, const ConfigOptions& options = {});

/// Configuration under perfect measurement: l = u = true delay and hold
/// bounds taken from the chip's true short-path delays. This is the
/// reference for column y_i of Table 2 ("ideal delay measurement").
[[nodiscard]] ConfigResult configure_ideal(const Problem& problem,
                                           double designated_period,
                                           const timing::Chip& chip,
                                           const ConfigOptions& options = {});

}  // namespace effitest::core
