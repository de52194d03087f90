#pragma once
// Exact MILP oracles for the per-chip solvers, on the in-house simplex and
// branch & bound (lp/). The paper solves alignment (eqs. 8-13),
// configuration (eqs. 15-18 + 21) and hold-bound selection (eqs. 19-20)
// with an MILP solver; the library instead runs coordinate descent
// (core/alignment.hpp), the difference-constraint kernel
// (core/configurator.hpp) and greedy scenario discard
// (core/hold_bounds.hpp). These literal formulations are what tests and
// benches check those solvers against. Too slow for the per-chip loop.
//
// Each oracle is exact or throws: a solve that stops on the node or
// iteration limit throws std::runtime_error instead of returning its
// incumbent. An infeasible model is reported the way the library solver
// reports it (feasible = false) where the result type carries that bit.

#include <cstdint>
#include <span>
#include <vector>

#include "core/alignment.hpp"
#include "core/configurator.hpp"
#include "core/problem.hpp"

namespace effitest::core {

/// Formulation of the exact alignment MILP.
enum class MilpForm : std::uint8_t {
  kCompact,  ///< |.| linearized by eta >= +/-(...)
  kBigM,     ///< the paper's indicator variables (eqs. 8-13)
};

/// Solves one alignment instance exactly by branch & bound on `form`. The
/// oracle for solve_alignment; both forms must agree. Throws
/// std::invalid_argument on the instances solve_alignment rejects.
[[nodiscard]] AlignmentResult solve_alignment_milp(
    const AlignmentInstance& instance, MilpForm form = MilpForm::kCompact);

/// The literal MILP of eqs. 15-18 (+ hold eq. 21); the oracle for
/// configure_buffers, which it matches in feasibility and xi. Throws
/// std::invalid_argument on a bounds size mismatch.
[[nodiscard]] ConfigResult configure_buffers_milp(
    const Problem& problem, double designated_period,
    std::span<const double> lower, std::span<const double> upper,
    std::span<const HoldConstraintX> hold);

/// Exact MILP version of the hold-bound sample selection (eqs. 19-20); the
/// oracle for greedy_discard_bounds. Practical for small M.
[[nodiscard]] std::vector<double> exact_milp_bounds(
    const std::vector<std::vector<double>>& delta, double yield);

}  // namespace effitest::core
