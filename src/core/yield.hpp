#pragma once
// Pass/fail evaluation of configured chips and yield estimation.
//
// A chip passes at designated period T_d under buffer values x when
//  * every monitored pair meets setup:  D_ij(true) + x_i - x_j <= T_d,
//  * every monitored pair meets hold:   x_i - x_j >= h_j - d_ij(true),
//  * every promoted background pair meets setup (their skew is fixed 0).
// This is the "separate pass/fail test after the buffers are configured"
// the paper assumes (§3, ref. [8]).

#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.hpp"
#include "timing/model.hpp"

namespace effitest::core {

/// Buffer delay values (ps) from a step assignment.
[[nodiscard]] std::vector<double> buffer_values(const Problem& problem,
                                                std::span<const int> steps);

/// Full pass/fail check under explicit buffer values (ps).
[[nodiscard]] bool chip_passes(const Problem& problem,
                               const timing::Chip& chip,
                               std::span<const double> x,
                               double designated_period);

/// Pass/fail with all buffers at exactly zero (circuit without tuning).
[[nodiscard]] bool chip_passes_untuned(const Problem& problem,
                                       const timing::Chip& chip,
                                       double designated_period);

/// Untuned required periods of `chips` Monte-Carlo dies, sorted ascending.
/// One word is drawn from `rng` as a base and die c is sampled on
/// Rng(parallel::index_seed(base, c)) through parallel::deterministic_for,
/// so the sample is the same for any `threads` (0 = shared-pool width).
[[nodiscard]] std::vector<double> sample_required_periods(
    const Problem& problem, std::size_t chips, stats::Rng& rng,
    std::size_t threads = 0);

/// Monte-Carlo estimate of the q-quantile of the untuned required period:
/// the q-quantile of sample_required_periods(problem, chips, rng, threads).
[[nodiscard]] double period_quantile(const Problem& problem, double q,
                                     std::size_t chips, stats::Rng& rng,
                                     std::size_t threads = 0);

/// The T_d calibration stream of master seed `seed`: the first fork of
/// Rng(seed), which TunerService takes first (DESIGN.md §4).
[[nodiscard]] stats::Rng calibration_stream(std::uint64_t seed);

/// The one T_d calibration: the untuned required periods of
/// FlowOptions::period_calibration_chips nominal dies on
/// calibration_stream(seed), sorted. The paper's T1 (q = 0.5) and T2
/// (q = 0.8413) are its quantiles wherever T_d is calibrated.
[[nodiscard]] std::vector<double> calibration_sample(const Problem& nominal,
                                                     std::uint64_t seed,
                                                     std::size_t threads = 0);

}  // namespace effitest::core
