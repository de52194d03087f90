#pragma once
// Tuning bounds due to hold-time constraints (paper §3.5, eqs. 19-21).
//
// Buffers are never tested against hold violations; instead a lower bound
// lambda_ij on x_i - x_j is derived offline so that a target yield Y
// (kHoldYield = 0.99) of chips satisfies every short-path hold constraint
//   x_i - x_j >= h_j - d_ij(true)
// The hold margins h_j - d_ij are sampled M times from the statistical model;
// the bound set { lambda_ij } must cover at least Y*M complete samples while
// the sum of all lambda (the freedom taken from the buffers) is minimized.
//
// The bounds come from greedy scenario discard: start from full coverage
// (lambda = per-pair max) and greedily discard the (1-Y)*M samples whose
// removal shrinks sum(lambda) most. Each pair's samples are ranked once, so
// a discard costs O(M + pairs), not a rescan of all M x pairs margins; it
// scales to M = thousands. The paper's
// indicator formulation (eqs. 19-20) is a test oracle, practical for small
// M (tests/oracles/milp_oracles.hpp).

#include <vector>

#include "core/alignment.hpp"
#include "core/problem.hpp"
#include "stats/rng.hpp"

namespace effitest::core {

/// Y of eq. 20: the share of sampled chips the bounds must cover.
inline constexpr double kHoldYield = 0.99;

struct HoldBoundOptions {
  std::size_t samples = 1000;   ///< M
  /// Worker threads for margin sampling. Each sample draws from its own
  /// seed-derived stream (parallel::index_seed), so the bounds are
  /// bit-identical for any value. 0 = shared-pool width; inside the flow, 0
  /// inherits FlowOptions::threads.
  std::size_t threads = 0;
};

/// Sampled hold margins of the buffer-exposed monitored pairs.
struct HoldMarginSamples {
  /// Monitored pair indices with at least one buffered endpoint.
  std::vector<std::size_t> exposed;
  /// delta[k][e] = h - d_min of pair exposed[e] on sampled chip k.
  std::vector<std::vector<double>> delta;
};

/// Sample M = options.samples chips and collect their hold margins. Runs on
/// the shared pool (options.threads workers); sample k draws from its own
/// stream seeded parallel::index_seed(base, k) where `base` is one draw
/// from `rng`, so the result is bit-identical for any worker count.
[[nodiscard]] HoldMarginSamples sample_hold_margins(
    const Problem& problem, stats::Rng& rng,
    const HoldBoundOptions& options = {});

/// Compute hold lower bounds for every monitored pair that touches at least
/// one buffer (pairs without buffers have fixed skew 0 and cannot be
/// constrained). Bounds are merged per (src_buf, dst_buf) combination with
/// the max lambda, and bounds that cannot bind within the buffer ranges are
/// pruned. The result plugs directly into the §3.3 and §3.4 optimizations.
[[nodiscard]] std::vector<HoldConstraintX> compute_hold_bounds(
    const Problem& problem, stats::Rng& rng,
    const HoldBoundOptions& options = {});

/// Exposed for testing: given margin samples `delta[k][pair]`, select
/// ceil(Y*M) samples to cover and return per-pair lambda = max over covered
/// samples. Greedy scenario-discard version.
[[nodiscard]] std::vector<double> greedy_discard_bounds(
    const std::vector<std::vector<double>>& delta, double yield);

}  // namespace effitest::core
