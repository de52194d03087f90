#pragma once
// Analytic post-tuning SSTA + criticality engine.
//
// The Monte-Carlo flow configures buffers chip by chip; the companion
// analyses (arXiv 1705.04979, 1705.04986) ask the *design-time* question
// instead: given the statistical timing model and the tuning ranges, what is
// the distribution of the clock period the circuit can reach **after**
// optimal tuning, and which register pairs limit it?
//
// Model. A tuned chip is feasible at period T iff the difference-constraint
// system
//     x_s - x_d <= T - D_p        for every register pair p (setup),
//     l_b <= x_b <= u_b           for every tunable buffer b,
//     x_f  = 0                    for every unbuffered flip-flop f,
// has a solution (x = buffer delays; D_p = the pair's true max path delay,
// setup included). All unbuffered registers therefore contract into one
// virtual node 0, leaving a constraint graph over nb + 1 nodes. Standard
// difference-constraint theory turns feasibility into the absence of a
// negative cycle, i.e.
//     T* = max over cycles C of ( sum_{p in C} D_p - slack(C) ) / k(C)
// where k(C) counts the delay edges of C and slack(C) collects the
// buffer-range give (u - l terms) consumed along C. Every quantity D_p is a
// timing::CanonicalDelay, so T* is computed by propagating canonical forms:
// SUM along cycle edges, Clark max at merges — exactly the block-based SSTA
// algebra, on the *contracted* graph instead of the gate graph. Because the
// contracted graph has nb + 1 nodes and the binding ratio is attained on a
// simple cycle, a depth-(nb + 1) dynamic program enumerates every candidate
// exactly (at Clark accuracy).
//
// Criticality. The tuned period is a statistical max over candidate cycles;
// folding them largest-mean-first with Clark's tie probability Phi(alpha)
// assigns each candidate the probability that *it* defines the max
// (criticalities sum to 1 by construction). A candidate's mass is divided
// over the register pairs on its dominant cycle (argmax-by-mean traceback),
// so `pair_criticality` ranks which pairs still limit yield after tuning.
//
// Approximations (documented in DESIGN.md §16): Clark's Gaussian max,
// continuous buffer ranges (step quantization <= one step_size, identical on
// both sides of the cross-validation), hold constraints ignored. The
// `mc_tuned_period` reference computes the same quantity exactly per
// sampled die (a cycle-ratio iteration on the shared difference-constraint
// kernel, core/difference_system.hpp) on the same per-chip streams the
// Monte-Carlo flow uses, which is what the analytic-vs-MC cross-validation
// tests pin.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/problem.hpp"
#include "timing/ssta.hpp"

namespace effitest::analytic {

/// One candidate constraint cycle of the contracted tuning graph.
struct CandidateConstraint {
  /// Canonical form of (sum of pair delays - range slack) / num_edges: the
  /// period this cycle alone would require.
  timing::CanonicalDelay period;
  /// Monitored-pair indices on the dominant cycle (with multiplicity);
  /// empty for the promoted-static candidate.
  std::vector<std::size_t> pairs;
  /// Number of delay edges k of the cycle (1 for the static candidate).
  int num_edges = 1;
  /// True for the merged promoted-static-background candidate.
  bool is_static = false;
  /// Probability this candidate defines the tuned period (sums to 1).
  double criticality = 0.0;
};

/// Result of the analytic post-tuning analysis.
struct TunedPeriodAnalysis {
  /// Untuned required period (monitored + promoted static pairs) — the
  /// Clark counterpart of the Monte-Carlo required periods T_d is
  /// calibrated on, computed by timing::ssta_required_period(model).
  timing::CanonicalDelay untuned;
  /// Post-tuning required period: the clock the chip population can reach
  /// with optimally configured buffers.
  timing::CanonicalDelay tuned;
  /// Deduplicated candidate cycles, sorted by mean descending, with their
  /// criticalities (sum == 1 whenever any candidate exists).
  std::vector<CandidateConstraint> candidates;
  /// Per monitored pair: probability mass of limiting the tuned period
  /// (candidate criticality split over the pairs of its cycle).
  std::vector<double> pair_criticality;
  /// Mass attributed to promoted static background pairs.
  double static_criticality = 0.0;
};

/// Analytic post-tuning analysis of one tuning problem. Deterministic, no
/// sampling; cost is O((nb+1)^4) canonical operations — independent of the
/// chip count that makes the Monte-Carlo flow expensive. The cycle DP runs
/// to depth nb + 1, which covers every simple cycle of the contracted graph.
/// Its nb + 1 start nodes, O((nb+1)^3) operations each, fan out over
/// `threads` workers (0 = shared-pool width, 1 = serial). Each start node
/// returns its cycles in k order and one serial loop folds them in
/// start-then-k order, so the result is bit-identical for any value.
[[nodiscard]] TunedPeriodAnalysis analyze_tuned_period(
    const core::Problem& problem, std::size_t threads = 0);

struct McTunedOptions {
  std::size_t chips = 1000;
  std::uint64_t seed = 2016;
  /// Worker threads (0 = shared-pool width); results are bit-identical for
  /// any value (parallel::deterministic_for_blocks + per-chip index_seed
  /// streams, the same convention as the flow's tester loop).
  std::size_t threads = 0;
};

/// Monte-Carlo reference distribution of the post-tuning required period.
struct McTunedPeriod {
  double mean = 0.0;
  double sigma = 0.0;
  /// Per-chip minimal feasible periods, chip-index order.
  std::vector<double> periods;
  /// Per-chip untuned required periods of the same dies (the largest
  /// sampled max delay, at least 0: core::sample_required_periods' value),
  /// chip-index order. No die's tuned period exceeds its untuned one.
  std::vector<double> untuned;

  /// Empirical q-quantile (stats::sorted_quantile on a sorted copy, the
  /// convention of core::period_quantile); 0.0 for an empty sample.
  [[nodiscard]] double quantile(double q) const;
};

/// Exact minimal feasible period of one sampled die: the maximum cycle
/// ratio (sum D - range slack) / #delay edges of the contracted graph,
/// floored by the static delays. Starting from the single-edge and static
/// lower bound, each Bellman-Ford solve either proves T feasible or returns
/// a negative cycle whose ratio becomes the next T. Continuous buffer
/// ranges, hold ignored — the same relaxation as analyze_tuned_period, so
/// the two estimates converge as chips grow. `untuned`, when not null,
/// receives the die's untuned required period: its largest max delay
/// (monitored or static), at least 0.
[[nodiscard]] double min_feasible_period(const core::Problem& problem,
                                         const timing::Chip& chip,
                                         double* untuned = nullptr);

/// Sample `chips` dies (per-chip stream = Rng(index_seed(seed, i)), the
/// flow's convention) and compute each die's exact minimal feasible period
/// and its untuned required period. Dies are sampled kLanes per kernel call
/// (timing::CircuitModel::sample_chips), bit for bit sample_chip's.
[[nodiscard]] McTunedPeriod mc_tuned_period(const core::Problem& problem,
                                            const McTunedOptions& options = {});

}  // namespace effitest::analytic
