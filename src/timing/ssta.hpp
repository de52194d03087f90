#pragma once
// Block-based statistical static timing analysis (SSTA).
//
// The paper builds on the SSTA literature (its refs. [10, 17]): delays are
// first-order Gaussian forms over shared variation factors, propagated
// through the timing graph with SUM along edges and Clark's moment-matching
// approximation for MAX at merge points. This module provides:
//
//  * CanonicalDelay — mean + sparse factor loadings + independent variance,
//  * canonical sum / max (Clark) / covariance / quantile operations,
//  * whole-circuit propagation producing the distribution of the *untuned
//    required clock period* (max register-to-register delay + setup).
//
// The analytic distribution cross-checks the Monte-Carlo estimator
// (core::period_quantile) used to calibrate T1/T2 — see the ssta tests and
// the bench_ablation_flow output.
//
// Known approximation limits (standard for block-based SSTA): Clark's max of
// Gaussians is itself treated as Gaussian, and per-gate mismatch that is
// shared between reconvergent branches is treated as independent at merges.

#include <span>

#include "netlist/cell.hpp"
#include "netlist/netlist.hpp"
#include "timing/graph.hpp"
#include "timing/model.hpp"
#include "timing/variation.hpp"

namespace effitest::timing {

/// First-order Gaussian delay form: mean + sum(loading_i * z_i) + eps with
/// z ~ iid N(0,1) shared factors and eps ~ N(0, indep_var) private.
struct CanonicalDelay {
  double mean = 0.0;
  SparseLoading loading;
  double indep_var = 0.0;

  [[nodiscard]] double variance() const {
    return sparse_dot(loading, loading) + indep_var;
  }
  [[nodiscard]] double sigma() const;
  /// q-quantile of the Gaussian form.
  [[nodiscard]] double quantile(double q) const;
  /// P(form <= x), the yield at clock period x; a form with sigma below
  /// 1e-12 ps is a step at its mean.
  [[nodiscard]] double cdf(double x) const;
};

/// Canonical form of a model DelayForm: gate mismatch and the extra
/// (Fig-7) inflation variance become the independent term.
[[nodiscard]] CanonicalDelay to_canonical(const DelayForm& form);

/// Covariance of two canonical forms (shared factors only).
[[nodiscard]] double canonical_cov(const CanonicalDelay& a,
                                   const CanonicalDelay& b);

/// a + b where the independent parts are uncorrelated.
[[nodiscard]] CanonicalDelay canonical_sum(const CanonicalDelay& a,
                                           const CanonicalDelay& b);

/// Add a deterministic offset.
[[nodiscard]] CanonicalDelay canonical_shift(CanonicalDelay a, double offset);

/// Clark's max approximation of two (correlated) Gaussian forms: moment-
/// matched mean/variance, loadings blended by the tie probability Phi(alpha).
[[nodiscard]] CanonicalDelay canonical_max(const CanonicalDelay& a,
                                           const CanonicalDelay& b);

/// Statistical max over many forms (sequential Clark folding, largest means
/// first for numerical stability; forms of equal mean keep their input
/// order).
[[nodiscard]] CanonicalDelay statistical_max(
    std::span<const CanonicalDelay> forms);

/// Whole-circuit block-based SSTA: propagate canonical arrivals from every
/// flip-flop clock pin through the combinational network and return the
/// distribution of the untuned required clock period
/// (max over all captured register-to-register delays, setup included).
/// Throws if the netlist has no register-to-register path.
[[nodiscard]] CanonicalDelay ssta_required_period(
    const netlist::Netlist& netlist, const netlist::CellLibrary& library,
    const VariationModel& variation);

/// Same distribution computed from an already-built CircuitModel: the
/// statistical max of every monitored pair's near-critical forms, then the
/// promoted background pairs' static forms (cheaper; the untuned period of
/// analytic::analyze_tuned_period and the Clark side of the cross-checks).
[[nodiscard]] CanonicalDelay ssta_required_period(const CircuitModel& model);

}  // namespace effitest::timing
