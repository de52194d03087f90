#pragma once
// Statistical static timing analysis (SSTA) on canonical delay forms.
//
// The paper builds on the SSTA literature (its refs. [10, 17]): delays are
// first-order Gaussian forms over shared variation factors, combined with
// SUM and Clark's moment-matching approximation for MAX. This module
// provides:
//
//  * CanonicalDelay — mean + sparse factor loadings + independent variance,
//  * canonical sum / max (Clark) / covariance / quantile operations,
//  * the distribution of a circuit model's *untuned required clock period*
//    (max register-to-register delay + setup), folded from the same forms
//    the Monte-Carlo sampler draws.
//
// The analytic distribution cross-checks the Monte-Carlo estimator
// (core::period_quantile) used to calibrate T1/T2 — see the ssta tests and
// `effitest_cli ssta`.
//
// Known approximation limit (standard for SSTA): Clark's max of
// Gaussians is itself treated as Gaussian.

#include <span>

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

/// Distribution of the untuned required clock period of a CircuitModel:
/// the statistical max of every monitored pair's near-critical forms, then
/// the promoted background pairs' static forms (the untuned period of
/// analytic::analyze_tuned_period, of `effitest_cli ssta` and of campaign
/// analytic jobs). Throws if the model has no form at all.
[[nodiscard]] CanonicalDelay ssta_required_period(const CircuitModel& model);

}  // namespace effitest::timing
