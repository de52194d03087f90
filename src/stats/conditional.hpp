#pragma once
// Conditional Gaussian prediction — the statistical heart of EffiTest §3.1.
//
// Given jointly Gaussian delays D = [d_k; D_t] ~ N(mu, Sigma), once the
// subset D_t has been *measured* as d_t, each unmeasured delay d_k follows
//
//   mu'_k    = mu_k + Sigma_{k,t} Sigma_t^{-1} (d_t - mu_t)         (paper eq. 4)
//   sigma'_k = sqrt(sigma_k^2 - Sigma_{k,t} Sigma_t^{-1} Sigma_{t,k})   (eq. 5)
//
// The gain matrix W = Sigma_{k,t} Sigma_t^{-1} and the posterior sigmas do
// not depend on the measured values, so the whole prediction operator is a
// function of (Sigma, measured index set) alone. PredictionGain packages it
// — W and the posterior sigmas, formed through one Cholesky factorization
// of Sigma_t — as one immutable, shareable object: the flow computes it
// once per (grouping, measured-set) during offline preparation and every
// chip, every reused FlowArtifacts copy and every same-circuit campaign job
// predicts through the same factorization. Per-chip prediction is then a
// single mat-vec, which is what makes the paper's per-chip estimation step
// (column Ts of Table 1) essentially free.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace effitest::stats {

/// The chip-independent part of conditional-Gaussian prediction over a
/// fixed index split: the gain W and the posterior sigmas. Immutable once
/// computed; share via shared_ptr instead of refactorizing or deep-copying
/// (core::DelayPredictor and every copy of core::FlowArtifacts hold it that
/// way).
struct PredictionGain {
  std::vector<std::size_t> measured;   ///< observed indices (input order)
  std::vector<std::size_t> predicted;  ///< remaining indices, ascending
  /// Gain matrix W (|predicted| x |measured|).
  linalg::Matrix gain;
  /// Posterior standard deviations sigma'_k per predicted index (eq. 5).
  std::vector<double> posterior_sigma;

  /// Factor Sigma_t and form W and the posterior sigmas. `cov` is the joint
  /// covariance over n variables; `measured` lists the indices that will be
  /// observed (order defines the observation vector layout). Throws on
  /// duplicate/out-of-range indices or a non-SPD measured block (within
  /// `jitter` regularization).
  [[nodiscard]] static std::shared_ptr<const PredictionGain> compute(
      const linalg::Matrix& cov, std::vector<std::size_t> measured,
      double jitter = 1e-12);

  /// Posterior means mu'_k for the predicted indices given the measured
  /// values (paper eq. 4). `mean` is the full-length prior mean vector;
  /// `observed` follows the order of `measured`.
  [[nodiscard]] std::vector<double> posterior_mean(
      std::span<const double> mean, std::span<const double> observed) const;
};

}  // namespace effitest::stats
