#pragma once
// Statistical delay prediction for untested paths (paper §3.1, §3.4).
//
// After frequency stepping measures the tested subset D_t, every untested
// delay d_k is estimated by the conditional Gaussian formulas (eqs. 4-5).
// Following §3.4, the *upper bounds* of the measured ranges feed eq. 4 so
// the estimates are conservative, and the resulting range for an estimated
// delay is mu'_k +/- 3 sigma'_k.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "stats/conditional.hpp"

namespace effitest::core {

/// Lower/upper delay bounds per path (global path indexing).
struct DelayBounds {
  std::vector<double> lower;
  std::vector<double> upper;
};

class DelayPredictor {
 public:
  /// Adopt an already-computed (and possibly shared) prediction gain — no
  /// factorization happens. `means` covers all paths; the tested set is the
  /// gain's measured set. The gain is chip-independent (this is why the
  /// per-chip estimation cost, column Ts of Table 1, is negligible), so
  /// FlowArtifacts shares one across chips, reused flows and campaign jobs.
  DelayPredictor(std::shared_ptr<const stats::PredictionGain> gain,
                 std::vector<double> means);

  /// The shared chip-independent gain (Cholesky of Sigma_t + W + posterior
  /// sigmas).
  [[nodiscard]] const std::shared_ptr<const stats::PredictionGain>&
  shared_gain() const {
    return gain_;
  }

  [[nodiscard]] const std::vector<std::size_t>& tested_indices() const {
    return gain_->measured;
  }
  [[nodiscard]] const std::vector<std::size_t>& predicted_indices() const {
    return gain_->predicted;
  }

  /// Posterior sigma of each *predicted* path (ordered as
  /// predicted_indices()); does not depend on measurements (eq. 5).
  [[nodiscard]] const std::vector<double>& posterior_sigma() const {
    return gain_->posterior_sigma;
  }

  /// Fill bounds for every path: tested paths keep their measured bounds;
  /// predicted paths get mu'_k +/- 3 sigma'_k with mu'_k computed from the
  /// measured *upper* bounds (conservative, §3.4).
  /// `measured` is indexed like tested_indices().
  [[nodiscard]] DelayBounds predict(
      std::span<const double> measured_lower,
      std::span<const double> measured_upper) const;

 private:
  std::vector<double> means_;
  std::shared_ptr<const stats::PredictionGain> gain_;
};

}  // namespace effitest::core
