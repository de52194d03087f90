#include "core/predictor.hpp"

#include <stdexcept>

namespace effitest::core {

DelayPredictor::DelayPredictor(
    std::shared_ptr<const stats::PredictionGain> gain,
    std::vector<double> means)
    : means_(std::move(means)), gain_(std::move(gain)) {
  if (gain_ == nullptr) {
    throw std::invalid_argument("DelayPredictor: null PredictionGain");
  }
  if (means_.size() != gain_->measured.size() + gain_->predicted.size()) {
    throw std::invalid_argument("DelayPredictor: means/gain size mismatch");
  }
}

DelayBounds DelayPredictor::predict(std::span<const double> measured_lower,
                                    std::span<const double> measured_upper) const {
  const std::vector<std::size_t>& tested = gain_->measured;
  if (measured_lower.size() != tested.size() ||
      measured_upper.size() != tested.size()) {
    throw std::invalid_argument("DelayPredictor: measurement size mismatch");
  }
  DelayBounds out;
  out.lower.assign(means_.size(), 0.0);
  out.upper.assign(means_.size(), 0.0);
  for (std::size_t t = 0; t < tested.size(); ++t) {
    out.lower[tested[t]] = measured_lower[t];
    out.upper[tested[t]] = measured_upper[t];
  }
  // Conservative conditioning on the measured upper bounds (§3.4).
  const std::vector<double> mu = gain_->posterior_mean(means_, measured_upper);
  const std::vector<double>& sigma = gain_->posterior_sigma;
  const std::vector<std::size_t>& predicted = gain_->predicted;
  for (std::size_t k = 0; k < predicted.size(); ++k) {
    out.lower[predicted[k]] = mu[k] - 3.0 * sigma[k];
    out.upper[predicted[k]] = mu[k] + 3.0 * sigma[k];
  }
  return out;
}

}  // namespace effitest::core
